"""Episodes count only measured rounds, and a check fails only the
decisions that did not fail in their own round."""

from perfbench.offline import Backtest
from perfbench.run import episode


class _Counting:
    warmup_rounds = 2

    def setup(self, seed):
        self.log = ["setup"]
        self.measuring = False
        self.rounds = 0

    def round(self):
        self.rounds += 1
        # Warm-up rounds fail, so counting one would show.
        return 3, (0 if self.measuring else 3)

    def start_measuring(self):
        self.measuring = True

    def worker_pids(self):
        return []

    def extras(self):
        return {}

    def teardown(self):
        self.log.append("teardown")

    def check(self):
        self.log.append("check")
        return 1


def test_episode_leaves_warm_up_rounds_out():
    workload = _Counting()
    result = episode(workload, seed=0, rounds=5)
    assert workload.rounds == 7
    assert len(result.latencies) == 5
    assert (result.attempted, result.failed) == (15, 1)
    assert workload.log == ["setup", "teardown", "check"]


def test_backtest_check_fails_each_measured_decision_once():
    workload = Backtest()
    result = episode(workload, seed=3, rounds=2)
    assert result.attempted > 0 and result.failed == 0
    # A first round that does not match the per-panel reference fails
    # every measured round that matched it.
    workload.first = [(w + 1.0, v) for w, v in workload.first]
    assert workload.check() == result.attempted
    # A round that differs from the first has failed by itself, and the
    # check does not count it again.
    workload.start_measuring()
    decisions, failed = workload.round()
    assert failed == decisions
    assert workload.check() == 0
