"""Chaos suite for :mod:`repro.resilience`: seeded fault injection and
the hardened sweep, serving, and data planes.

The suite leans on two invariants:

* **Determinism** — every fault decision is a pure function of
  ``(plan.seed, site, key)``, so a replayed plan fires the same faults,
  schedules the same retries, and corrupts the same bytes.
* **No-fault parity** — a ``None`` (or empty) plan over healthy inputs
  is bit-identical to the unhardened code path, across the generator,
  the Poloniex simulator, the sweep engine, and serving.
"""

import fnmatch
import json
import shutil
import threading
import urllib.request

import numpy as np
import pytest

from repro.__main__ import main as cli_main
from repro.data import (
    DataAnomalyError,
    MarketGenerator,
    PoloniexSimulator,
    PoloniexTransientError,
    validate_panel,
)
from repro.experiments import (
    ArtifactCorrupt,
    ArtifactStore,
    ExperimentSpec,
    SweepRunner,
)
from repro.envs import Backtester, ObservationConfig
from repro.experiments import engine as engine_mod
from repro.experiments.engine import run_shard
from repro.agents import Agent
from repro.baselines import UCRP
from repro.registry import DEFAULT_REGISTRY, StrategyRegistry
from repro.resilience import (
    DataFaults,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    RetriesExhausted,
    RetryPolicy,
    ServingFaults,
    SweepFaults,
    call_with_retry,
    injector_from,
)
from repro.serving import (
    CheckpointCorrupt,
    DeadlineExceeded,
    MicroBatcher,
    PortfolioService,
    QueueFull,
    RebalanceRequest,
    ServingResilience,
)
from repro.serving.service import _Slot

# Three cheap non-trainable strategies -> three shards, no training.
STRATEGIES = ("ucrp", "crp", "ubah")


def make_spec(name="chaos"):
    return ExperimentSpec(
        name=name,
        profile="quick",
        experiments=(1,),
        strategies=STRATEGIES,
        seeds=(0,),
    )


def no_sleep(_seconds):
    return None


def run_sweep(root, fault_plan=None, parallel=False, retry=None, **kw):
    runner = SweepRunner(
        make_spec(), root, fault_plan=fault_plan, retry=retry, sleep=no_sleep,
        max_workers=2,
    )
    result = runner.run(parallel=parallel, **kw)
    return runner, result


@pytest.fixture(scope="module")
def panel():
    return (
        MarketGenerator(seed=5)
        .generate("2017-01-01", "2017-02-15")
        .select_assets(list(range(4)))
    )


@pytest.fixture(scope="module")
def baseline_manifest(tmp_path_factory):
    """Manifest of a fault-free sweep — the recovery equality target."""
    runner, result = run_sweep(tmp_path_factory.mktemp("baseline"))
    assert result.complete
    return runner.store.read_manifest()


# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            seed=17,
            data=DataFaults(nan_rate=0.1, missing_rate=0.05, fetch_error_rate=0.5),
            sweep=SweepFaults(transient_rate=0.3, crash_shards=(1,), broken_shards=(2,)),
            serving=ServingFaults(forward_error_rate=0.2, slow_rate=0.1, slow_seconds=1.5),
        )
        back = FaultPlan.from_json_dict(json.loads(json.dumps(plan.to_json_dict())))
        assert back == plan
        path = plan.save(tmp_path / "plan.json")
        assert FaultPlan.load(path) == plan

    def test_worker_crash_seam_round_trip(self, tmp_path):
        # JSON turns the (worker, batch_id) tuples into lists;
        # from_json_dict must coerce them back so equality (and the
        # explicit-batch membership test) holds.
        plan = FaultPlan(
            seed=5,
            serving=ServingFaults(
                worker_crash_rate=0.25,
                worker_crash_batches=((0, 2), (1, 3)),
            ),
        )
        back = FaultPlan.from_json_dict(json.loads(json.dumps(plan.to_json_dict())))
        assert back == plan
        assert back.serving.worker_crash_batches == ((0, 2), (1, 3))
        assert FaultPlan.load(plan.save(tmp_path / "plan.json")) == plan

    def test_worker_crashes_explicit_batches_fire_exactly_once(self):
        plan = FaultPlan(
            seed=0,
            serving=ServingFaults(worker_crash_batches=((1, 4),)),
        )
        inj = FaultInjector(plan)
        assert not inj.worker_crashes(0, 4)  # other worker untouched
        assert not inj.worker_crashes(1, 3)
        assert inj.worker_crashes(1, 4)
        assert ("serving.worker_crash", "1:4") in inj.record
        # The supervisor's batch ids are monotonic across restarts, so
        # the replayed batch gets a fresh id and the entry cannot
        # re-fire: the crash is one-shot by construction.
        assert not inj.worker_crashes(1, 5)

    def test_worker_crash_rate_is_deterministic(self):
        plan = FaultPlan(seed=11, serving=ServingFaults(worker_crash_rate=0.5))
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        keys = [(w, batch) for w in range(2) for batch in range(10)]
        decisions = [a.worker_crashes(w, batch) for w, batch in keys]
        assert decisions == [b.worker_crashes(w, batch) for w, batch in keys]
        assert any(decisions) and not all(decisions)
        off = FaultInjector(
            FaultPlan(seed=11, serving=ServingFaults(slow_rate=0.1))
        )
        assert not any(off.worker_crashes(w, batch) for w, batch in keys)

    def test_empty_plan_normalizes_to_none(self):
        assert injector_from(None) is None
        assert injector_from(FaultPlan(seed=9)) is None
        assert injector_from(FaultInjector(FaultPlan())) is None
        armed = injector_from(FaultPlan(serving=ServingFaults(slow_rate=0.5)))
        assert isinstance(armed, FaultInjector)
        assert injector_from(armed) is armed

    def test_validation(self):
        with pytest.raises(ValueError, match="nan_rate"):
            DataFaults(nan_rate=1.5)
        with pytest.raises(ValueError, match="transient_rate"):
            SweepFaults(transient_rate=-0.1)
        with pytest.raises(ValueError, match="slow_seconds"):
            ServingFaults(slow_seconds=-1)
        with pytest.raises(TypeError, match="expected FaultPlan"):
            injector_from("chaos")


class TestInjectorDeterminism:
    def test_decisions_are_order_independent(self):
        plan = FaultPlan(
            seed=3,
            sweep=SweepFaults(transient_rate=0.5, transient_attempts=2),
            serving=ServingFaults(forward_error_rate=0.5),
        )
        keys = [(f"shard-{i}", i % 3) for i in range(20)]
        a = FaultInjector(plan)
        forward = [(s, t, a.forward_fails(s, t)) for s, t in keys]
        shard = [(s, i, a.shard_fault(s, i, t)) for i, (s, t) in enumerate(keys)]
        b = FaultInjector(plan)
        # Reversed call order, same decisions: pure (seed, site, key).
        assert [
            (s, i, b.shard_fault(s, i, t))
            for i, (s, t) in reversed(list(enumerate(keys)))
        ] == list(reversed(shard))
        assert [(s, t, b.forward_fails(s, t)) for s, t in keys] == forward

    def test_record_replays_identically(self):
        plan = FaultPlan(
            seed=8,
            data=DataFaults(fetch_error_rate=0.9, fetch_error_attempts=3),
        )
        runs = []
        for _ in range(2):
            inj = FaultInjector(plan)
            for pair in ("USDT_BTC", "USDT_ETH", "USDT_XRP"):
                for attempt in range(3):
                    inj.fetch_fails(pair, attempt)
            runs.append(list(inj.record))
        assert runs[0] == runs[1] and runs[0]

    def test_corrupt_panel_deterministic_and_dirty(self, panel):
        faults = DataFaults(
            nan_rate=0.05, zero_rate=0.02, missing_rate=0.02,
            duplicate_rate=0.02, stale_rate=0.02,
        )
        inj = FaultInjector(FaultPlan(seed=21, data=faults))
        dirty = inj.corrupt_market(panel, key="k")
        again = FaultInjector(FaultPlan(seed=21, data=faults)).corrupt_market(
            panel, key="k"
        )
        assert np.array_equal(dirty.close, again.close, equal_nan=True)
        assert np.array_equal(dirty.timestamps, again.timestamps)
        assert np.isnan(dirty.close).any()
        assert (dirty.close == 0).any()
        assert len(dirty.timestamps) < len(panel.timestamps)  # missing rows
        assert (np.diff(dirty.timestamps) == 0).any()  # duplicated stamps
        # Row 0 is spared so a repair pass has an anchor price.
        assert np.array_equal(dirty.close[0], panel.close[0])
        _, report = validate_panel(dirty, policy="ffill")
        assert not report.clean
        with pytest.raises(DataAnomalyError):
            validate_panel(dirty, policy="raise")


# ----------------------------------------------------------------------
class TestDataPlane:
    def test_generate_empty_plan_bit_identical(self):
        plain = MarketGenerator(seed=5).generate("2017-01-01", "2017-01-20")
        armed = MarketGenerator(seed=5).generate(
            "2017-01-01", "2017-01-20", faults=FaultPlan(seed=99), repair=None
        )
        for f in ("timestamps", "open", "high", "low", "close", "volume"):
            assert np.array_equal(getattr(plain, f), getattr(armed, f))

    def test_generate_faults_then_repair(self):
        plan = FaultPlan(seed=11, data=DataFaults(nan_rate=0.02, zero_rate=0.01))
        gen = MarketGenerator(seed=5)
        dirty = gen.generate("2017-01-01", "2017-01-20", faults=plan)
        assert np.isnan(dirty.close).any() or (dirty.close <= 0).any()
        assert gen.last_anomaly_report is None  # no repair requested
        clean = gen.generate("2017-01-01", "2017-01-20", faults=plan, repair="ffill")
        assert not np.isnan(clean.close).any() and (clean.close > 0).all()
        report = gen.last_anomaly_report
        assert report is not None and report.repaired_cells > 0

    def test_fetch_retry_recovers_with_fake_clock(self):
        sleeps = []
        plan = FaultPlan(
            seed=3, data=DataFaults(fetch_error_rate=1.0, fetch_error_attempts=2)
        )
        sim = PoloniexSimulator(
            generator=MarketGenerator(seed=5),
            history_start="2017/01/01", history_end="2017/03/01",
            faults=plan, sleep=sleeps.append, clock=lambda: 0.0,
        )
        pairs = sim.currency_pairs()[:3]
        panel = sim.fetch_panel(pairs, "2017/01/05", "2017/02/01")
        # Every pair failed its first two attempts, then recovered.
        assert sim.fetch_retry_count == 2 * len(pairs)
        assert len(sleeps) == 2 * len(pairs)
        assert all(s > 0 for s in sleeps)
        # Recovered data is bit-identical to the fault-free fetch.
        plain = PoloniexSimulator(
            generator=MarketGenerator(seed=5),
            history_start="2017/01/01", history_end="2017/03/01",
        )
        assert plain.fetch_retry_count == 0
        assert np.array_equal(
            plain.fetch_panel(pairs, "2017/01/05", "2017/02/01").close,
            panel.close,
        )

    def test_fetch_retries_exhausted(self):
        plan = FaultPlan(
            seed=3, data=DataFaults(fetch_error_rate=1.0, fetch_error_attempts=99)
        )
        sim = PoloniexSimulator(
            generator=MarketGenerator(seed=5),
            history_start="2017/01/01", history_end="2017/03/01",
            faults=plan, sleep=no_sleep, clock=lambda: 0.0,
            retry=RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0),
        )
        with pytest.raises(RetriesExhausted) as info:
            sim.fetch_panel(sim.currency_pairs()[:1], "2017/01/05", "2017/02/01")
        assert isinstance(info.value.__cause__, PoloniexTransientError)
        assert info.value.attempts == 3

    def test_fetch_panel_repair(self):
        plan = FaultPlan(seed=7, data=DataFaults(nan_rate=0.02))
        sim = PoloniexSimulator(
            generator=MarketGenerator(seed=5),
            history_start="2017/01/01", history_end="2017/03/01",
            faults=plan,
        )
        pairs = sim.currency_pairs()[:3]
        healed = sim.fetch_panel(pairs, "2017/01/05", "2017/02/01", repair="ffill")
        assert not np.isnan(healed.close).any()
        assert sim.last_anomaly_report is not None
        assert sim.last_anomaly_report.repaired_cells > 0

    def test_retry_backoff_is_deterministic_and_capped(self):
        policy = RetryPolicy(
            max_attempts=6, base_delay=0.5, multiplier=2.0, max_delay=3.0,
            jitter=0.25,
        )
        delays = [policy.delay(a, key="shard-x") for a in range(5)]
        assert delays == [policy.delay(a, key="shard-x") for a in range(5)]
        assert all(d <= 3.0 * 1.25 for d in delays)
        assert delays[1] > delays[0]
        # Different keys decorrelate, same capped envelope.
        assert delays != [policy.delay(a, key="shard-y") for a in range(5)]

    def test_call_with_retry_timeout_budget(self):
        clock = {"t": 0.0}

        def tick(seconds):
            clock["t"] += seconds

        policy = RetryPolicy(
            max_attempts=10, base_delay=5.0, multiplier=1.0, jitter=0.0,
            timeout=12.0,
        )
        calls = []

        def always_fails(attempt):
            calls.append(attempt)
            raise ConnectionError("nope")

        with pytest.raises(RetriesExhausted):
            call_with_retry(
                always_fails, policy, key="k",
                sleep=tick, clock=lambda: clock["t"],
            )
        # 5s backoffs against a 12s budget: attempts at t=0, 5, 10 only.
        assert calls == [0, 1, 2]


# ----------------------------------------------------------------------
class TestSweepChaos:
    def test_crash_recovered_by_retry(self, tmp_path, baseline_manifest):
        plan = FaultPlan(seed=1, sweep=SweepFaults(crash_shards=(0,)))
        runner, result = run_sweep(tmp_path / "crash", fault_plan=plan)
        assert result.complete and not result.quarantined
        attempts = {o.shard_id: o.attempts for o in result.ran}
        assert sorted(attempts.values()) == [1, 1, 2]
        assert runner.store.read_manifest() == baseline_manifest

    def test_transient_storm_recovered(self, tmp_path, baseline_manifest):
        plan = FaultPlan(
            seed=1,
            sweep=SweepFaults(transient_rate=1.0, transient_attempts=1),
        )
        runner, result = run_sweep(tmp_path / "storm", fault_plan=plan)
        assert result.complete
        assert all(o.attempts == 2 for o in result.ran)
        assert runner.store.read_manifest() == baseline_manifest

    def test_broken_shard_quarantined_siblings_complete(self, tmp_path):
        plan = FaultPlan(seed=1, sweep=SweepFaults(broken_shards=(1,)))
        retry = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)
        runner, result = run_sweep(tmp_path / "broken", fault_plan=plan, retry=retry)
        assert not result.complete
        assert len(result.quarantined) == 1
        bad = result.quarantined[0]
        assert bad.attempts == 3
        assert "InjectedFault" in bad.error
        # Siblings ran to completion and aggregate over the healthy set.
        assert len(result.ran) == len(STRATEGIES) - 1
        agg = result.aggregate()
        assert bad.shard_id not in str(agg)
        manifest = runner.store.read_manifest()
        statuses = {s["shard_id"]: s["status"] for s in manifest["shards"]}
        assert statuses[bad.shard_id] == "quarantined"
        assert sorted(statuses.values()) == ["complete", "complete", "quarantined"]
        entry = next(
            s for s in manifest["shards"] if s["shard_id"] == bad.shard_id
        )
        assert entry["attempts"] == 3 and "InjectedFault" in entry["error"]

    def test_quarantine_then_resume_equals_fault_free(
        self, tmp_path, baseline_manifest
    ):
        root = tmp_path / "resume"
        plan = FaultPlan(seed=1, sweep=SweepFaults(broken_shards=(1,)))
        retry = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        run_sweep(root, fault_plan=plan, retry=retry)
        # The fault is gone (fixed worker, say): resume without a plan.
        runner, result = run_sweep(root)
        assert result.complete
        assert len(result.skipped) == len(STRATEGIES) - 1  # committed survive
        assert runner.store.read_manifest() == baseline_manifest

    def test_pool_path_surfaces_worker_traceback(self, tmp_path):
        plan = FaultPlan(seed=1, sweep=SweepFaults(broken_shards=(0,)))
        retry = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        runner, result = run_sweep(
            tmp_path / "pool", fault_plan=plan, parallel=True, retry=retry
        )
        assert len(result.quarantined) == 1
        bad = result.quarantined[0]
        # The worker formatted its own traceback; the parent sees the
        # real frames, not a bare pickled exception.
        assert "InjectedFault" in bad.error
        assert "run_shard" in bad.error
        assert bad.elapsed > 0  # both attempts, timed in the worker
        assert len(result.ran) == len(STRATEGIES) - 1

    def test_interrupt_mid_pool_then_resume(self, tmp_path, baseline_manifest):
        root = tmp_path / "interrupt"
        plan = FaultPlan(seed=1, sweep=SweepFaults(crash_shards=(0,)))

        def interrupting_sleep(_seconds):
            raise KeyboardInterrupt

        runner = SweepRunner(
            make_spec(), root, fault_plan=plan, sleep=interrupting_sleep,
            max_workers=2,
        )
        # The crash forces a retry wave; the operator hits Ctrl-C during
        # the backoff.  The interrupt propagates instead of quarantining.
        with pytest.raises(KeyboardInterrupt):
            runner.run(parallel=True)
        store = ArtifactStore(root)
        committed = store.list_shards()
        assert 0 < len(committed) < len(STRATEGIES)
        # Resume without the plan: committed shards are skipped and the
        # store converges to the fault-free manifest.
        resumed_runner, resumed = run_sweep(root)
        assert resumed.complete
        assert {o.shard_id for o in resumed.skipped} >= set(committed)
        assert resumed_runner.store.read_manifest() == baseline_manifest

    def test_run_shard_injected_faults_by_attempt(self, tmp_path):
        plan = FaultPlan(seed=1, sweep=SweepFaults(crash_shards=(0,)))
        shard = make_spec().expand()[0]
        with pytest.raises(InjectedFault, match="sweep.crash"):
            run_shard(shard, tmp_path, fault_plan=plan, attempt=0, position=0)
        # The crash left a partial artifact dir that does not count as
        # a committed shard.
        assert not ArtifactStore(tmp_path).has_shard(shard.shard_id)
        # Attempt 1 sails through (crashes fire on the first attempt only).
        summary = run_shard(shard, tmp_path, fault_plan=plan, attempt=1, position=0)
        assert summary["status"] == "ran"
        assert ArtifactStore(tmp_path).has_shard(shard.shard_id)


# ----------------------------------------------------------------------
class TestArtifactIntegrity:
    @pytest.fixture()
    def committed(self, tmp_path):
        runner, result = run_sweep(tmp_path)
        assert result.complete
        return ArtifactStore(tmp_path), result.ran[0].shard_id

    def test_checksums_recorded(self, committed):
        store, shard_id = committed
        payload = json.loads((store.shard_dir(shard_id) / "shard.json").read_text())
        assert "series.npz" in payload["checksums"]

    def test_tampered_series_detected_and_repaired(self, committed):
        store, shard_id = committed
        series = store.shard_dir(shard_id) / "series.npz"
        series.write_bytes(series.read_bytes()[:-7] + b"garbage")
        # Resume treats corrupt-as-absent; explicit loads are loud.
        assert not store.has_shard(shard_id)
        with pytest.raises(ArtifactCorrupt, match="series.npz"):
            store.load_shard(shard_id)
        runner, result = run_sweep(store.root)
        assert result.complete
        assert shard_id in {o.shard_id for o in result.ran}
        assert store.has_shard(shard_id)

    def test_stores_without_checksums_still_load(self, committed):
        store, shard_id = committed
        shard_json = store.shard_dir(shard_id) / "shard.json"
        payload = json.loads(shard_json.read_text())
        del payload["checksums"]
        shard_json.write_text(json.dumps(payload))
        assert store.has_shard(shard_id)
        store.load_shard(shard_id)

    def test_atomic_json_write_failure_keeps_old_file(self, tmp_path):
        from repro.utils.serialization import load_json, save_json

        path = tmp_path / "state.json"
        save_json(path, {"v": 1})
        with pytest.raises(TypeError):
            save_json(path, {"v": object()})  # not JSON-encodable
        assert load_json(path) == {"v": 1}
        # No tmp litter either way.
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]


# ----------------------------------------------------------------------
def make_resilient_service(panel, faults=None, resilience=ServingResilience(),
                           sessions=("a", "b")):
    service = PortfolioService(resilience=resilience, faults=faults)
    service.register_market("m", panel)
    for sid in sessions:
        service.create_session(sid, strategy="ucrp", market="m")
    return service


SMALL_SDP = dict(
    hidden_sizes=(8, 8), timesteps=3, encoder_pop_size=2, decoder_pop_size=2
)


class _TearOne(FaultInjector):
    """An injector whose checkpoint seam fires for the one file whose
    relative path matches ``target`` (a glob pattern)."""

    def __init__(self, target):
        super().__init__(
            FaultPlan(serving=ServingFaults(checkpoint_corrupt_rate=1.0))
        )
        self.target = target
        self.torn = []

    def fires(self, site, key, rate):
        if site == "serving.checkpoint" and fnmatch.fnmatch(key, self.target):
            self.torn.append(key)
            return True
        return False


class TestServingChaos:
    def test_healthy_resilient_service_bit_identical(self, panel):
        plain = make_resilient_service(panel, resilience=None)
        hard = make_resilient_service(panel)
        reqs = [RebalanceRequest("a"), RebalanceRequest("b")]
        for _ in range(5):
            for x, y in zip(plain.rebalance_many(reqs), hard.rebalance_many(reqs)):
                assert x.to_json_dict() == y.to_json_dict()
                assert "degraded" not in x.to_json_dict()

    def test_forward_faults_degrade_and_hold_weights(self, panel):
        plan = FaultPlan(seed=1, serving=ServingFaults(forward_error_rate=1.0))
        service = make_resilient_service(panel, faults=plan)
        reqs = [RebalanceRequest("a"), RebalanceRequest("b")]
        responses = []
        for _ in range(6):
            responses.extend(service.rebalance_many(reqs))
        assert all(r.degraded for r in responses)
        assert all(r.to_json_dict()["degraded"] is True for r in responses)
        # Held weights: every degraded response repeats the previous w.
        for sid in ("a", "b"):
            mine = [r for r in responses if r.session_id == sid]
            assert [r.t for r in mine] == sorted(r.t for r in mine)  # t advances
            for r in mine[1:]:
                assert np.array_equal(r.weights, mine[0].weights)
        assert service.stats.degraded_responses == len(responses)
        assert service.stats.breaker_trips == 2  # one per session

    def test_plain_value_error_in_a_strategy_degrades(self, panel):
        """Once a batch resolves, any exception a strategy raises is its
        failure — a plain ``ValueError`` too: its session degrades while
        a healthy neighbour commits, and nothing propagates."""
        reg = StrategyRegistry()
        reg.register("ucrp", UCRP)

        @reg.register("picky")
        class Picky(Agent):
            stateless = True

            def act(self, data, t, w_prev):
                raise ValueError("no decision here")

        service = PortfolioService(registry=reg, resilience=ServingResilience())
        service.register_market("m", panel)
        service.create_session("a", strategy="ucrp", market="m")
        held = service.create_session("p", strategy="picky", market="m")
        a, p = service.rebalance_many([RebalanceRequest("a"), RebalanceRequest("p")])
        assert not a.degraded
        assert p.degraded and p.t == held.next_t
        np.testing.assert_array_equal(p.weights, service._sessions["p"].w_prev)
        assert service.stats.degraded_responses == 1
        assert service._sessions["p"].breaker_failures == 1
        assert service.describe_session("p").decisions == 1

    def test_breaker_reopens_on_half_open_failure(self, panel):
        plan = FaultPlan(seed=1, serving=ServingFaults(forward_error_rate=1.0))
        service = make_resilient_service(
            panel, faults=plan,
            resilience=ServingResilience(failure_threshold=2, cooldown_decisions=1),
            sessions=("a",),
        )
        req = [RebalanceRequest("a")]
        trips = []
        for _ in range(8):
            service.rebalance_many(req)
            trips.append(service.stats.breaker_trips)
        # Trip, one-decision cooldown, half-open probe fails, re-trip:
        # the trip counter keeps climbing instead of sticking at 1.
        assert trips[-1] > trips[1] >= 1

    def test_mixed_faults_replay_identically(self, panel):
        plan = FaultPlan(seed=4, serving=ServingFaults(forward_error_rate=0.35))

        def run():
            service = make_resilient_service(panel, faults=plan)
            reqs = [RebalanceRequest("a"), RebalanceRequest("b")]
            flags = []
            for _ in range(30):
                flags.extend(r.degraded for r in service.rebalance_many(reqs))
            return flags

        first, second = run(), run()
        assert first == second
        assert any(first) and not all(first)

    def test_slow_session_stalls_via_injected_sleeper(self, panel):
        stalls = []
        plan = FaultPlan(
            seed=2, serving=ServingFaults(slow_rate=1.0, slow_seconds=9.0)
        )
        injector = FaultInjector(plan, sleep=stalls.append)
        service = make_resilient_service(panel, faults=injector, sessions=("a",))
        service.rebalance_many([RebalanceRequest("a")])
        assert stalls == [9.0]

    def test_corrupt_checkpoint_raises_structured_error(self, panel, tmp_path):
        plan = FaultPlan(seed=5, serving=ServingFaults(checkpoint_corrupt_rate=1.0))
        service = make_resilient_service(panel, faults=plan)
        path = service.save_checkpoint(tmp_path / "ckpt")
        with pytest.raises(CheckpointCorrupt) as info:
            PortfolioService.load_checkpoint(path)
        assert "corrupt" in str(info.value)
        assert any(
            name in str(info.value)
            for name in ("checkpoint.json", "state.json", "weights.npz", ".npz")
        )

    @pytest.mark.parametrize(
        "target",
        ["checkpoint.json", "sessions/a/state.json", "agents/*.npz"],
    )
    def test_torn_store_file_named_in_error(self, panel, tmp_path, target):
        # The seam walks the whole checkpoint tree, keyed on each
        # file's relative path; tearing any one file (the agent file's
        # name is its content digest) must surface as CheckpointCorrupt
        # naming exactly that file.
        injector = _TearOne(target)
        service = PortfolioService(faults=injector)
        service.register_market("m", panel)
        service.create_session("a", "sdp", params=SMALL_SDP, market="m")
        service.rebalance("a")
        path = service.save_checkpoint(tmp_path / "ckpt")
        (torn,) = injector.torn
        assert fnmatch.fnmatch(torn, target)
        with pytest.raises(CheckpointCorrupt, match="corrupt") as info:
            PortfolioService.load_checkpoint(path)
        assert str(path / torn) in str(info.value)

    def test_clean_checkpoint_round_trips(self, panel, tmp_path):
        service = make_resilient_service(panel)
        service.rebalance_many([RebalanceRequest("a"), RebalanceRequest("b")])
        path = service.save_checkpoint(tmp_path / "ckpt")
        restored = PortfolioService.load_checkpoint(path)
        a = service.rebalance_many([RebalanceRequest("a")])[0]
        b = restored.rebalance_many([RebalanceRequest("a")])[0]
        assert a.t == b.t and np.array_equal(a.weights, b.weights)

    def test_missing_checkpoint_still_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            PortfolioService.load_checkpoint(tmp_path / "nope")

    def test_listed_but_missing_session_is_corrupt(self, panel, tmp_path):
        path = make_resilient_service(panel).save_checkpoint(tmp_path / "ckpt")
        shutil.rmtree(path / "sessions" / "b")
        with pytest.raises(CheckpointCorrupt, match="session 'b'"):
            PortfolioService.load_checkpoint(path)


class TestNoPlanParity:
    """An empty plan over healthy inputs, end to end at the dispatch
    gate's scale: a month of 2-hour candles, eight ``ucrp`` sessions for
    ten rounds."""

    SPAN = ("2019/01/01", "2019/02/01", 7200)

    @pytest.fixture(scope="class")
    def month(self):
        return MarketGenerator(seed=321).generate(*self.SPAN).select_assets(
            list(range(4))
        )

    def test_backtest_on_armed_panel_unchanged(self, month):
        armed = (
            MarketGenerator(seed=321)
            .generate(*self.SPAN, faults=FaultPlan(seed=0), repair=None)
            .select_assets(list(range(4)))
        )
        for f in ("timestamps", "open", "high", "low", "close", "volume"):
            assert np.array_equal(getattr(month, f), getattr(armed, f))
        engine = Backtester(
            observation=ObservationConfig(
                window=6, stride=1, momentum_horizons=(1, 3, 6)
            )
        )
        plain = engine.run(DEFAULT_REGISTRY.create("ucrp"), month)
        hardened = engine.run(DEFAULT_REGISTRY.create("ucrp"), armed)
        assert np.array_equal(plain.values, hardened.values)
        assert np.array_equal(plain.weights, hardened.weights)

    def test_sweep_manifest_unchanged(self, tmp_path):
        spec = ExperimentSpec(
            name="no-plan", profile="quick", experiments=(1,),
            strategies=("ucrp",), seeds=(0,),
        )
        plain = SweepRunner(spec, tmp_path / "plain")
        plain.run(parallel=False)
        armed = SweepRunner(spec, tmp_path / "armed", fault_plan=FaultPlan(seed=0))
        armed.run(parallel=False)
        assert plain.store.read_manifest() == armed.store.read_manifest()

    def test_serving_rounds_unchanged(self, month):
        sessions = [f"s{i}" for i in range(8)]
        plain = make_resilient_service(month, resilience=None, sessions=sessions)
        hard = make_resilient_service(month, sessions=sessions)
        requests = [RebalanceRequest(sid) for sid in sessions]
        for _ in range(10):
            for a, b in zip(plain.rebalance_many(requests),
                            hard.rebalance_many(requests)):
                assert a.t == b.t and not b.degraded
                assert np.array_equal(a.weights, b.weights)
                assert a.to_json_dict() == b.to_json_dict()


class TestBackpressure:
    def test_queue_full_rejected_at_admission(self, panel):
        service = make_resilient_service(panel, sessions=("a",))
        batcher = MicroBatcher(service, max_queue=1)
        batcher._pending.append((RebalanceRequest("a"), _Slot()))
        with pytest.raises(QueueFull):
            batcher.submit(RebalanceRequest("a"))
        assert batcher.stats.queue_rejections == 1

    def test_deadline_expires_while_leader_busy(self, panel):
        service = make_resilient_service(panel, sessions=("a",))
        batcher = MicroBatcher(service, request_timeout=0.02)
        # Simulate a flush in progress elsewhere: with the leader flag
        # held, our request is never claimed and must withdraw itself.
        batcher._leader_active = True
        with pytest.raises(DeadlineExceeded):
            batcher.submit(RebalanceRequest("a"))
        assert batcher.stats.deadline_expirations == 1
        assert not batcher._pending  # withdrew its own slot

    def test_bounds_validated(self, panel):
        service = make_resilient_service(panel, sessions=("a",))
        with pytest.raises(ValueError, match="max_queue"):
            MicroBatcher(service, max_queue=0)
        with pytest.raises(ValueError, match="request_timeout"):
            MicroBatcher(service, request_timeout=0.0)


class TestHTTPResilience:
    def test_degraded_round_trip_and_health(self, panel):
        from repro.serving.http import serve

        plan = FaultPlan(seed=1, serving=ServingFaults(forward_error_rate=1.0))
        service = make_resilient_service(panel, faults=plan, sessions=("a",))
        try:
            server = serve(service, port=0, max_wait=0.01)
        except (OSError, PermissionError) as exc:
            pytest.skip(f"cannot bind a local socket here: {exc}")
        base = "http://127.0.0.1:%d" % server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            request = urllib.request.Request(
                base + "/rebalance",
                data=json.dumps({"session_id": "a"}).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            payload = json.loads(urllib.request.urlopen(request).read())
            assert payload["degraded"] is True
            health = json.loads(urllib.request.urlopen(base + "/health").read())
            assert health["status"] == "ok"
            assert health["degraded_responses"] >= 1
            assert health["batcher"]["submitted"] >= 1
        finally:
            server.shutdown()
            server.server_close()


# ----------------------------------------------------------------------
class TestCLI:
    def test_sweep_fault_plan_recovers(self, tmp_path, capsys):
        plan_path = FaultPlan(
            seed=1, sweep=SweepFaults(crash_shards=(0,))
        ).save(tmp_path / "plan.json")
        code = cli_main([
            "sweep", "--store", str(tmp_path / "store"), "--name", "cli-chaos",
            "--profile", "quick", "--strategies", *STRATEGIES, "--seeds", "0",
            "--serial", "--fault-plan", str(plan_path),
            "--retry-base-delay", "0.0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 quarantined" in out

    def test_sweep_quarantine_exit_code(self, tmp_path, capsys):
        plan_path = FaultPlan(
            seed=1, sweep=SweepFaults(broken_shards=(1,))
        ).save(tmp_path / "plan.json")
        code = cli_main([
            "sweep", "--store", str(tmp_path / "store"), "--name", "cli-chaos",
            "--profile", "quick", "--strategies", *STRATEGIES, "--seeds", "0",
            "--serial", "--fault-plan", str(plan_path),
            "--retries", "2", "--retry-base-delay", "0.0",
        ])
        out = capsys.readouterr().out
        assert code == 3  # incomplete sweep, same contract as pending shards
        assert "1 quarantined" in out
        assert "InjectedFault" in out
