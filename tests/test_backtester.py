"""Unit tests for the Backtester engine and the batched Strategy protocol."""

import time

import numpy as np
import pytest

from repro.agents import Agent, SDPAgent, JiangDRLAgent, concat_states, run_backtest
from repro.baselines import Anticor, UCRP
from repro.data import MarketGenerator
from repro.envs import Backtester, ObservationConfig


@pytest.fixture(scope="module")
def panel():
    return MarketGenerator(seed=31).generate(
        "2019/01/01", "2019/03/01", 7200
    ).select_assets([0, 1, 2, 3])


@pytest.fixture(scope="module")
def panel2():
    return MarketGenerator(seed=37).generate(
        "2019/01/01", "2019/02/20", 7200
    ).select_assets([0, 1, 2, 3])


CFG = ObservationConfig(window=6, stride=1, momentum_horizons=(1, 3, 6))


def small_sdp():
    return SDPAgent(
        4, observation=CFG, hidden_sizes=(16, 16),
        encoder_pop_size=4, decoder_pop_size=4, seed=3,
    )


class TestRun:
    def test_matches_run_backtest(self, panel):
        agent = small_sdp()
        engine = Backtester(observation=CFG, commission=0.0025)
        a = engine.run(agent, panel)
        b = run_backtest(agent, panel, observation=CFG, commission=0.0025)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.values, b.values)
        assert a.metrics.fapv == b.metrics.fapv

    def test_classical_agent(self, panel):
        engine = Backtester(observation=CFG)
        result = engine.run(UCRP(), panel)
        assert result.agent_name == "UCRP"
        assert np.allclose(result.weights.sum(axis=1), 1.0)


class TestRunMany:
    def test_lockstep_matches_sequential_sdp(self, panel, panel2):
        agent = small_sdp()
        engine = Backtester(observation=CFG, commission=0.0025)
        batched = engine.run_many(agent, [panel, panel2])
        for result, data in zip(batched, (panel, panel2)):
            solo = engine.run(agent, data)
            np.testing.assert_allclose(result.weights, solo.weights, atol=1e-12)
            np.testing.assert_allclose(result.values, solo.values, rtol=1e-10)

    def test_lockstep_matches_sequential_jiang(self, panel, panel2):
        agent = JiangDRLAgent(4, observation=CFG, seed=5)
        engine = Backtester(observation=CFG)
        batched = engine.run_many(agent, [panel, panel2])
        for result, data in zip(batched, (panel, panel2)):
            solo = engine.run(agent, data)
            np.testing.assert_allclose(result.weights, solo.weights, atol=1e-12)

    def test_stateful_agent_falls_back(self, panel, panel2):
        agent = Anticor(window=4)
        assert not agent.stateless
        engine = Backtester(observation=CFG)
        batched = engine.run_many(agent, [panel, panel2])
        for result, data in zip(batched, (panel, panel2)):
            solo = engine.run(agent, data)
            np.testing.assert_allclose(result.weights, solo.weights)


class TestBatchedProtocol:
    def test_decide_batch_matches_act(self, panel):
        agent = small_sdp()
        idx = np.array([10, 12, 17])
        w = np.full((3, 5), 0.2)
        batched = agent.decide_batch(agent.prepare_states(panel, idx, w))
        for row, t in zip(batched, idx):
            np.testing.assert_allclose(
                row, agent.act(panel, int(t), w[0]), atol=1e-12
            )

    def test_default_protocol_loops_act(self, panel):
        agent = UCRP()
        agent.begin_backtest(panel)
        idx = np.array([10, 11])
        w = np.full((2, 5), 0.2)
        states = agent.prepare_states(panel, idx, w)
        batched = agent.decide_batch(states)
        assert batched.shape == (2, 5)
        np.testing.assert_allclose(batched.sum(axis=1), 1.0)

    def test_prepare_states_shape_check(self, panel):
        agent = UCRP()
        with pytest.raises(ValueError, match="w_prev"):
            agent.prepare_states(panel, np.array([10, 11]), np.full(5, 0.2))

    def test_classical_act_requires_begin_backtest(self, panel):
        agent = UCRP()
        with pytest.raises(RuntimeError, match="begin_backtest"):
            agent.act(panel, 10, np.full(5, 0.2))

    def test_batched_inference_faster_than_sequential(self, panel):
        # The acceptance bar: one decide_batch over >= 32 states beats
        # 32 sequential act calls (vectorised SNN forward vs a python
        # loop of single-state forwards).  Best-of-3 per side to keep
        # the comparison robust on noisy CI machines.
        agent = small_sdp()
        idx = np.arange(10, 42)
        w = np.full((idx.size, 5), 0.2)
        states = agent.prepare_states(panel, idx, w)

        def time_best_of(fn, repeats=3):
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                fn()
                best = min(best, time.perf_counter() - start)
            return best

        batched = time_best_of(lambda: agent.decide_batch(states))
        sequential = time_best_of(
            lambda: [agent.act(panel, int(t), w[0]) for t in idx]
        )
        assert batched < sequential, (
            f"batched {batched:.4f}s not faster than sequential {sequential:.4f}s"
        )


class _SoftmaxUser(Agent):
    """A stateless user strategy that keeps the default list container
    (``prepare_states`` / ``prepare_rows`` are inherited)."""

    name = "SoftmaxUser"
    stateless = True

    def act(self, data, t, w_prev):
        z = np.concatenate([[0.0], 30.0 * np.log(data.close[t] / data.close[t - 2])])
        e = np.exp(z + w_prev - z.max())
        return e / e.sum()


ROW_AGENTS = {
    "sdp_shared": small_sdp,
    "sdp_monolithic": lambda: SDPAgent(
        4, observation=CFG, architecture="monolithic", hidden_sizes=(16,),
        encoder_pop_size=4, decoder_pop_size=4, seed=3,
    ),
    "jiang": lambda: JiangDRLAgent(4, observation=CFG, seed=5),
    "user": _SoftmaxUser,
}


def _same_states(a, b):
    assert type(a) is type(b)
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            _same_states(a[key], b[key])
    elif isinstance(a, list):
        assert len(a) == len(b)
        for (da, ta, wa), (db, tb, wb) in zip(a, b):
            assert da is db and ta == tb and np.array_equal(wa, wb)
    else:
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestPrepareRows:
    """``prepare_rows`` over rows from several panels equals one
    ``prepare_states`` per row followed by ``concat_states``."""

    @pytest.fixture(scope="class")
    def panels(self, panel, panel2):
        short = MarketGenerator(seed=41).generate(
            "2019/01/01", "2019/01/09", 7200
        ).select_assets([0, 1, 2, 3])
        lengths = {p.n_periods for p in (panel, panel2, short)}
        assert len(lengths) == 3
        return [panel, panel2, short]

    @staticmethod
    def _rows(panels):
        # Repeated panels, out of order, each index inside its own panel.
        which = np.array([2, 0, 2, 1, 0, 2, 1, 0])
        indices = np.array([
            panels[2].n_periods - 1, 40, 6, panels[1].n_periods - 1,
            panels[0].n_periods - 1, 50, 7, 6,
        ])
        w_prev = np.random.default_rng(7).dirichlet(np.ones(5), size=len(which))
        return which, indices, w_prev

    @pytest.mark.parametrize("kind", ROW_AGENTS)
    def test_matches_per_row_prepare_states(self, panels, kind):
        agent = ROW_AGENTS[kind]()
        which, indices, w_prev = self._rows(panels)
        rows = agent.prepare_rows(panels, which, indices, w_prev)
        per_row = concat_states([
            agent.prepare_states(panels[p], np.array([t]), w[None, :])
            for p, t, w in zip(which, indices, w_prev)
        ])
        _same_states(rows, per_row)
        assert np.array_equal(agent.decide_batch(rows), agent.decide_batch(per_row))

    @pytest.mark.parametrize("kind", ("sdp_shared", "sdp_monolithic", "jiang"))
    def test_out_of_range_rows_raise(self, panels, kind):
        agent = ROW_AGENTS[kind]()
        which, indices, w_prev = self._rows(panels)
        first = CFG.first_decision_index()
        early = indices.copy()
        early[3] = first - 1
        with pytest.raises(IndexError):
            agent.prepare_rows(panels, which, early, w_prev)
        # In range for the longest panel, one past the short row's own end.
        late = indices.copy()
        late[0] = panels[2].n_periods
        assert late[0] < panels[0].n_periods
        with pytest.raises(IndexError):
            agent.prepare_rows(panels, which, late, w_prev)

    @pytest.mark.parametrize("kind", ROW_AGENTS)
    def test_w_prev_shape_mismatch_raises(self, panels, kind):
        agent = ROW_AGENTS[kind]()
        which, indices, w_prev = self._rows(panels)
        bad = w_prev[:-1] if kind == "user" else w_prev[:, 1:]
        with pytest.raises(ValueError, match="w_prev"):
            agent.prepare_rows(panels, which, indices, bad)


class TestConcatStates:
    def test_arrays(self):
        a, b = np.zeros((2, 3)), np.ones((1, 3))
        assert concat_states([a, b]).shape == (3, 3)

    def test_dicts(self):
        a = {"x": np.zeros((2, 3)), "y": np.zeros((2, 1))}
        b = {"x": np.ones((1, 3)), "y": np.ones((1, 1))}
        merged = concat_states([a, b])
        assert merged["x"].shape == (3, 3)
        assert merged["y"].shape == (3, 1)

    def test_lists(self):
        assert concat_states([[1, 2], [3]]) == [1, 2, 3]

    def test_single_part_passthrough(self):
        a = np.zeros((2, 3))
        assert concat_states([a]) is a

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            concat_states([])

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError):
            concat_states([object(), object()])
