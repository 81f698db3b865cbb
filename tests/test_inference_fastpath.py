"""Tests for the graph-free inference fast path.

Covers the ``no_grad`` grad-mode switch, the lazy surrogate in
``spike_function``, bit-exact parity between the fused numpy kernels
and the autograd graph path (both SDP architectures, with and without
activity recording, across checkpoint round-trips), and a slow-marked
perf smoke test asserting the fast path actually is faster.
"""

import time

import numpy as np
import pytest

from repro.agents import SDPAgent, JiangDRLAgent, run_backtest
from repro.autograd import (
    Tensor,
    enable_grad,
    is_grad_enabled,
    no_grad,
    set_grad_enabled,
)
from repro.data import MarketGenerator
from repro.envs import Backtester, ObservationConfig
from repro.snn import (
    LIFTrainTape,
    SDPConfig,
    SDPNetwork,
    SharedSDPConfig,
    SharedSDPNetwork,
    spike_function,
)
from repro.snn.banked import _live_operands, _spiking_step
from repro.snn.layers import SpikingLinear


CFG = ObservationConfig(window=6, stride=1, momentum_horizons=(1, 3, 6))


@pytest.fixture(scope="module")
def panel():
    return MarketGenerator(seed=77).generate(
        "2019/01/01", "2019/02/15", 7200
    ).select_assets([0, 1, 2, 3])


def small_sdp_network(seed=1):
    return SDPNetwork(
        SDPConfig(
            state_dim=6, num_actions=4, hidden_sizes=(16, 16),
            encoder_pop_size=4, decoder_pop_size=4,
        ),
        rng=np.random.default_rng(seed),
    )


def small_shared_network(seed=2):
    return SharedSDPNetwork(
        SharedSDPConfig(
            feature_dim=5, hidden_sizes=(16, 16),
            encoder_pop_size=4, output_pop_size=4,
        ),
        rng=np.random.default_rng(seed),
    )


class TestNoGrad:
    def test_disables_graph_construction(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with no_grad():
            y = (x * 2.0).sum()
            assert not y.requires_grad
            assert y._parents == ()
            assert y._backward is None
        z = (x * 2.0).sum()
        assert z.requires_grad

    def test_restores_on_exception(self):
        assert is_grad_enabled()
        with pytest.raises(RuntimeError, match="boom"):
            with no_grad():
                assert not is_grad_enabled()
                raise RuntimeError("boom")
        assert is_grad_enabled()

    def test_nested_contexts(self):
        with no_grad():
            with enable_grad():
                assert is_grad_enabled()
                x = Tensor(np.ones(2), requires_grad=True)
                assert (x * 3.0).requires_grad
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_set_grad_enabled_returns_previous(self):
        prev = set_grad_enabled(False)
        try:
            assert prev is True
            assert not is_grad_enabled()
        finally:
            set_grad_enabled(prev)
        assert is_grad_enabled()

    def test_decorator_form(self):
        @no_grad()
        def fn():
            return is_grad_enabled()

        assert fn() is False
        assert is_grad_enabled()

    def test_backward_through_no_grad_boundary(self):
        # Graph built outside no_grad still backpropagates normally.
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = x * x
        with no_grad():
            _ = x * 5.0  # graph-free side computation
        y.backward(np.ones(1))
        assert np.allclose(x.grad, [6.0])


class TestSpikeFunctionLazySurrogate:
    def test_surrogate_skipped_without_grad(self):
        calls = []

        def counting_surrogate(v, th):
            calls.append(1)
            return np.ones_like(v)

        v_leaf = Tensor(np.array([0.1, 0.9]))
        spike_function(v_leaf, 0.5, counting_surrogate)
        assert calls == []  # leaf without grad: no pseudo array

        v_grad = Tensor(np.array([0.1, 0.9]), requires_grad=True)
        with no_grad():
            spike_function(v_grad, 0.5, counting_surrogate)
        assert calls == []  # grad disabled: no pseudo array

        out = spike_function(v_grad, 0.5, counting_surrogate)
        assert calls == [1]  # grad path computes it
        assert out.requires_grad

    def test_forward_values_unchanged(self):
        v = Tensor(np.array([0.2, 0.6, 0.5]))
        out = spike_function(v, 0.5)
        assert np.array_equal(out.data, [0.0, 1.0, 0.0])


class TestFusedKernelParity:
    def test_lif_step_inference_matches_graph(self):
        # The inference layer step: the S = 1 banked drive off the live
        # parameters, then lif_step_train on a one-slice (non-recording)
        # tape.
        rng = np.random.default_rng(3)
        layer = SpikingLinear(8, 8, rng=rng)
        (operands,) = _live_operands([layer])
        inf = LIFTrainTape.zeros(0, (4, 8))
        inf.begin()
        layer.reset(4)
        spikes_in = (rng.random((4, 8)) > 0.5).astype(np.float64)
        for t in range(1, 7):
            graph_out = layer.step(Tensor(spikes_in))
            fused_out = _spiking_step(spikes_in, operands, inf, t)
            assert np.array_equal(graph_out.data, fused_out)
            assert np.array_equal(layer.state.current.data, inf.current)
            assert np.array_equal(layer.state.voltage.data, inf.voltage)
            spikes_in = graph_out.data

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sdp_network_bit_identical(self, seed):
        net = small_sdp_network(seed)
        states = np.random.default_rng(seed + 10).uniform(-1, 1, (9, 6))
        graph = net.forward(states).data
        fused = net.forward_inference(states)
        assert np.array_equal(graph, fused)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shared_network_bit_identical(self, seed):
        net = small_shared_network(seed)
        feats = np.random.default_rng(seed + 20).uniform(-1, 1, (5, 4, 5))
        graph = net.forward(feats).data
        fused = net.forward_inference(feats)
        assert np.array_equal(graph, fused)

    @pytest.mark.parametrize("timesteps", [None, 1, 3, 8])
    @pytest.mark.parametrize("architecture", ["shared", "monolithic"])
    def test_activity_records_identical(self, panel, architecture, timesteps):
        if architecture == "monolithic":
            net = small_sdp_network()
            inputs = np.random.default_rng(4).uniform(-1, 1, (3, 6))
        else:
            net = small_shared_network()
            inputs = np.random.default_rng(5).uniform(-1, 1, (3, 4, 5))
        _, graph_act = net.forward_with_activity(inputs, timesteps)
        _, fused_act = net.forward_inference_with_activity(inputs, timesteps)
        assert graph_act == fused_act

        # The same through the Loihi accounting entry point.
        agent = SDPAgent(
            4, observation=CFG, architecture=architecture,
            hidden_sizes=(16, 16), encoder_pop_size=4, decoder_pop_size=4,
            seed=7,
        )
        act = agent.inference_activity(panel, 12, np.full(5, 0.2), timesteps)
        states = agent.prepare_states(
            panel, np.array([12]), np.full((1, 5), 0.2)
        )
        _, graph_act = agent.network.forward_with_activity(states, timesteps)
        assert act == graph_act

    def test_fused_forward_is_stateless_across_calls(self):
        net = small_shared_network()
        feats = np.random.default_rng(6).uniform(-1, 1, (2, 4, 5))
        first = net.forward_inference(feats)
        second = net.forward_inference(feats)
        assert np.array_equal(first, second)

    def test_timesteps_override(self):
        net = small_sdp_network()
        states = np.random.default_rng(7).uniform(-1, 1, (2, 6))
        for t in (1, 3, 8):
            assert np.array_equal(
                net.forward(states, timesteps=t).data,
                net.forward_inference(states, timesteps=t),
            )

    def test_parity_survives_checkpoint_roundtrip(self):
        net = small_shared_network(seed=9)
        clone = small_shared_network(seed=31)  # different init
        clone.load_state_dict(net.state_dict())
        feats = np.random.default_rng(8).uniform(-1, 1, (3, 4, 5))
        assert np.array_equal(
            net.forward(feats).data, clone.forward_inference(feats)
        )


class TestAgentRouting:
    @pytest.mark.parametrize("architecture", ["shared", "monolithic"])
    def test_decide_batch_matches_graph_forward(self, panel, architecture):
        agent = SDPAgent(
            4, observation=CFG, architecture=architecture,
            hidden_sizes=(16, 16), encoder_pop_size=4, decoder_pop_size=4,
            seed=5,
        )
        idx = np.arange(10, 20)
        w_prev = np.zeros((10, 5))
        w_prev[:, 0] = 1.0
        states = agent.prepare_states(panel, idx, w_prev)
        fused = agent.decide_batch(states)
        graph = agent.network.forward(states).data
        assert np.array_equal(fused, graph)

    def test_jiang_decide_batch_builds_no_graph(self, panel):
        agent = JiangDRLAgent(4, observation=CFG, seed=5)
        idx = np.arange(10, 14)
        w_prev = np.full((4, 5), 0.2)
        states = agent.prepare_states(panel, idx, w_prev)
        fused = agent.decide_batch(states)
        with_graph = agent.network(
            Tensor(states["prices"]), Tensor(states["w_prev"][:, 1:])
        )
        assert with_graph.requires_grad  # outside no_grad the graph exists
        assert np.array_equal(fused, with_graph.data)

    def test_backtest_matches_graph_path_backtest(self, panel):
        agent = SDPAgent(
            4, observation=CFG, hidden_sizes=(16, 16),
            encoder_pop_size=4, decoder_pop_size=4, seed=6,
        )
        fused_result = run_backtest(agent, panel, observation=CFG)

        # Force the seed's graph path for every decision.
        agent.decide_batch = lambda s: agent.network.forward(s).data
        graph_result = run_backtest(agent, panel, observation=CFG)
        assert np.array_equal(fused_result.weights, graph_result.weights)
        assert np.array_equal(fused_result.values, graph_result.values)

    def test_graph_fused_and_lockstep_backtests_agree_at_bench_scale(
        self, bench_panels, bench_sdp_params, bench_backtests
    ):
        """The (128, 128) agent over four panels: per-panel graph-path
        back-tests, per-panel fused back-tests and one lockstep
        ``run_many`` give the same weights, bit for bit."""
        agent = SDPAgent(4, **bench_sdp_params)
        engine = Backtester(observation=bench_sdp_params["observation"])
        fused = [engine.run(agent, p) for p in bench_panels]

        def graph_decide(states):
            with enable_grad():
                return agent.network.forward(states).data

        agent.decide_batch = graph_decide
        graph = [engine.run(agent, p) for p in bench_panels]
        for g, f, lockstep in zip(graph, fused, bench_backtests):
            assert np.array_equal(g.weights, f.weights)
            assert np.array_equal(g.weights, lockstep.weights)
            assert np.array_equal(g.values, lockstep.values)

    def test_inference_activity_unchanged(self, panel):
        agent = SDPAgent(
            4, observation=CFG, hidden_sizes=(16, 16),
            encoder_pop_size=4, decoder_pop_size=4, seed=7,
        )
        act = agent.inference_activity(panel, 12, np.full(5, 0.2))
        states = agent.prepare_states(
            panel, np.array([12]), np.full((1, 5), 0.2)
        )
        _, graph_act = agent.network.forward_with_activity(states)
        assert act == graph_act


@pytest.mark.slow
class TestPerfSmoke:
    def test_fused_beats_graph_on_fixed_workload(self):
        """The fast path must outrun the graph path on a fixed batch."""
        net = SharedSDPNetwork(
            SharedSDPConfig(feature_dim=8),  # paper-sized (128, 128), T=5
            rng=np.random.default_rng(11),
        )
        feats = np.random.default_rng(12).uniform(-1, 1, (32, 4, 8))
        # Warm up both paths, then take best-of-5.
        net.forward(feats)
        net.forward_inference(feats)

        def best_of(fn, repeats=5):
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            return min(times)

        graph_t = best_of(lambda: net.forward(feats))
        fused_t = best_of(lambda: net.forward_inference(feats))
        assert np.array_equal(net.forward(feats).data, net.forward_inference(feats))
        assert fused_t < graph_t, (
            f"fused path ({fused_t * 1e3:.2f} ms) not faster than "
            f"graph path ({graph_t * 1e3:.2f} ms)"
        )
