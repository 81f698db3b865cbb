"""Unit tests for the fixed-point core simulator and the energy models."""

import numpy as np
import pytest

from repro.loihi import (
    AgreementReport,
    LoihiCoreSimulator,
    LoihiDeviceModel,
    deploy,
    energy_reduction_ratio,
    paper_cpu_model,
    paper_gpu_model,
    paper_loihi_model,
    quantize_network,
)
from repro.snn import SDPConfig, SDPNetwork


@pytest.fixture(scope="module")
def network():
    cfg = SDPConfig(
        state_dim=6, num_actions=4, hidden_sizes=(24, 24), timesteps=5,
        encoder_pop_size=6, decoder_pop_size=6,
    )
    return SDPNetwork(cfg, rng=np.random.default_rng(7))


@pytest.fixture(scope="module")
def states():
    return np.random.default_rng(8).uniform(-1, 1, (32, 6))


class TestCoreSimulator:
    def test_actions_on_simplex(self, network, states):
        dep = deploy(network)
        actions, activity = dep.run(states)
        assert actions.shape == (32, 4)
        assert np.allclose(actions.sum(axis=1), 1.0)
        assert np.all(actions >= 0)
        assert activity.batch_size == 32

    def test_deterministic(self, network, states):
        dep = deploy(network)
        a1, _ = dep.run(states)
        a2, _ = dep.run(states)
        assert np.array_equal(a1, a2)

    def test_agreement_with_float(self, network, states):
        # Quantisation fidelity (Fig. 2): chip actions track float ones.
        dep = deploy(network)
        report = dep.agreement(states)
        assert report.argmax_agreement >= 0.8
        assert report.mean_l1_action_error < 0.2
        # The float reference equals the graph oracle's actions.
        chip, _ = dep.run(states)
        graph = network.forward(states).data
        l1 = np.abs(chip - graph).sum(axis=1)
        assert report == AgreementReport(
            mean_l1_action_error=float(l1.mean()),
            max_l1_action_error=float(l1.max()),
            argmax_agreement=float(
                (np.argmax(chip, axis=1) == np.argmax(graph, axis=1)).mean()
            ),
            num_states=len(states),
        )

    def test_encoder_mismatch_rejected(self, network):
        q = quantize_network(network)
        other_cfg = SDPConfig(
            state_dim=3, num_actions=4, hidden_sizes=(24, 24),
            encoder_pop_size=6, decoder_pop_size=6,
        )
        other = SDPNetwork(other_cfg, rng=np.random.default_rng(1))
        with pytest.raises(ValueError):
            LoihiCoreSimulator(q, other.encoder)

    def test_single_state_act(self, network):
        dep = deploy(network)
        a = dep.act(np.zeros(6))
        assert a.shape == (4,)
        assert a.sum() == pytest.approx(1.0)


class TestEnergyModels:
    def test_loihi_report_fields(self, network, states):
        dep = deploy(network)
        rep = dep.profile(states)
        assert rep.idle_power_w == pytest.approx(1.01)
        assert rep.energy_per_inference_j > 0
        assert rep.inferences_per_s > 0

    def test_energy_scales_with_timesteps(self, network, states):
        dep = deploy(network)
        e5 = dep.profile(states, timesteps=5).energy_per_inference_j
        e20 = dep.profile(states, timesteps=20).energy_per_inference_j
        # More timesteps -> more events -> more energy (§III.B trade-off).
        assert e20 > e5

    def test_von_neumann_energy(self):
        cpu = paper_cpu_model(1)
        rep = cpu.report(macs=100_000)
        expected = cpu.dynamic_power_w * (100_000 / cpu.effective_macs_per_s)
        assert rep.energy_per_inference_j == pytest.approx(expected)

    def test_throughput_matches_paper(self):
        # Overhead is calibrated to Table 4's measured inf/s.
        assert paper_cpu_model(1).report(10_000).inferences_per_s == pytest.approx(
            2.09, rel=0.05
        )
        assert paper_gpu_model(2).report(10_000).inferences_per_s == pytest.approx(
            1.09, rel=0.05
        )

    def test_loihi_dominates_energy(self, network, states):
        # The headline claim: orders of magnitude energy reduction.
        dep = deploy(network, device=paper_loihi_model(1))
        loihi = dep.profile(states)
        cpu = paper_cpu_model(1).report(macs=50_000)
        gpu = paper_gpu_model(1).report(macs=50_000)
        assert energy_reduction_ratio(cpu, loihi) > 10
        assert energy_reduction_ratio(gpu, loihi) > 10

    def test_reduction_ratio_validation(self):
        from repro.loihi import EnergyReport

        cpu = paper_cpu_model(1).report(macs=1000)
        zero = EnergyReport("z", 1.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            energy_reduction_ratio(cpu, zero)

    def test_device_model_validation(self):
        with pytest.raises(ValueError):
            from repro.loihi import VonNeumannDeviceModel

            VonNeumannDeviceModel("x", 1.0, 1.0, 0.0, 0.1)


class TestDeployment:
    def test_placement_attached(self, network):
        dep = deploy(network)
        assert dep.placement.fits()

    def test_nj_per_inference_unit(self, network, states):
        rep = deploy(network).profile(states)
        assert rep.nj_per_inference == pytest.approx(
            rep.energy_per_inference_j * 1e9
        )
