"""End-to-end integration tests: the full paper pipeline at tiny scale."""

import numpy as np
import pytest

from repro.agents import run_backtest
from repro.baselines import table3_baselines
from repro.experiments import (
    build_experiment_data,
    make_config,
    run_experiment,
    run_power_comparison,
    train_sdp_agent,
)
from repro.loihi import deploy


@pytest.fixture(scope="module")
def experiment_result():
    cfg = make_config(2, profile="quick", train_steps=25)
    return run_experiment(cfg)


class TestFullPipeline:
    def test_every_strategy_backtests(self, experiment_result):
        assert len(experiment_result.backtests) == 7
        for name, r in experiment_result.backtests.items():
            assert r.values[0] == 1.0, name
            assert np.all(r.values > 0), name
            assert np.allclose(r.weights.sum(axis=1), 1.0), name

    def test_training_histories_recorded(self, experiment_result):
        assert experiment_result.sdp_history.steps
        assert experiment_result.drl_history.steps

    def test_backtests_deterministic(self):
        cfg = make_config(2, profile="quick", train_steps=10)
        a = run_experiment(cfg, include_baselines=False)
        b = run_experiment(cfg, include_baselines=False)
        assert a.backtests["SDP"].fapv == pytest.approx(
            b.backtests["SDP"].fapv
        )
        assert a.backtests["DRL[Jiang]"].fapv == pytest.approx(
            b.backtests["DRL[Jiang]"].fapv
        )

    def test_power_pipeline(self, experiment_result):
        pc = run_power_comparison(experiment_result, num_states=6)
        assert pc.sdp_loihi.energy_per_inference_j > 0
        assert pc.cpu_reduction > 1.0


class TestTrainDeployConsistency:
    def test_chip_backtest_tracks_float(self):
        """Deploy the trained SDP and back-test *on the chip simulator*:
        the quantised policy's trajectory must track the float policy."""
        cfg = make_config(1, profile="quick", train_steps=30)
        data = build_experiment_data(cfg)
        agent, _ = train_sdp_agent(cfg, data)
        deployment = deploy(agent.network)

        test = data.test
        first = cfg.observation.first_decision_index()
        idx = np.arange(first, min(first + 40, test.n_periods - 1))
        uniform = np.full((idx.size, test.n_assets + 1), 1.0 / (test.n_assets + 1))
        states = agent.prepare_states(test, idx, uniform)

        float_actions = agent.network.forward(states).data
        chip_actions, activity = deployment.run(states)
        agree = (
            np.argmax(chip_actions, 1) == np.argmax(float_actions, 1)
        ).mean()
        assert agree >= 0.7
        assert activity.to_activity_record().total_synops > 0

    def test_baselines_share_env_with_agents(self):
        """All strategies run through one environment implementation."""
        cfg = make_config(3, profile="quick", train_steps=10)
        data = build_experiment_data(cfg)
        for agent in table3_baselines():
            r = run_backtest(agent, data.test, observation=cfg.observation)
            assert r.metrics.num_periods == len(r.weights)
