"""Unit tests for the experiment harness (configs, runner, tables)."""

import numpy as np
import pytest

from repro.agents import run_backtest
from repro.baselines import table3_baselines
from repro.experiments import (
    PAPER_HYPERPARAMETERS,
    PAPER_TABLE3,
    PAPER_TABLE4,
    available_profiles,
    build_experiment_data,
    make_config,
    make_trainer,
    render_table3,
    render_table4,
    run_experiment,
    run_power_comparison,
    summarize_shape_check,
)
from repro.registry import strategy_from_config


class TestConfig:
    def test_profiles_exist(self):
        assert set(available_profiles()) == {"paper", "quick", "standard"}

    def test_paper_profile_matches_table2(self):
        cfg = make_config(1, profile="paper")
        assert cfg.hidden_sizes == (128, 128)
        assert cfg.batch_size == 128
        assert cfg.learning_rate == pytest.approx(1e-5)
        assert cfg.timesteps == 5
        assert cfg.lif.v_threshold == 0.5
        assert cfg.lif.current_decay == 0.5
        assert cfg.lif.voltage_decay == 0.80
        assert cfg.surrogate_amplifier == 9.0
        assert cfg.surrogate_window == 0.4
        assert cfg.period_seconds == 1800  # 30-minute candles
        assert cfg.num_assets == 11

    def test_overrides(self):
        cfg = make_config(2, profile="quick", train_steps=7)
        assert cfg.train_steps == 7
        assert cfg.experiment == 2

    def test_unknown_profile(self):
        with pytest.raises(KeyError):
            make_config(1, profile="warp")

    def test_table2_registry(self):
        assert PAPER_HYPERPARAMETERS["surrogate_amplifier"] == 9.0
        assert PAPER_HYPERPARAMETERS["hidden_sizes"] == (128, 128)


class TestPaperValues:
    def test_table3_complete(self):
        for exp in (1, 2, 3):
            block = PAPER_TABLE3[exp]
            assert set(block) == {
                "SDP", "DRL[Jiang]", "ONS", "Best Stock", "ANTICOR", "M0", "UCRP"
            }
            for mdd, fapv, sharpe in block.values():
                assert 0 <= mdd < 1
                assert fapv > 0

    def test_table4_complete(self):
        for exp in (1, 2, 3):
            assert set(PAPER_TABLE4[exp]) == {"DRL/CPU", "DRL/GPU", "SDP/Loihi"}

    def test_headline_ratios_derivable(self):
        # 186x / 516x headline comes from experiment 2's nJ/Inf column.
        block = PAPER_TABLE4[2]
        cpu_ratio = block["DRL/CPU"][3] / block["SDP/Loihi"][3]
        gpu_ratio = block["DRL/GPU"][3] / block["SDP/Loihi"][3]
        assert cpu_ratio == pytest.approx(186, abs=2)
        assert gpu_ratio == pytest.approx(516, abs=2)


class TestDataPipeline:
    def test_build_experiment_data(self):
        cfg = make_config(1, profile="quick")
        data = build_experiment_data(cfg)
        assert len(data.assets) == cfg.num_assets
        assert data.train.names == data.assets
        # Back-test overlaps training by exactly one anchor period.
        assert data.test.timestamps[0] == data.train.timestamps[-1]


def frozen_run_experiment(config):
    """The body ``run_experiment`` had before it became the sweep's
    one-seed front, kept as the parity reference: train SDP and
    DRL[Jiang] on one panel, then back-test the seven Table 3
    strategies one after another."""
    data = build_experiment_data(config)
    agents, histories = {}, {}
    for name in ("sdp", "jiang"):
        agent = strategy_from_config(name, config, n_assets=len(data.assets))
        histories[name] = make_trainer(agent, data.train, config).train()
        agents[name] = agent
    backtests = {
        agent.name: run_backtest(
            agent,
            data.test,
            observation=config.observation,
            commission=config.commission,
        )
        for agent in [agents["sdp"], agents["jiang"], *table3_baselines()]
    }
    return data, agents, histories, backtests


@pytest.fixture(scope="module")
def tiny_result():
    cfg = make_config(1, profile="quick", train_steps=8)
    return run_experiment(cfg)


class TestRunner:
    def test_all_strategies_present(self, tiny_result):
        names = set(tiny_result.backtests)
        assert {"SDP", "DRL[Jiang]", "ONS", "Best Stock", "ANTICOR", "M0",
                "UCRP"} <= names

    def test_rows_ordered_like_paper(self, tiny_result):
        rows = tiny_result.table3_rows()
        assert rows[0][0] == "SDP"
        assert rows[1][0] == "DRL[Jiang]"

    def test_metrics_finite(self, tiny_result):
        for name, r in tiny_result.backtests.items():
            assert np.isfinite(r.fapv), name
            assert 0 <= r.mdd < 1, name

    def test_render_table3(self, tiny_result):
        text = render_table3(tiny_result)
        assert "Table 3" in text
        assert "SDP" in text and "fAPV(paper)" in text

    def test_shape_check_lines(self, tiny_result):
        lines = summarize_shape_check(tiny_result)
        assert lines
        assert all(l.startswith("[") for l in lines)


class TestRunFront:
    """``run_experiment`` is the sweep's one-seed front; its result must
    equal the serial body it replaced, bit for bit."""

    def test_front_matches_frozen_run_experiment(self, tiny_result):
        result = tiny_result
        data, agents, histories, backtests = frozen_run_experiment(
            result.config
        )
        assert list(result.backtests) == list(backtests)
        for name, expected in backtests.items():
            got = result.backtests[name]
            assert got.agent_name == expected.agent_name
            for series in ("values", "weights", "rewards", "mus"):
                assert np.array_equal(
                    getattr(got, series), getattr(expected, series)
                ), (name, series)
            assert got.metrics == expected.metrics, name
        for name, agent in (
            ("sdp", result.sdp_agent), ("jiang", result.drl_agent)
        ):
            expected = agents[name].network.state_dict()
            state = agent.network.state_dict()
            assert state.keys() == expected.keys()
            for key, value in expected.items():
                assert np.array_equal(state[key], value), (name, key)
        assert result.sdp_history == histories["sdp"]
        assert result.drl_history == histories["jiang"]
        assert result.assets == data.assets
        assert np.array_equal(result.test_data.close, data.test.close)


class TestPower:
    def test_power_comparison(self, tiny_result):
        pc = run_power_comparison(tiny_result, num_states=8)
        assert pc.sdp_loihi.energy_per_inference_j > 0
        assert pc.cpu_reduction > 1
        assert pc.gpu_reduction > 1
        rows = pc.rows()
        assert len(rows) == 3
        text = render_table4(pc)
        assert "Table 4" in text and "Loihi" in text
