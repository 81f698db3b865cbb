"""Unit tests for the execution & slippage subsystem: the model zoo's
closed forms, the engine's fills and zero-cost parity, the back-test /
walk-forward / serving integration, and the ``ExecutionRegime`` sweep
axis (grid expansion, resume, tables, CLI)."""

import numpy as np
import pytest

from repro.__main__ import main as cli_main
from repro.agents import SDPAgent
from repro.data import CoinSpec, MarketGenerator
from repro.envs import Backtester, ObservationConfig
from repro.envs.costs import transaction_remainder_exact
from repro.envs.portfolio import PortfolioEnv
from repro.execution import (
    DepthLimited,
    ExecutionEngine,
    LinearImpact,
    SlippageModel,
    SquareRootImpact,
    ZeroSlippage,
)
from repro.experiments import (
    ArtifactStore,
    ExecutionRegime,
    ExperimentSpec,
    ShardSpec,
    SweepRunner,
    WalkForward,
    ZERO_EXECUTION,
    make_config,
    render_sweep_table,
    run_walkforward,
)
from repro.metrics import implementation_shortfall
from repro.serving import PortfolioService, RebalanceRequest

OBS = ObservationConfig(window=6, stride=1, momentum_horizons=(1, 3, 6))


@pytest.fixture(scope="module")
def panel():
    return (
        MarketGenerator(seed=3)
        .generate("2019/01/01", "2019/02/01", 7200)
        .select_assets([0, 1, 2, 3])
    )


@pytest.fixture(scope="module")
def agent():
    return SDPAgent(
        4,
        observation=OBS,
        hidden_sizes=(16, 16),
        timesteps=3,
        encoder_pop_size=4,
        decoder_pop_size=4,
        seed=0,
    )


# ----------------------------------------------------------------------
class TestModels:
    def test_protocol_conformance(self):
        for model in (
            ZeroSlippage(),
            LinearImpact(5.0),
            SquareRootImpact(2.0),
            DepthLimited(0.1, 1.0),
        ):
            assert isinstance(model, SlippageModel)

    def test_zero_is_free(self):
        assert ZeroSlippage().is_free
        assert LinearImpact(0.0).is_free
        assert not LinearImpact(1.0).is_free
        # Caps alter fills even with no cost, so depth is never free.
        assert not DepthLimited(0.5, 0.0).is_free

    def test_linear_closed_form(self):
        # cost = c · participation, elementwise over (batch, assets).
        p = np.array([[0.0, 0.01, 0.5], [1.0, 0.2, 0.0]])
        np.testing.assert_allclose(
            LinearImpact(0.3).cost_rates(p), 0.3 * p
        )

    def test_sqrt_closed_form(self):
        p = np.array([0.0, 0.04, 0.25, 1.0])
        np.testing.assert_allclose(
            SquareRootImpact(0.5, volatility=2.0).cost_rates(p),
            0.5 * 2.0 * np.array([0.0, 0.2, 0.5, 1.0]),
        )

    def test_depth_cost_saturates_at_cap(self):
        model = DepthLimited(0.1, impact_coefficient=1.0)
        np.testing.assert_allclose(
            model.cost_rates(np.array([0.05, 0.1, 0.7])),
            np.array([0.05, 0.1, 0.1]),
        )
        assert model.participation_cap == 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            LinearImpact(-0.1)
        with pytest.raises(ValueError):
            SquareRootImpact(1.0, volatility=-1.0)
        with pytest.raises(ValueError):
            DepthLimited(0.0)
        with pytest.raises(ValueError):
            ExecutionEngine(portfolio_notional=0.0)


# ----------------------------------------------------------------------
class TestEngine:
    def test_zero_fill_is_exact_commission(self):
        engine = ExecutionEngine(ZeroSlippage(), commission=0.0025)
        w_prime = np.array([0.2, 0.5, 0.3])
        target = np.array([0.1, 0.3, 0.6])
        volume = np.array([100.0, 100.0])
        fill = engine.execute(w_prime, target, 1.0, volume)
        assert fill.weights is target  # no copy, no renormalisation
        assert fill.mu == transaction_remainder_exact(
            w_prime, target, 0.0025, 0.0025
        )
        assert fill.mu == fill.commission_mu == fill.ideal_mu
        assert fill.slippage_cost == 0.0
        assert fill.fill_ratio == 1.0

    def test_linear_fill_hand_computed(self):
        # 1M portfolio trading 10% of an asset with 1M period volume at
        # coefficient 2: participation 0.1, rate 0.2, cost on the 10%
        # trade = 0.02 of portfolio value.
        engine = ExecutionEngine(
            LinearImpact(2.0), commission=0.0, portfolio_notional=1e6
        )
        w_prime = np.array([0.5, 0.5])
        target = np.array([0.4, 0.6])
        fill = engine.execute(w_prime, target, 1.0, np.array([1e6]))
        assert fill.commission_mu == 1.0  # commission-free
        np.testing.assert_allclose(fill.slippage_cost, 0.1 * 2.0 * 0.1)
        np.testing.assert_allclose(fill.mu, 1.0 - 0.02)

    def test_sqrt_fill_hand_computed(self):
        engine = ExecutionEngine(
            SquareRootImpact(0.5), commission=0.0, portfolio_notional=4e5
        )
        # trade 0.25 of a 1e5-volume asset: notional 1e5, participation
        # 1.0, rate 0.5, cost = 0.25 · 0.5 = 0.125.
        fill = engine.execute(
            np.array([1.0, 0.0]),
            np.array([0.75, 0.25]),
            1.0,
            np.array([1e5]),
        )
        np.testing.assert_allclose(fill.slippage_cost, 0.125)
        np.testing.assert_allclose(fill.mu, 0.875)

    def test_depth_partial_fill(self):
        # Cap at 10% of a 1e5-volume asset = 1e4 notional = 1% of the
        # 1e6 portfolio; requesting a 30% buy fills only 1%.
        engine = ExecutionEngine(
            DepthLimited(0.1), commission=0.0, portfolio_notional=1e6
        )
        fill = engine.execute(
            np.array([1.0, 0.0]),
            np.array([0.7, 0.3]),
            1.0,
            np.array([1e5]),
        )
        np.testing.assert_allclose(fill.weights, [0.99, 0.01])
        np.testing.assert_allclose(fill.fill_ratio, 0.01 / 0.3)
        assert fill.ideal_mu == 1.0  # full-fill benchmark, no commission

    def test_depth_buys_limited_by_sale_proceeds(self):
        # Selling asset 1 is capped at 5% of value, so the requested
        # full rotation into asset 2 can only deploy starting cash (0)
        # plus the 5% proceeds — no leverage appears.
        engine = ExecutionEngine(
            DepthLimited(0.05), commission=0.0, portfolio_notional=1e6
        )
        fill = engine.execute(
            np.array([0.0, 1.0, 0.0]),
            np.array([0.0, 0.0, 1.0]),
            1.0,
            np.array([1e6, 1e9]),
        )
        np.testing.assert_allclose(fill.weights, [0.0, 0.95, 0.05])
        assert fill.weights.sum() == pytest.approx(1.0)
        assert fill.weights.min() >= 0.0

    def test_commission_mismatch_rejected(self, panel):
        # A silently different rate inside the engine would desync μ_t
        # from the engine-less run of the same configuration.
        engine = ExecutionEngine(ZeroSlippage(), commission=0.01)
        with pytest.raises(ValueError, match="commission"):
            PortfolioEnv(panel, observation=OBS, execution=engine)
        env = PortfolioEnv(
            panel, observation=OBS, commission=0.01, execution=engine
        )
        assert env.execution is engine

    def test_estimate_fill_ratio_in_trade_space(self):
        # Equal 0.1-weight trades in a liquid and an illiquid asset,
        # cap 0.01: the liquid leg fills fully, the illiquid leg fills
        # 1e4/1e6 = 1% of value → ratio (0.1 + 0.01·1e6/1e6)/0.2.
        engine = ExecutionEngine(
            DepthLimited(0.01), commission=0.0, portfolio_notional=1e6
        )
        est = engine.estimate_batch(
            np.array([[0.2, 0.4, 0.4]]),
            np.array([[0.2, 0.5, 0.3]]),
            np.array([1e3, 1e9]),
        )
        np.testing.assert_allclose(
            est["fill_ratio"], [(0.01 * 1e3 / 1e6 + 0.1) / 0.2]
        )

    def test_tradable_volume_uses_adv(self, panel):
        engine = ExecutionEngine(LinearImpact(1.0), adv_window_days=1.0)
        window = max(int(86_400 / panel.period_seconds), 1)
        np.testing.assert_allclose(
            engine.tradable_volume(panel, 50), panel.adv_panel(window)[50]
        )

    def test_estimate_batch_shapes(self):
        engine = ExecutionEngine(LinearImpact(1.0), portfolio_notional=1e6)
        w_prev = np.array([[1.0, 0.0], [0.5, 0.5]])
        w_tgt = np.array([[0.5, 0.5], [0.5, 0.5]])
        est = engine.estimate_batch(w_prev, w_tgt, np.array([1e6, 1e6]))
        assert est["cost"].shape == (2,)
        assert est["cost"][1] == 0.0  # no trade, no cost
        assert est["fill_ratio"][0] == 1.0


# ----------------------------------------------------------------------
class TestAdvPanel:
    def test_expanding_then_rolling_mean(self, panel):
        adv = panel.adv_panel(4)
        np.testing.assert_allclose(adv[0], panel.volume[0])
        np.testing.assert_allclose(adv[2], panel.volume[:3].mean(axis=0))
        np.testing.assert_allclose(adv[10], panel.volume[7:11].mean(axis=0))

    def test_cached(self, panel):
        assert panel.adv_panel(4) is panel.adv_panel(4)
        assert panel.adv_panel(4) is not panel.adv_panel(8)

    def test_coin_depth_scales_volume(self):
        def gen(depth):
            return MarketGenerator(
                universe=[CoinSpec("BTC", depth=depth)], seed=5
            ).generate("2019/01/01", "2019/01/10", 21600)

        base, half = gen(1.0), gen(0.5)
        np.testing.assert_allclose(half.volume, 0.5 * base.volume)
        # Prices are untouched — depth only affects tradable volume.
        np.testing.assert_array_equal(half.close, base.close)

    def test_coin_depth_default_bit_identical(self):
        spec = CoinSpec("BTC")
        assert spec.depth == 1.0
        with pytest.raises(ValueError):
            CoinSpec("BTC", depth=0.0)


# ----------------------------------------------------------------------
class TestBacktestIntegration:
    def test_zero_engine_bit_identical(self, panel, agent):
        base = Backtester(observation=OBS).run(agent, panel)
        zero = Backtester(
            observation=OBS, execution=ExecutionEngine(ZeroSlippage())
        ).run(agent, panel)
        assert np.array_equal(base.values, zero.values)
        assert np.array_equal(base.weights, zero.weights)
        assert np.array_equal(base.mus, zero.mus)
        assert zero.extra["implementation_shortfall"] == 0.0
        assert zero.extra["mean_fill_ratio"] == 1.0
        assert base.extra == {}

    def test_run_many_zero_parity(self, panel, agent):
        panels = [panel, panel.slice_time(end=panel.timestamps[200])]
        base = Backtester(observation=OBS).run_many(agent, panels)
        zero = Backtester(
            observation=OBS, execution=ExecutionEngine(ZeroSlippage())
        ).run_many(agent, panels)
        for b, z in zip(base, zero):
            assert np.array_equal(b.values, z.values)
            assert np.array_equal(b.weights, z.weights)

    def test_run_many_zero_parity_at_bench_scale(
        self, bench_panels, bench_sdp_params, bench_backtests
    ):
        agent = SDPAgent(4, **bench_sdp_params)
        zero = Backtester(
            observation=bench_sdp_params["observation"],
            execution=ExecutionEngine(ZeroSlippage()),
        ).run_many(agent, bench_panels)
        for b, z in zip(bench_backtests, zero):
            assert np.array_equal(b.values, z.values)
            assert np.array_equal(b.weights, z.weights)
            assert np.array_equal(b.mus, z.mus)

    def test_impact_costs_wealth(self, panel, agent):
        base = Backtester(observation=OBS).run(agent, panel)
        lin = Backtester(
            observation=OBS,
            execution=ExecutionEngine(
                LinearImpact(25.0), portfolio_notional=1e6
            ),
        ).run(agent, panel)
        assert lin.fapv < base.fapv
        assert lin.extra["implementation_shortfall"] > 0.0
        assert lin.extra["mean_slippage_cost"] > 0.0
        # μ shrinks strictly below the commission-only value whenever
        # the portfolio trades.
        assert (np.asarray(lin.mus) <= np.asarray(base.mus) + 1e-15).all()

    def test_depth_limits_fills(self, panel, agent):
        dep = Backtester(
            observation=OBS,
            execution=ExecutionEngine(
                DepthLimited(0.001), portfolio_notional=1e8
            ),
        ).run(agent, panel)
        assert dep.extra["mean_fill_ratio"] < 1.0

    def test_env_histories(self, panel):
        env = PortfolioEnv(
            panel,
            observation=OBS,
            execution=ExecutionEngine(
                LinearImpact(10.0), portfolio_notional=1e6
            ),
        )
        w = env.uniform_weights()
        step = env.step(w)
        assert "fill_ratio" in step.info and "slippage_cost" in step.info
        assert len(env.ideal_value_history) == 2
        assert len(env.slippage_history) == 1
        summary = env.execution_summary()
        assert summary["implementation_shortfall"] == pytest.approx(
            implementation_shortfall(
                env.value_history, env.ideal_value_history
            )
        )

    def test_implementation_shortfall_metric(self):
        assert implementation_shortfall([1.0, 2.0], [1.0, 4.0]) == 0.5
        assert implementation_shortfall([1.0, 3.0], [1.0, 3.0]) == 0.0
        with pytest.raises(ValueError):
            implementation_shortfall([1.0, 2.0], [1.0, 2.0, 3.0])


# ----------------------------------------------------------------------
class TestExecutionRegime:
    def test_zero_builds_no_engine(self):
        assert ZERO_EXECUTION.build_engine() is None

    def test_builds_models(self):
        assert isinstance(
            ExecutionRegime("l", "linear", 2.0).build_model(), LinearImpact
        )
        assert isinstance(
            ExecutionRegime("s", "sqrt", 2.0).build_model(), SquareRootImpact
        )
        deep = ExecutionRegime("d", "depth", 1.0, max_participation=0.02)
        model = deep.build_model()
        assert isinstance(model, DepthLimited)
        assert model.max_participation == 0.02
        engine = deep.build_engine(0.001)
        assert engine.commission == 0.001

    def test_validation(self):
        with pytest.raises(ValueError):
            ExecutionRegime("x", "vwap")
        with pytest.raises(ValueError):
            ExecutionRegime("x", "linear", impact_coef=-1.0)
        with pytest.raises(ValueError):
            ExecutionRegime("x", "depth", max_participation=0.0)

    def test_shard_id_carries_execution(self):
        base = ShardSpec("s", "quick", 1, "sdp", 7, cost=_paper_cost())
        lin = ShardSpec(
            "s", "quick", 1, "sdp", 7,
            cost=_paper_cost(),
            execution=ExecutionRegime("lin", "linear", 10.0),
        )
        assert base.shard_id != lin.shard_id
        # Ideal shards keep the pre-execution-subsystem id shape (no
        # regime component), so old stores stay resumable.
        assert "ideal" not in base.shard_id
        assert "-lin-" in lin.shard_id
        # Same axes, different parameters → different fingerprints.
        lin2 = ShardSpec(
            "s", "quick", 1, "sdp", 7,
            cost=_paper_cost(),
            execution=ExecutionRegime("lin", "linear", 20.0),
        )
        assert lin.shard_id != lin2.shard_id

    def test_legacy_shard_payload_decodes_to_ideal(self):
        payload = ShardSpec("s", "quick", 1, "sdp", 7, cost=_paper_cost()).to_json_dict()
        del payload["execution"]
        assert ShardSpec.from_json_dict(payload).execution == ZERO_EXECUTION

    def test_ignored_params_normalised(self):
        # Parameters a model ignores must not mint distinct grid cells
        # that recompute bit-identical results.
        a = ExecutionRegime("lin", "linear", 25.0, max_participation=0.01)
        b = ExecutionRegime("lin", "linear", 25.0, max_participation=0.02)
        assert a == b
        z = ExecutionRegime("ideal", "zero", impact_coef=5.0,
                            portfolio_notional=9e9)
        assert z == ZERO_EXECUTION
        sz = ShardSpec("s", "quick", 1, "sdp", 7, cost=_paper_cost(),
                       execution=z)
        assert sz.shard_id == ShardSpec(
            "s", "quick", 1, "sdp", 7, cost=_paper_cost()
        ).shard_id

    def test_parsed_zero_regime_keys_as_the_default(self):
        """``--execution zero`` and ``--executions zero=zero`` name the
        ideal regime, so their shards are the default's, not distinct
        cells recomputing its numbers."""
        from repro.__main__ import _parse_execution_spec, _parse_executions

        default = ShardSpec("s", "quick", 1, "sdp", 7, cost=_paper_cost())
        for parsed in (_parse_execution_spec("zero"), *_parse_executions(["zero=zero"])):
            shard = ShardSpec("s", "quick", 1, "sdp", 7, cost=_paper_cost(),
                              execution=parsed)
            assert shard == default and shard.shard_id == default.shard_id
        spec = ExperimentSpec("z", profile="quick", strategies=("sdp", "ucrp"),
                              seeds=(7,), execution_regimes=(parsed,))
        assert [s.shard_id for s in spec.expand()] == [
            s.shard_id for s in ExperimentSpec(
                "z", profile="quick", strategies=("sdp", "ucrp"), seeds=(7,)
            ).expand()
        ]
        with pytest.raises(ValueError):
            ExperimentSpec("dup", execution_regimes=(ZERO_EXECUTION, parsed))

    def test_estimate_matches_execute_under_caps(self):
        # The advisory estimate charges the fillable portion, like the
        # engine — not the uncapped request.
        engine = ExecutionEngine(
            DepthLimited(0.01, impact_coefficient=1.0),
            commission=0.0, portfolio_notional=1e6,
        )
        w_prev = np.array([1.0, 0.0])
        w_tgt = np.array([0.7, 0.3])
        vol = np.array([1e5])
        est = engine.estimate_batch(w_prev[None], w_tgt[None], vol[None])
        fill = engine.execute(w_prev, w_tgt, 1.0, vol)
        np.testing.assert_allclose(est["cost"][0], fill.slippage_cost)

    def test_spec_unique_names_enforced(self):
        with pytest.raises(ValueError):
            ExperimentSpec(
                "dup",
                execution_regimes=(
                    ExecutionRegime("a", "zero"),
                    ExecutionRegime("a", "linear", 1.0),
                ),
            )


def _paper_cost():
    from repro.experiments import DEFAULT_COST_REGIMES

    return DEFAULT_COST_REGIMES[0]


# ----------------------------------------------------------------------
class TestSweepIntegration:
    REGIMES = (
        ZERO_EXECUTION,
        ExecutionRegime("lin", "linear", 25.0),
        ExecutionRegime(
            "deep", "depth", 25.0, max_participation=0.002,
            portfolio_notional=1e7,
        ),
    )

    @pytest.fixture(scope="class")
    def sweep(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("exec_sweep")
        spec = ExperimentSpec(
            name="exec",
            profile="quick",
            strategies=("sdp", "ucrp"),
            seeds=(1,),
            execution_regimes=self.REGIMES,
            overrides=(("train_steps", 4),),
        )
        runner = SweepRunner(spec, root)
        return spec, ArtifactStore(root), runner.run()

    def test_grid_spans_regimes(self, sweep):
        spec, _, result = sweep
        assert spec.num_shards == 6  # 2 strategies × 3 execution regimes
        assert result.complete
        names = {o.shard.execution.name for o in result.outcomes}
        assert names == {"ideal", "lin", "deep"}

    def test_ideal_shard_matches_pre_execution_backtest(self, sweep):
        # The zero regime must reproduce the commission-only path a
        # plain (execution-less) backtest produces, bit for bit.
        from repro.agents import run_backtest
        from repro.experiments import build_experiment_data
        from repro.registry import DEFAULT_REGISTRY, strategy_params_from_config

        spec, store, result = sweep
        shard = next(
            o.shard
            for o in result.outcomes
            if o.shard.strategy == "ucrp" and o.shard.execution.name == "ideal"
        )
        config = shard.config()
        data = build_experiment_data(config)
        params = strategy_params_from_config(
            "ucrp", config, n_assets=len(data.assets)
        )
        agent = DEFAULT_REGISTRY.create("ucrp", **params)
        expected = run_backtest(
            agent, data.test,
            observation=config.observation, commission=config.commission,
        )
        artifact = store.load_shard(shard.shard_id)
        assert np.array_equal(artifact.series["values"], expected.values)
        assert np.array_equal(artifact.series["weights"], expected.weights)

    def test_aggregate_has_execution_rows(self, sweep):
        _, _, result = sweep
        rows = result.aggregate()
        by_exec = {
            (r["strategy"], r["execution"]): r for r in rows
        }
        assert ("ucrp", "lin") in by_exec
        assert "shortfall_mean" in by_exec[("ucrp", "lin")]
        assert "shortfall_mean" not in by_exec[("ucrp", "ideal")]
        # Impact strictly costs wealth for a strategy that trades.
        assert (
            by_exec[("ucrp", "lin")]["fapv_mean"]
            < by_exec[("ucrp", "ideal")]["fapv_mean"]
        )
        table = render_sweep_table(result)
        assert "Exec" in table and "Shortfall" in table

    def test_resume_skips_and_aggregates_identically(self, sweep, tmp_path):
        spec, store, result = sweep
        resumed = SweepRunner(spec, store).run()
        assert len(resumed.ran) == 0
        assert len(resumed.skipped) == 6
        assert resumed.aggregate() == result.aggregate()

    def test_cli_sweep_with_executions(self, tmp_path, capsys):
        code = cli_main(
            [
                "sweep", "--store", str(tmp_path / "store"),
                "--profile", "quick", "--strategies", "ucrp",
                "--seeds", "1", "--train-steps", "4", "--serial",
                "--executions", "ideal=zero", "lin=linear:25",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 ran" in out
        assert "Exec" in out

    def test_cli_rejects_bad_execution_spec(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(
                [
                    "sweep", "--store", str(tmp_path / "s"),
                    "--executions", "linear:25",
                ]
            )
        with pytest.raises(SystemExit):
            cli_main(
                [
                    "sweep", "--store", str(tmp_path / "s"),
                    "--executions", "x=vwap",
                ]
            )


# ----------------------------------------------------------------------
class TestWalkForwardIntegration:
    WALK = WalkForward(
        train_days=10, test_days=7, start="2019/01/01", end="2019/02/01"
    )

    def test_shortfall_in_fold_metrics(self):
        config = make_config(1, "quick", train_steps=4, period_seconds=7200)
        report = run_walkforward(
            config, self.WALK, strategies=("ucrp",), seeds=(1,),
            execution=ExecutionRegime("lin", "linear", 25.0),
        )
        assert all("shortfall" in r.metrics for r in report.records)
        rows = report.fold_aggregates()
        assert all("shortfall_mean" in row for row in rows)
        from repro.experiments import render_walkforward_table

        assert "Shortfall" in render_walkforward_table(report)

    def test_no_engine_has_no_shortfall(self):
        config = make_config(1, "quick", train_steps=4, period_seconds=7200)
        report = run_walkforward(
            config, self.WALK, strategies=("ucrp",), seeds=(1,)
        )
        assert all("shortfall" not in r.metrics for r in report.records)


# ----------------------------------------------------------------------
class TestServingIntegration:
    def _service(self, panel, execution=None):
        service = PortfolioService(execution=execution)
        service.register_market("m", panel)
        service.create_session(
            "s0", strategy="ucrp", market="m", observation=OBS
        )
        service.create_session(
            "s1", strategy="ucrp", market="m", observation=OBS
        )
        return service

    def test_no_engine_responses_have_no_execution(self, panel):
        service = self._service(panel)
        assert service._execution is None
        resp = service.rebalance("s0")
        assert resp.execution is None
        assert "execution" not in resp.to_json_dict()

    def test_zero_engine_takes_fast_path(self, panel):
        service = self._service(panel, ExecutionEngine(ZeroSlippage()))
        # The free engine is dropped at construction: per-round serving
        # does zero execution work (the PR 2 allocation profile).
        assert service._execution is None
        assert service.rebalance("s0").execution is None

    def test_decisions_unchanged_by_engine(self, panel):
        engine = ExecutionEngine(LinearImpact(25.0), portfolio_notional=1e6)
        plain = self._service(panel)
        advised = self._service(panel, engine)
        requests = [RebalanceRequest("s0"), RebalanceRequest("s1")]
        for _ in range(3):
            a = plain.rebalance_many(requests)
            b = advised.rebalance_many(requests)
            for ra, rb in zip(a, b):
                assert np.array_equal(ra.weights, rb.weights)
                assert rb.execution is not None

    def test_stateful_agent_gets_estimates_too(self, panel):
        engine = ExecutionEngine(LinearImpact(25.0), portfolio_notional=1e6)
        service = PortfolioService(execution=engine)
        service.register_market("m", panel)
        service.create_session("ons", strategy="ons", market="m",
                               observation=OBS)
        resp = service.rebalance("ons")
        assert resp.execution is not None
        assert service.execution is engine  # the public view

    def test_estimate_contents(self, panel):
        engine = ExecutionEngine(LinearImpact(25.0), portfolio_notional=1e6)
        service = self._service(panel, engine)
        resp = service.rebalance("s0")
        est = resp.execution
        assert set(est) == {"cost", "max_participation", "fill_ratio"}
        assert est["cost"] > 0.0  # first trade rotates out of cash
        assert est["fill_ratio"] == 1.0
        assert resp.to_json_dict()["execution"] == est
