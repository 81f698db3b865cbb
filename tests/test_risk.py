"""Unit tests for the portfolio risk & constraints subsystem: the limit
zoo's closed forms, the engine's single-pass projection invariants and
null-engine bit-parity, the back-test / walk-forward / serving
integration (including lockout state through checkpoints), and the
``RiskRegime`` sweep axis (grid expansion, resume, tables, CLI)."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.__main__ import main as cli_main
from repro.agents import run_backtest
from repro.data import MarketGenerator
from repro.data.splits import walk_forward_windows
from repro.envs import Backtester, ObservationConfig
from repro.envs.portfolio import PortfolioEnv
from repro.experiments import (
    ArtifactStore,
    ExperimentSpec,
    NO_RISK,
    RiskRegime,
    ShardSpec,
    SweepRunner,
    WalkForwardEvaluator,
    make_config,
    render_sweep_table,
    risk_regime_preset,
)
from repro.metrics import (
    constraint_violation_rate,
    max_drawdown_duration,
    turnover,
    turnover_series,
)
from repro.registry import DEFAULT_REGISTRY
from repro.risk import (
    CONSTRAINT_NAMES,
    CashFloor,
    DrawdownLockout,
    LeverageSchedule,
    LockoutState,
    PositionCap,
    RiskEngine,
    TurnoverBudget,
)
from repro.serving import PortfolioService, RebalanceRequest

OBS = ObservationConfig(window=6, stride=1, momentum_horizons=(1, 3, 6))
# A version-2 (manifest.json) checkpoint written before checkpoints
# became session-store directories; see its README.
LEGACY_V2 = Path(__file__).parent / "fixtures" / "checkpoint_v2"


def _paper_cost():
    from repro.experiments import DEFAULT_COST_REGIMES

    return DEFAULT_COST_REGIMES[0]


@pytest.fixture(scope="module")
def panel():
    return (
        MarketGenerator(seed=3)
        .generate("2019/01/01", "2019/02/01", 7200)
        .select_assets([0, 1, 2, 3])
    )


def _w(*entries):
    return np.asarray(entries, dtype=np.float64)


# ----------------------------------------------------------------------
class TestLimits:
    def test_position_cap_scalar_and_vector(self):
        assert np.array_equal(PositionCap(0.3).caps(3), np.full(3, 0.3))
        cap = PositionCap([0.5, 0.2, 0.1])
        assert np.array_equal(cap.caps(3), np.array([0.5, 0.2, 0.1]))
        with pytest.raises(ValueError):
            cap.caps(4)  # wrong universe size

    def test_position_cap_validation(self):
        with pytest.raises(ValueError):
            PositionCap(0.0)
        with pytest.raises(ValueError):
            PositionCap(1.5)
        with pytest.raises(ValueError):
            PositionCap([[0.1, 0.2]])

    def test_cash_floor_validation(self):
        assert CashFloor(0.0).min_cash == 0.0
        with pytest.raises(ValueError):
            CashFloor(1.0)
        with pytest.raises(ValueError):
            CashFloor(-0.1)

    def test_turnover_budget_validation(self):
        assert TurnoverBudget(0.3).max_turnover == 0.3
        with pytest.raises(ValueError):
            TurnoverBudget(0.0)

    def test_leverage_schedule_gross_at(self):
        sched = LeverageSchedule(1.0, steps=((10, 0.5), (20, 0.8)))
        np.testing.assert_allclose(
            sched.gross_at(np.array([0, 9, 10, 15, 20, 99])),
            np.array([1.0, 1.0, 0.5, 0.5, 0.8, 0.8]),
        )
        # No steps: the base everywhere, vectorized.
        np.testing.assert_allclose(
            LeverageSchedule(0.7).gross_at(np.arange(3)), np.full(3, 0.7)
        )

    def test_leverage_schedule_validation(self):
        with pytest.raises(ValueError):
            LeverageSchedule(0.0)
        with pytest.raises(ValueError):
            LeverageSchedule(1.0, steps=((5, 1.5),))

    def test_lockout_state_roundtrip_and_copy(self):
        state = LockoutState(hwm=1.25, remaining=3, triggers=2)
        assert state.locked
        assert LockoutState.from_json_dict(state.to_json_dict()) == state
        clone = state.copy()
        clone.remaining = 0
        assert state.remaining == 3  # copies are independent

    def test_drawdown_lockout_closed_form(self):
        guard = DrawdownLockout(0.2, lockout_periods=2)
        state = guard.initial_state(1.0)
        assert not state.locked
        state = guard.update(state, 1.5)  # new high-water mark
        assert state.hwm == 1.5 and not state.locked
        state = guard.update(state, 1.1)  # dd = 0.4/1.5 > 0.2 → trigger
        assert state.locked and state.remaining == 2 and state.triggers == 1
        state = guard.update(state, 1.0)  # counting down, hwm untouched
        assert state.locked and state.remaining == 1 and state.hwm == 1.5
        state = guard.update(state, 0.9)  # re-entry: hwm resets to here
        assert not state.locked and state.hwm == 0.9
        # Guard is armed against *new* losses — no immediate re-fire.
        state = guard.update(state, 0.85)
        assert not state.locked

    def test_drawdown_lockout_update_does_not_mutate(self):
        guard = DrawdownLockout(0.1, lockout_periods=5)
        state = guard.initial_state(1.0)
        new = guard.update(state, 0.5)
        assert new.locked and not state.locked

    def test_drawdown_lockout_validation(self):
        with pytest.raises(ValueError):
            DrawdownLockout(0.0, 1)
        with pytest.raises(ValueError):
            DrawdownLockout(1.0, 1)
        with pytest.raises(ValueError):
            DrawdownLockout(0.1, 0)
        with pytest.raises(ValueError):
            DrawdownLockout(0.1, 1).initial_state(0.0)


# ----------------------------------------------------------------------
class TestEngineProjection:
    def test_null_engine_returns_target_array_itself(self):
        engine = RiskEngine(())
        assert engine.is_null
        target = _w(0.1, 0.5, 0.4)
        report, state = engine.step(_w(1.0, 0.0, 0.0), target)
        assert report.weights is target  # no copy: bit-parity by construction
        assert not report.violated and report.binding_names() == []
        assert report.pre_turnover == 0.0 and report.post_turnover == 0.0
        assert state is None

    def test_composition_validation(self):
        with pytest.raises(ValueError):
            RiskEngine([DrawdownLockout(0.1, 1), DrawdownLockout(0.2, 2)])
        with pytest.raises(TypeError):
            RiskEngine([object()])

    def test_asset_caps_elementwise_min(self):
        engine = RiskEngine([PositionCap(0.5), PositionCap([0.3, 0.6, 0.9])])
        np.testing.assert_allclose(
            engine.asset_caps(3), np.array([0.3, 0.5, 0.5])
        )
        assert RiskEngine([CashFloor(0.1)]).asset_caps(3) is None

    def test_gross_cap_folds_floor_and_schedules(self):
        engine = RiskEngine(
            [CashFloor(0.1), LeverageSchedule(1.0, steps=((5, 0.5),))]
        )
        np.testing.assert_allclose(engine.gross_cap(0), 0.9)
        np.testing.assert_allclose(engine.gross_cap(7), 0.5)

    def test_caps_respected_and_cash_absorbs(self):
        engine = RiskEngine([PositionCap(0.25)])
        report, _ = engine.step(_w(1.0, 0, 0, 0, 0), _w(0.0, 0.7, 0.1, 0.1, 0.1))
        assert report.weights[1:].max() <= 0.25 + 1e-12
        assert report.weights.sum() == pytest.approx(1.0)
        assert report.binding["position_cap"] and report.violated

    def test_cash_floor_respected(self):
        engine = RiskEngine([CashFloor(0.3)])
        report, _ = engine.step(_w(1.0, 0, 0), _w(0.0, 0.6, 0.4))
        assert report.weights[0] >= 0.3 - 1e-12
        assert report.weights.sum() == pytest.approx(1.0)
        assert report.binding["cash_floor"]
        # Scaling preserves the requested asset mix.
        np.testing.assert_allclose(
            report.weights[1] / report.weights[2], 0.6 / 0.4
        )

    def test_turnover_budget_realized_exactly(self):
        engine = RiskEngine([TurnoverBudget(0.2)])
        w_prime = _w(1.0, 0.0, 0.0)
        report, _ = engine.step(w_prime, _w(0.0, 0.5, 0.5))
        assert report.binding["turnover"]
        assert report.post_turnover == pytest.approx(0.2, abs=1e-12)
        assert np.abs(report.weights - w_prime).sum() == pytest.approx(0.2)
        assert report.weights.sum() == pytest.approx(1.0)
        assert report.pre_turnover == pytest.approx(2.0)

    def test_leverage_schedule_binds_by_time(self):
        engine = RiskEngine([LeverageSchedule(1.0, steps=((10, 0.4),))])
        target = _w(0.0, 0.5, 0.5)
        early, _ = engine.step(_w(1.0, 0, 0), target, t=0)
        assert not early.violated
        late, _ = engine.step(_w(1.0, 0, 0), target, t=10)
        assert late.binding["leverage"]
        assert late.weights[1:].sum() == pytest.approx(0.4)

    def test_lockout_flattens_to_cash(self):
        engine = RiskEngine([DrawdownLockout(0.1, 3)])
        state = engine.initial_state(1.0)
        report, state = engine.step(
            _w(0.0, 0.5, 0.5), _w(0.0, 0.5, 0.5), value=0.8, state=state
        )
        assert report.locked and report.binding["lockout"]
        np.testing.assert_allclose(report.weights, _w(1.0, 0.0, 0.0))
        # Forced flattening is real turnover, reported as such.
        assert report.post_turnover == pytest.approx(2.0)

    def test_lockout_engine_requires_value(self):
        engine = RiskEngine([DrawdownLockout(0.1, 3)])
        with pytest.raises(ValueError):
            engine.step(_w(1.0, 0.0), _w(0.5, 0.5))

    def test_projection_stays_on_simplex(self):
        rng = np.random.default_rng(0)
        engine = RiskEngine(
            [PositionCap(0.3), CashFloor(0.05), TurnoverBudget(0.5)]
        )
        raw_tgt = rng.random((64, 6))
        w_tgt = raw_tgt / raw_tgt.sum(axis=1, keepdims=True)
        # Books start in cash (trivially inside every cap), so the
        # turnover-rationed convex combination keeps each cap too.
        w_prev = np.zeros_like(w_tgt)
        w_prev[:, 0] = 1.0
        weights, binding, pre, post = engine.project_batch(w_prev, w_tgt)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0)
        assert (weights >= -1e-12).all()
        assert (weights[:, 1:] <= 0.3 + 1e-9).all()
        assert (post <= pre + 1e-12).all()
        assert set(binding) == set(CONSTRAINT_NAMES)

    def test_projection_idempotent_within_caps(self):
        engine = RiskEngine(
            [PositionCap(0.3), CashFloor(0.05), TurnoverBudget(0.4)]
        )
        w_prev = _w(1.0, 0, 0, 0)
        first, _ = engine.step(w_prev, _w(0.0, 0.6, 0.3, 0.1))
        again, _ = engine.step(w_prev, first.weights)
        np.testing.assert_array_equal(first.weights, again.weights)
        assert not again.violated

    def test_binding_masks_exclude_satisfied_constraints(self):
        engine = RiskEngine([PositionCap(0.5), TurnoverBudget(0.1)])
        report, _ = engine.step(_w(0.9, 0.05, 0.05), _w(0.8, 0.1, 0.1))
        # Trade of 0.2 exceeds the 0.1 budget; caps never touched.
        assert report.binding["turnover"]
        assert not report.binding["position_cap"]
        assert report.binding_names() == ["turnover"]


# ----------------------------------------------------------------------
class TestEnvIntegration:
    def _ucrp(self):
        return DEFAULT_REGISTRY.create("ucrp")

    def test_none_engine_bit_identical_to_no_engine(self, panel):
        base = run_backtest(self._ucrp(), panel, observation=OBS)
        null = run_backtest(
            self._ucrp(), panel, observation=OBS, risk=RiskEngine(())
        )
        assert np.array_equal(base.values, null.values)
        assert np.array_equal(base.weights, null.weights)
        assert np.array_equal(base.mus, null.mus)
        # A null engine never binds; its summary is all zeros.
        summary = null.extra["risk"]
        assert summary["violation_rate"] == 0.0
        assert summary["binding_counts"] == {}

    def test_env_histories_and_summary(self, panel):
        env = PortfolioEnv(
            panel, observation=OBS,
            risk=RiskEngine([PositionCap(0.15), CashFloor(0.1)]),
        )
        step = env.step(env.uniform_weights())
        assert "risk_violated" in step.info and "risk_locked" in step.info
        assert len(env.risk_binding_history) == 1
        assert len(env.pre_turnover_history) == 1
        summary = env.risk_summary()
        assert summary["n_decisions"] == 1
        assert summary["violation_rate"] == 1.0  # uniform 0.2 > cap 0.15
        assert summary["binding_counts"]["position_cap"] == 1
        assert summary["mean_post_turnover"] <= summary["mean_pre_turnover"]

    def test_summary_empty_without_engine(self, panel):
        env = PortfolioEnv(panel, observation=OBS)
        env.step(env.uniform_weights())
        assert env.risk_summary() == {}

    def test_backtest_weights_respect_caps(self, panel):
        result = run_backtest(
            self._ucrp(), panel, observation=OBS,
            risk=RiskEngine([PositionCap(0.15)]),
        )
        assert np.asarray(result.weights)[:, 1:].max() <= 0.15 + 1e-9
        summary = result.extra["risk"]
        assert summary["violation_rate"] > 0.0
        assert summary["lockout_rate"] == 0.0

    def test_lockout_fires_in_backtest(self, panel):
        # A hair-trigger threshold guarantees a trigger on any dip.
        result = run_backtest(
            self._ucrp(), panel, observation=OBS,
            risk=RiskEngine([DrawdownLockout(0.001, 4)]),
        )
        summary = result.extra["risk"]
        assert summary["lockout_triggers"] >= 1
        assert summary["lockout_rate"] > 0.0
        # Locked decisions hold pure cash.
        weights = np.asarray(result.weights)
        flat = np.abs(weights[:, 0] - 1.0) < 1e-12
        assert flat.sum() >= 4  # at least one full lockout window


# ----------------------------------------------------------------------
class TestRiskRegime:
    def test_preset_defaults_fill_unset_fields(self):
        regime = RiskRegime("caps", "caps")
        assert regime.max_weight == 0.35 and regime.min_cash == 0.05
        assert regime.max_turnover == 0.0  # unused by the preset
        tuned = RiskRegime("caps2", "caps", max_weight=0.5)
        assert tuned.max_weight == 0.5 and tuned.min_cash == 0.05

    def test_unused_fields_normalised(self):
        # Parameters a preset ignores must not mint distinct grid cells.
        a = RiskRegime("t", "turnover")
        b = RiskRegime("t", "turnover", max_weight=0.9, lockout_periods=7)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            RiskRegime("x", "var")
        with pytest.raises(ValueError):
            RiskRegime("x", "caps", max_weight=1.5)
        with pytest.raises(ValueError):
            RiskRegime("x", "lockout", max_drawdown=2.0)

    def test_build_engine(self):
        assert NO_RISK.build_engine() is None
        engine = risk_regime_preset("tight").build_engine()
        assert not engine.is_null and engine.has_lockout
        np.testing.assert_allclose(engine.asset_caps(3), np.full(3, 0.2))
        caps = risk_regime_preset("caps").build_engine()
        assert not caps.has_lockout

    def test_shard_id_preserved_for_none(self):
        base = ShardSpec("s", "quick", 1, "sdp", 7, cost=_paper_cost())
        with_none = ShardSpec(
            "s", "quick", 1, "sdp", 7, cost=_paper_cost(), risk=NO_RISK
        )
        assert base.shard_id == with_none.shard_id
        assert "none" not in base.shard_id
        caps = ShardSpec(
            "s", "quick", 1, "sdp", 7, cost=_paper_cost(),
            risk=risk_regime_preset("caps"),
        )
        assert "-caps-" in caps.shard_id
        # Same axes, different parameters → different fingerprints.
        caps2 = ShardSpec(
            "s", "quick", 1, "sdp", 7, cost=_paper_cost(),
            risk=RiskRegime("caps", "caps", max_weight=0.5),
        )
        assert caps.shard_id != caps2.shard_id

    def test_legacy_shard_payload_decodes_to_none(self):
        payload = ShardSpec(
            "s", "quick", 1, "sdp", 7, cost=_paper_cost()
        ).to_json_dict()
        del payload["risk"]
        assert ShardSpec.from_json_dict(payload).risk == NO_RISK

    def test_spec_expansion_and_uniqueness(self):
        spec = ExperimentSpec(
            "grid", strategies=("sdp",), seeds=(1,),
            risk_regimes=(NO_RISK, risk_regime_preset("caps")),
        )
        assert spec.num_shards == 2
        names = {shard.risk.name for shard in spec.expand()}
        assert names == {"none", "caps"}
        with pytest.raises(ValueError):
            ExperimentSpec(
                "dup",
                risk_regimes=(
                    RiskRegime("a", "caps"), RiskRegime("a", "turnover")
                ),
            )

    def test_spec_json_roundtrip(self):
        spec = ExperimentSpec(
            "rt", risk_regimes=(NO_RISK, risk_regime_preset("lockout"))
        )
        assert ExperimentSpec.from_json_dict(spec.to_json_dict()) == spec
        # Pre-risk spec payloads decode to the default axis.
        payload = ExperimentSpec("old").to_json_dict()
        del payload["risk_regimes"]
        assert ExperimentSpec.from_json_dict(payload).risk_regimes == (NO_RISK,)


# ----------------------------------------------------------------------
class TestSweepIntegration:
    REGIMES = (
        NO_RISK,
        risk_regime_preset("caps"),
        RiskRegime("guard", "lockout", max_drawdown=0.05, lockout_periods=5),
    )

    @pytest.fixture(scope="class")
    def sweep(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("risk_sweep")
        spec = ExperimentSpec(
            name="risk",
            profile="quick",
            strategies=("sdp", "ucrp"),
            seeds=(1,),
            risk_regimes=self.REGIMES,
            overrides=(("train_steps", 4),),
        )
        runner = SweepRunner(spec, root)
        return spec, ArtifactStore(root), runner.run()

    def test_grid_spans_regimes(self, sweep):
        spec, _, result = sweep
        assert spec.num_shards == 6  # 2 strategies × 3 risk regimes
        assert result.complete
        names = {o.shard.risk.name for o in result.outcomes}
        assert names == {"none", "caps", "guard"}

    def test_none_shard_matches_pre_risk_backtest(self, sweep):
        # The none regime must reproduce the unconstrained path a plain
        # (risk-less) backtest produces, bit for bit.
        from repro.experiments import build_experiment_data
        from repro.registry import strategy_params_from_config

        spec, store, result = sweep
        shard = next(
            o.shard
            for o in result.outcomes
            if o.shard.strategy == "ucrp" and o.shard.risk.name == "none"
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

    def test_aggregate_has_risk_rows(self, sweep):
        _, _, result = sweep
        rows = result.aggregate()
        by_risk = {(r["strategy"], r["risk"]): r for r in rows}
        assert ("ucrp", "caps") in by_risk
        assert "violation_rate_mean" in by_risk[("ucrp", "caps")]
        assert "violation_rate_mean" not in by_risk[("ucrp", "none")]
        table = render_sweep_table(result)
        assert "Risk" in table and "Violation" in table

    def test_resume_skips_and_aggregates_identically(self, sweep):
        spec, store, result = sweep
        resumed = SweepRunner(spec, store).run()
        assert len(resumed.ran) == 0
        assert len(resumed.skipped) == 6
        assert resumed.aggregate() == result.aggregate()

    def test_cli_sweep_with_risks(self, tmp_path, capsys):
        code = cli_main(
            [
                "sweep", "--store", str(tmp_path / "store"),
                "--profile", "quick", "--strategies", "ucrp",
                "--seeds", "1", "--train-steps", "4", "--serial",
                "--risks", "none", "caps",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 ran" in out
        assert "Risk" in out

    def test_cli_rejects_bad_risk_preset(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(
                [
                    "sweep", "--store", str(tmp_path / "s"),
                    "--risks", "var",
                ]
            )


# ----------------------------------------------------------------------
class TestWalkForwardIntegration:
    def _folds(self):
        return walk_forward_windows(
            "2019/01/01", "2019/02/01", train_days=10, test_days=7
        )

    def test_violation_in_fold_metrics(self, panel):
        config = make_config(1, "quick", train_steps=4)
        report = WalkForwardEvaluator(
            panel, self._folds(), config,
            strategies=("ucrp",), seeds=(1,),
            risk=RiskEngine([PositionCap(0.15)]),
        ).run()
        assert all("violation_rate" in r.metrics for r in report.records)
        assert all(r.bindings.get("position_cap", 0) > 0 for r in report.records)
        rows = report.fold_aggregates()
        assert all("violation_rate_mean" in row for row in rows)
        from repro.experiments import render_walkforward_table

        assert "Violation" in render_walkforward_table(report)
        attribution = report.binding_attribution()
        assert attribution and all(
            row["bindings"]["position_cap"] > 0 for row in attribution
        )

    def test_no_engine_has_no_violation(self, panel):
        config = make_config(1, "quick", train_steps=4)
        report = WalkForwardEvaluator(
            panel, self._folds(), config, strategies=("ucrp",), seeds=(1,)
        ).run()
        assert all("violation_rate" not in r.metrics for r in report.records)
        assert report.binding_attribution() == []


# ----------------------------------------------------------------------
class TestServingIntegration:
    def _service(self, panel, risk=None, sessions=("s0", "s1")):
        service = PortfolioService(risk=risk)
        service.register_market("m", panel)
        for sid in sessions:
            service.create_session(
                sid, strategy="ucrp", market="m", observation=OBS
            )
        return service

    def test_null_engine_dropped_at_construction(self, panel):
        service = self._service(panel, risk=RiskEngine(()))
        assert service.risk is None
        resp = service.rebalance("s0")
        assert resp.risk is None
        assert "risk" not in resp.to_json_dict()

    def test_decisions_projected_not_advisory(self, panel):
        engine = RiskEngine([PositionCap(0.15), CashFloor(0.1)])
        service = self._service(panel, risk=engine)
        resp = service.rebalance("s0")
        assert resp.weights[1:].max() <= 0.15 + 1e-9
        assert resp.weights[0] >= 0.1 - 1e-12
        info = resp.risk
        assert info["binding"] == ["position_cap"]
        assert not info["locked"]
        assert resp.to_json_dict()["risk"]["value"] == info["value"]

    def test_none_parity_with_plain_service(self, panel):
        plain = self._service(panel)
        guarded = self._service(panel, risk=RiskEngine(()))
        requests = [RebalanceRequest("s0"), RebalanceRequest("s1")]
        for _ in range(3):
            for ra, rb in zip(
                plain.rebalance_many(requests), guarded.rebalance_many(requests)
            ):
                assert np.array_equal(ra.weights, rb.weights)

    def test_lockout_across_rebalance_many(self, panel):
        engine = RiskEngine([DrawdownLockout(0.001, 3)])
        service = self._service(panel, risk=engine)
        requests = [RebalanceRequest("s0"), RebalanceRequest("s1")]
        locked = []
        for _ in range(12):
            for resp in service.rebalance_many(requests):
                if resp.risk["locked"]:
                    locked.append(resp)
                    np.testing.assert_allclose(
                        resp.weights, np.eye(5)[0]
                    )
        assert len(locked) >= 3  # at least one full lockout window
        state = service._sessions["s0"].lockout
        assert state is not None and state.triggers >= 1

    def test_batch_abort_leaves_guardrails_untouched(self, panel):
        engine = RiskEngine([PositionCap(0.15), DrawdownLockout(0.2, 3)])
        service = self._service(panel, risk=engine)
        service.rebalance("s0")
        session = service._sessions["s0"]
        value = session.risk_value
        drifted = session.risk_w_drifted.copy()
        hwm = session.lockout.hwm
        with pytest.raises(KeyError):
            service.rebalance_many(
                [RebalanceRequest("s0"), RebalanceRequest("ghost")]
            )
        assert session.risk_value == value
        assert np.array_equal(session.risk_w_drifted, drifted)
        assert session.lockout.hwm == hwm

    def test_checkpoint_roundtrip_carries_lockout_state(self, panel, tmp_path):
        def engine():
            return RiskEngine([PositionCap(0.15), DrawdownLockout(0.001, 3)])

        service = self._service(panel, risk=engine())
        requests = [RebalanceRequest("s0"), RebalanceRequest("s1")]
        for _ in range(5):
            service.rebalance_many(requests)
        path = service.save_checkpoint(tmp_path / "ckpt")
        index = json.loads((path / "checkpoint.json").read_text())
        assert index["version"] == 3
        assert all(
            "risk" in json.loads(
                (path / "sessions" / sid / "state.json").read_text()
            )["state"]
            for sid in index["sessions"]
        )

        restored = PortfolioService.load_checkpoint(path, risk=engine())
        for sid in ("s0", "s1"):
            a, b = service._sessions[sid], restored._sessions[sid]
            assert b.risk_value == a.risk_value
            assert np.array_equal(b.risk_w_drifted, a.risk_w_drifted)
            assert b.lockout == a.lockout
        # The restored service continues bit-identically.
        for _ in range(5):
            for ra, rb in zip(
                service.rebalance_many(requests),
                restored.rebalance_many(requests),
            ):
                assert np.array_equal(ra.weights, rb.weights)
                assert ra.risk == rb.risk

    @staticmethod
    def _legacy_copy(tmp_path, version, strip_risk=False):
        """A copy of the version-2 fixture with its manifest edited."""
        path = shutil.copytree(LEGACY_V2, tmp_path / f"v{version}")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["version"] = version
        if strip_risk:
            for entry in manifest["sessions"]:
                entry.pop("risk", None)
        (path / "manifest.json").write_text(json.dumps(manifest))
        return path

    def test_pre_risk_checkpoint_arms_fresh(self, tmp_path):
        # A version-1 checkpoint (saved before the guardrails existed)
        # has no guardrail entries; loading it under an engine arms
        # each session lazily on its next decision.
        path = self._legacy_copy(tmp_path, 1, strip_risk=True)
        engine = RiskEngine([PositionCap(0.15)])
        restored = PortfolioService.load_checkpoint(path, risk=engine)
        session = restored._sessions["sr"]
        assert session.risk_w_drifted is None  # not yet armed
        resp = restored.rebalance("sr")
        assert resp.risk is not None
        assert resp.weights[1:].max() <= 0.15 + 1e-9
        assert restored._sessions["sr"].risk_w_drifted is not None

    def test_unknown_checkpoint_version_rejected(self, panel, tmp_path):
        with pytest.raises(ValueError, match="version 3"):
            PortfolioService.load_checkpoint(self._legacy_copy(tmp_path, 3))
        service = self._service(panel, sessions=("s0",))
        path = service.save_checkpoint(tmp_path / "vX")
        index = json.loads((path / "checkpoint.json").read_text())
        index["version"] = 4
        (path / "checkpoint.json").write_text(json.dumps(index))
        with pytest.raises(ValueError, match="version 4"):
            PortfolioService.load_checkpoint(path)


# ----------------------------------------------------------------------
class TestMetrics:
    def test_turnover_series_closed_form(self):
        weights = np.array([[1.0, 0.0], [0.6, 0.4], [0.5, 0.5]])
        np.testing.assert_allclose(
            turnover_series(weights), np.array([0.8, 0.2])
        )
        assert turnover_series(np.array([[1.0, 0.0]])).size == 0
        with pytest.raises(ValueError):
            turnover_series(np.array([1.0, 0.0]))

    def test_turnover_series_mean_matches_turnover(self):
        rng = np.random.default_rng(1)
        raw = rng.random((10, 4))
        weights = raw / raw.sum(axis=1, keepdims=True)
        assert turnover_series(weights).mean() == pytest.approx(
            turnover(weights)
        )

    def test_max_drawdown_duration_closed_form(self):
        assert max_drawdown_duration([1.0, 2.0, 3.0]) == 0
        # Underwater for 3 periods, then a new high ends the stretch.
        assert max_drawdown_duration([1.0, 2.0, 1.5, 1.8, 1.9, 2.5, 2.4]) == 3
        assert max_drawdown_duration([2.0, 1.0, 1.5, 2.0]) == 2

    def test_constraint_violation_rate_closed_form(self):
        history = [
            {"position_cap": True, "turnover": False},
            {"position_cap": False, "turnover": False},
            {"position_cap": False, "turnover": True},
            {},
        ]
        assert constraint_violation_rate(history) == 0.5
        assert constraint_violation_rate([]) == 0.0
