"""Unit tests for walk-forward evaluation and per-regime attribution."""

import dataclasses
import json

import numpy as np
import pytest

from repro.autograd.optim import Adam
from repro.data import (
    MarketGenerator,
    top_volume_assets,
    walk_forward_windows,
)
from repro.data.regimes import (
    BEAR,
    BULL,
    RegimeSchedule,
    default_crypto_schedule,
    parse_date,
)
from repro.envs.backtester import Backtester
from repro.experiments import (
    ArtifactStore,
    ExecutionRegime,
    FoldRecord,
    RiskRegime,
    WalkForward,
    make_config,
    make_trainer,
    per_regime_metrics,
    render_regime_table,
    render_walkforward_table,
    run_walkforward,
)
from repro.experiments.runner import _front_spec
from repro.registry import (
    DEFAULT_REGISTRY,
    is_trainable,
    strategy_params_from_config,
)


class TestPerRegimeMetrics:
    def test_known_split(self):
        day = 86400
        t0 = parse_date("2020/01/01")
        schedule = RegimeSchedule(
            [("2020/01/01", BULL), ("2020/01/03", BEAR)]
        )
        timestamps = np.array([t0 + i * day for i in range(5)])
        # Returns: +10%, +10% (bull) then -50%, x2 (bear).
        values = np.array([1.0, 1.1, 1.21, 0.605, 1.21])
        out = per_regime_metrics(values, timestamps, schedule)
        assert set(out) == {"bull", "bear"}
        assert out["bull"]["fapv"] == pytest.approx(1.21)
        assert out["bull"]["periods"] == 2
        assert out["bull"]["mdd"] == 0.0
        assert out["bear"]["fapv"] == pytest.approx(1.0)
        assert out["bear"]["mdd"] == pytest.approx(0.5)
        assert out["bear"]["periods"] == 2

    def test_regime_fapvs_compound_to_total(self):
        rng = np.random.default_rng(3)
        day = 86400
        t0 = parse_date("2020/01/01")
        schedule = RegimeSchedule(
            [("2020/01/01", BULL), ("2020/02/01", BEAR)]
        )
        values = np.cumprod(1 + rng.normal(0, 0.02, size=60))
        timestamps = np.array([t0 + i * day for i in range(60)])
        out = per_regime_metrics(values, timestamps, schedule)
        total = np.prod([m["fapv"] for m in out.values()])
        assert total == pytest.approx(values[-1] / values[0])

    def test_shape_mismatch(self):
        schedule = RegimeSchedule([("2020/01/01", BULL)])
        with pytest.raises(ValueError):
            per_regime_metrics(np.ones(3), np.zeros(4), schedule)

    def test_degenerate_series(self):
        schedule = RegimeSchedule([("2020/01/01", BULL)])
        assert per_regime_metrics(
            np.ones(1), np.array([parse_date("2020/01/02")]), schedule
        ) == {}


# ----------------------------------------------------------------------
# The serial walk-forward loop the front replaced, frozen as the
# reference its fold records are checked against: the CLI's panel
# assembly plus the evaluator's per-strategy train/fine-tune/back-test
# loops (``Backtester.run_window`` inlined as ``window.split`` + ``run``).
# ----------------------------------------------------------------------
def frozen_walkforward(config, walk, strategies, seeds, execution=None, risk=None):
    start = walk.start or config.window.train_start
    end = walk.end or config.window.test_end
    folds = walk_forward_windows(
        start, end, walk.train_days, walk.test_days, walk.step_days,
        anchored=walk.anchored,
    )
    full = MarketGenerator(seed=config.market_seed).generate(
        start, end, config.period_seconds
    )
    assets = top_volume_assets(full, folds[0].test_start, k=config.num_assets)
    data = full.select_assets(assets)
    schedule = default_crypto_schedule()
    backtester = Backtester(
        observation=config.observation,
        commission=config.commission,
        execution=execution,
        risk=risk,
    )

    def backtest_fold(agent, strategy, seed, fold_index, window):
        _, test_panel = window.split(data)
        result = backtester.run(agent, test_panel)
        first = config.observation.first_decision_index()
        stamps = test_panel.timestamps[first : first + len(result.values)]
        metrics = {"fapv": result.fapv, "mdd": result.mdd, "sharpe": result.sharpe}
        if "implementation_shortfall" in result.extra:
            metrics["shortfall"] = result.extra["implementation_shortfall"]
        bindings = {}
        risk_summary = result.extra.get("risk")
        if risk_summary:
            metrics["violation_rate"] = float(risk_summary["violation_rate"])
            metrics["lockout_rate"] = float(risk_summary["lockout_rate"])
            bindings = {
                str(k): int(v)
                for k, v in risk_summary["binding_counts"].items()
            }
        return FoldRecord(
            fold=fold_index,
            strategy=strategy,
            seed=seed,
            window=window,
            metrics=metrics,
            regimes=per_regime_metrics(result.values, stamps, schedule),
            bindings=bindings,
        )

    records = []
    for strategy in strategies:
        if not is_trainable(strategy):
            agent = DEFAULT_REGISTRY.create(strategy)
            records.extend(
                backtest_fold(agent, strategy, seeds[0], k, window)
                for k, window in enumerate(folds)
            )
            continue
        for seed in seeds:
            params = strategy_params_from_config(
                strategy, config, n_assets=data.n_assets, seed=seed
            )
            agent = DEFAULT_REGISTRY.create(strategy, **params)
            optimizer = Adam(agent.parameters(), config.learning_rate)
            for k, window in enumerate(folds):
                steps = config.train_steps if k == 0 else walk.fine_tune_steps
                if steps > 0:
                    train_panel, _ = window.split(data)
                    make_trainer(
                        agent, train_panel, config, optimizer=optimizer,
                        seed=seed + 100_003 * k,
                    ).train(steps)
                records.append(backtest_fold(agent, strategy, seed, k, window))
    return records


CONFIG = make_config(1, profile="quick", train_steps=4, batch_size=16)
WALK = WalkForward(
    train_days=75, test_days=45, fine_tune_steps=2,
    start="2019/01/01", end="2019/10/01",
)
STRATEGIES = ("sdp", "jiang", "ucrp")
SEEDS = (1, 2)


@pytest.fixture(scope="module")
def wf_setup():
    return CONFIG, WALK, WALK.folds(CONFIG.window)


@pytest.fixture(scope="module")
def wf_report():
    return run_walkforward(CONFIG, WALK, STRATEGIES, SEEDS)


class TestWalkForwardEvaluator:
    """The walk-forward front (:func:`run_walkforward`): one sweep
    shard per (strategy, seed) walks every fold."""

    def test_record_counts(self, wf_setup, wf_report):
        _, _, folds = wf_setup
        sdp = [r for r in wf_report.records if r.strategy == "sdp"]
        ucrp = [r for r in wf_report.records if r.strategy == "ucrp"]
        # Learned: one pass per seed; classical: deterministic, one pass.
        assert len(sdp) == 2 * len(folds)
        assert len(ucrp) == len(folds)

    def test_metrics_finite_and_regimes_consistent(self, wf_report):
        for rec in wf_report.records:
            assert np.isfinite(rec.metrics["fapv"])
            assert 0 <= rec.metrics["mdd"] < 1
            assert rec.regimes
            total = np.prod([m["fapv"] for m in rec.regimes.values()])
            assert total == pytest.approx(rec.metrics["fapv"])

    def test_fold_aggregates(self, wf_setup, wf_report):
        _, _, folds = wf_setup
        rows = wf_report.fold_aggregates()
        assert len(rows) == len(STRATEGIES) * len(folds)
        for row in rows:
            if row["strategy"] == "ucrp":
                assert row["seeds"] == 1
            else:
                assert row["seeds"] == 2
            assert row["mdd_std"] >= 0

    def test_regime_aggregates(self, wf_report):
        rows = wf_report.regime_aggregates()
        assert rows
        strategies = {row["strategy"] for row in rows}
        assert strategies == set(STRATEGIES)
        for row in rows:
            assert row["periods"] > 0

    def test_tables_render(self, wf_report):
        fold_table = render_walkforward_table(wf_report)
        regime_table = render_regime_table(wf_report)
        assert "Walk-forward evaluation" in fold_table
        assert "±" in fold_table
        assert "Per-regime attribution" in regime_table

    def test_validation(self, wf_setup, tmp_path):
        config, walk, _ = wf_setup
        # Folds no shard could run fail when the spec is built, before
        # any shard attempt (no retries, nothing written to the store):
        # a back-test slice shorter than the observation's history, and
        # a training slice shorter than one minibatch of decisions.
        short = (
            (dataclasses.replace(walk, test_days=9), ("ucrp",), "test_days=9"),
            (dataclasses.replace(walk, train_days=13), ("sdp",), "train_days=13"),
        )
        for short_walk, strategies, message in short:
            with pytest.raises(ValueError, match=message):
                run_walkforward(
                    config, short_walk, strategies, (1,), store=tmp_path / "wf"
                )
            assert not (tmp_path / "wf").exists()
        # A classical walk trains nothing, so only its test span counts.
        assert _front_spec(
            config, ("ucrp",), seeds=(1,),
            walk=dataclasses.replace(walk, train_days=13),
        ).num_shards == 1
        with pytest.raises(ValueError, match="too short"):
            dataclasses.replace(walk, end="2019/04/01")  # no fold fits
        with pytest.raises(ValueError, match="seeds must be non-empty"):
            run_walkforward(config, walk, ("sdp",), seeds=())
        with pytest.raises(ValueError, match="non-negative step_days"):
            dataclasses.replace(walk, fine_tune_steps=-1)
        with pytest.raises(ValueError, match="too short"):
            # Default span: experiment 1's Table 1 window (three years).
            run_walkforward(
                config, WalkForward(train_days=1000, test_days=365),
                ("ucrp",), (1,),
            )

    def test_fine_tuning_changes_later_folds(self, wf_setup):
        # With fine-tuning off, fold k>0 reuses fold-0 weights verbatim;
        # with it on, later folds must diverge (the weights moved).
        config, walk, _ = wf_setup
        two_folds = dataclasses.replace(walk, end="2019/06/15")
        assert len(two_folds.folds(config.window)) == 2
        frozen = run_walkforward(
            config, dataclasses.replace(two_folds, fine_tune_steps=0),
            ("sdp",), (1,),
        )
        tuned = run_walkforward(
            config, dataclasses.replace(two_folds, fine_tune_steps=4),
            ("sdp",), (1,),
        )
        assert (
            frozen.records[0].metrics["fapv"]
            == tuned.records[0].metrics["fapv"]
        )
        assert (
            frozen.records[1].metrics["fapv"]
            != tuned.records[1].metrics["fapv"]
        )


class TestFoldParity:
    """The front's fold records equal the frozen serial loop's exactly:
    fold, strategy, seed, window, metrics, regimes and bindings."""

    @pytest.fixture(scope="class")
    def reference(self):
        return frozen_walkforward(CONFIG, WALK, STRATEGIES, SEEDS)

    def test_serial_front_matches_frozen_loop(self, wf_report, reference):
        assert len(reference) == 5 * len(WALK.folds(CONFIG.window))
        assert wf_report.records == reference

    def test_pooled_front_matches_frozen_loop(self, reference, tmp_path):
        report = run_walkforward(
            CONFIG, WALK, STRATEGIES, SEEDS, store=tmp_path, workers=2
        )
        assert len(report.sweep.ran) == 5
        assert report.records == reference
        # The same store resumes: every shard is skipped, same records.
        again = run_walkforward(CONFIG, WALK, STRATEGIES, SEEDS, store=tmp_path)
        assert (len(again.sweep.ran), len(again.sweep.skipped)) == (0, 5)
        assert again.records == reference

    def test_execution_and_risk_regimes_match_frozen_loop(self):
        walk = dataclasses.replace(WALK, end="2019/06/15")
        execution = ExecutionRegime("lin", "linear", 25.0)
        risk = RiskRegime("caps", "caps", max_weight=0.15)
        report = run_walkforward(
            CONFIG, walk, ("sdp", "ucrp"), (1,), execution=execution, risk=risk
        )
        reference = frozen_walkforward(
            CONFIG, walk, ("sdp", "ucrp"), (1,),
            execution=execution.build_engine(CONFIG.commission),
            risk=risk.build_engine(),
        )
        assert all("shortfall" in r.metrics for r in reference)
        assert all("violation_rate" in r.metrics for r in reference)
        assert report.records == reference


class TestWalkShards:
    def test_walk_shard_identity(self):
        spec = _front_spec(CONFIG, ("sdp",), seeds=(1,), walk=WALK)
        (walk_shard,) = spec.expand()
        (table3_shard,) = _front_spec(CONFIG, ("sdp",), seeds=(1,)).expand()
        assert walk_shard.shard_id.startswith("exp1-sdp-s1-paper-walk-")
        assert walk_shard.shard_id != table3_shard.shard_id
        assert dataclasses.replace(walk_shard, walk=None) == table3_shard
        fast = dataclasses.replace(walk_shard, backend="fast")
        assert fast.shard_id != walk_shard.shard_id
        assert "-walk-fast-" not in walk_shard.shard_id
        for item in (walk_shard, spec):
            back = type(item).from_json_dict(
                json.loads(json.dumps(item.to_json_dict()))
            )
            assert back == item and back.walk == WALK

    def test_walk_artifact_is_its_last_fold(self, tmp_path):
        report = run_walkforward(CONFIG, WALK, ("sdp",), (1,), store=tmp_path)
        store = ArtifactStore(tmp_path)
        (shard_id,) = store.list_shards()
        artifact = store.load_shard(shard_id)
        assert artifact.extra["folds"] == report.records
        assert artifact.metrics.fapv == report.records[-1].metrics["fapv"]
        # Fold 0's training history (a fine-tune fold logs its own
        # last step, fine_tune_steps, instead).
        assert artifact.history["steps"] == [CONFIG.train_steps]
