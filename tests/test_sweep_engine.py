"""Unit tests for the sharded sweep engine: specs, artifacts, the
process-pool runner, resume semantics, serving integration, and the
``python -m repro`` CLI."""

import dataclasses
import json

import numpy as np
import pytest

from repro.__main__ import main as cli_main
from repro.agents import PolicyTrainer, TrainConfig
from repro.autograd.optim import Adam
from repro.data import MarketGenerator
from repro.experiments import (
    ArtifactStore,
    CostRegime,
    ExecutionRegime,
    ExperimentSpec,
    RiskRegime,
    ShardSpec,
    SweepRunner,
    build_experiment_data,
    make_config,
    render_sweep_table,
    run_experiment,
)
from repro.experiments import engine as engine_mod
from repro.experiments import runner as runner_mod
from repro.experiments.engine import run_shard
from repro.registry import create as create_strategy
from repro.serving import PortfolioService

OVERRIDES = (("train_steps", 4),)


def make_spec(name="unit", strategies=("sdp", "ucrp"), seeds=(1, 2), **kw):
    return ExperimentSpec(
        name=name,
        profile="quick",
        experiments=(1,),
        strategies=strategies,
        seeds=seeds,
        overrides=OVERRIDES,
        **kw,
    )


@pytest.fixture(scope="module")
def serial_sweep(tmp_path_factory):
    root = tmp_path_factory.mktemp("serial")
    spec = make_spec()
    result = SweepRunner(spec, root).run()
    return spec, ArtifactStore(root), result


class TestSpec:
    def test_expansion_grid(self):
        spec = make_spec(seeds=(1, 2, 3))
        shards = spec.expand()
        # Learned strategies cross the seed axis; deterministic
        # classical baselines expand to one shard per cell.
        assert len(shards) == spec.num_shards == 3 + 1
        assert [s.shard_id for s in shards] == [s.shard_id for s in spec.expand()]
        assert len({s.shard_id for s in shards}) == len(shards)
        ucrp = [s for s in shards if s.strategy == "ucrp"]
        assert len(ucrp) == 1 and ucrp[0].seed == 1

    def test_shard_id_covers_overrides(self):
        a = make_spec().expand()[0]
        b = ExperimentSpec(
            name="unit", profile="quick", experiments=(1,),
            strategies=("sdp", "ucrp"), seeds=(1, 2),
            overrides=(("train_steps", 5),),
        ).expand()[0]
        assert a.shard_id != b.shard_id

    def test_json_round_trip(self):
        spec = make_spec(cost_regimes=(CostRegime("zero", 0.0),))
        back = ExperimentSpec.from_json_dict(
            json.loads(json.dumps(spec.to_json_dict()))
        )
        assert back == spec
        shard = spec.expand()[0]
        shard_back = ShardSpec.from_json_dict(
            json.loads(json.dumps(shard.to_json_dict()))
        )
        assert shard_back == shard
        assert shard_back.shard_id == shard.shard_id

    def test_config_wiring(self):
        shard = ExperimentSpec(
            name="w", profile="quick", strategies=("sdp",), seeds=(42,),
            cost_regimes=(CostRegime("zero", 0.0),), overrides=OVERRIDES,
        ).expand()[0]
        config = shard.config()
        assert config.agent_seed == 42
        assert config.commission == 0.0
        assert config.train_steps == 4
        # Market seed stays the profile default: same panel across seeds.
        assert config.market_seed == make_config(1, "quick").market_seed

    def test_validation(self):
        with pytest.raises(ValueError):
            make_spec(strategies=())
        with pytest.raises(ValueError):
            make_spec(cost_regimes=(CostRegime("a"), CostRegime("a", 0.0)))
        with pytest.raises(ValueError):
            CostRegime("neg", -0.1)


_COST = '"cost": {"__type__": "CostRegime", "commission": 0.0025, "name": "paper"}, '
_IDEAL = (
    '"execution": {"__type__": "ExecutionRegime", "adv_window_days": 1.0, '
    '"impact_coef": 0.0, "max_participation": 0.05, "model": "zero", '
    '"name": "ideal", "portfolio_notional": 1000000.0}, '
)
_NO_RISK = (
    '"risk": {"__type__": "RiskRegime", "lockout_periods": 0, '
    '"max_drawdown": 0.0, "max_turnover": 0.0, "max_weight": 0.0, '
    '"min_cash": 0.0, "name": "none", "preset": "none"}, '
)
_HEAD = '"experiment": 1, "overrides": {}, "profile": "quick", '
_TAIL = '"seed": 7, "strategy": "sdp", "sweep": "pin"}'


class TestPinnedShardIdentity:
    """Reference shard identities, frozen as literals.

    A shard's id keys its artifacts in every existing store, so a new
    spec field that re-keys (or re-serialises) reference shards must
    fail here rather than silently orphan committed work.
    """

    @pytest.mark.parametrize(
        "kwargs,shard_id,payload",
        [
            (
                {},
                "exp1-sdp-s7-paper-ae1b07ce",
                "{" + _COST + _IDEAL + _HEAD + _NO_RISK + _TAIL,
            ),
            (
                {"execution": ExecutionRegime("lin", "linear", 25.0)},
                "exp1-sdp-s7-paper-lin-8c9917b2",
                "{" + _COST
                + '"execution": {"__type__": "ExecutionRegime", '
                '"adv_window_days": 1.0, "impact_coef": 25.0, '
                '"max_participation": 0.05, "model": "linear", '
                '"name": "lin", "portfolio_notional": 1000000.0}, '
                + _HEAD + _NO_RISK + _TAIL,
            ),
            (
                {"risk": RiskRegime("caps", "caps")},
                "exp1-sdp-s7-paper-caps-78f0e62e",
                "{" + _COST + _IDEAL + _HEAD
                + '"risk": {"__type__": "RiskRegime", "lockout_periods": 0, '
                '"max_drawdown": 0.0, "max_turnover": 0.0, "max_weight": 0.35, '
                '"min_cash": 0.05, "name": "caps", "preset": "caps"}, '
                + _TAIL,
            ),
            (
                {"backend": "fast"},
                "exp1-sdp-s7-paper-fast-fe0913ce",
                '{"backend": "fast", ' + _COST + _IDEAL + _HEAD + _NO_RISK + _TAIL,
            ),
        ],
        ids=["default", "execution", "risk", "backend"],
    )
    def test_reference_shard_identity(self, kwargs, shard_id, payload):
        shard = ShardSpec(
            sweep="pin", profile="quick", experiment=1, strategy="sdp",
            seed=7, cost=CostRegime("paper", 0.0025), **kwargs,
        )
        assert shard.shard_id == shard_id
        assert json.dumps(shard.to_json_dict(), sort_keys=True) == payload


class TestArtifactStore:
    def test_missing_and_incomplete_shards(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert not store.has_shard("nope")
        assert store.list_shards() == []
        # A partial directory (killed worker) reads as absent.
        partial = store.shard_dir("half")
        partial.mkdir(parents=True)
        (partial / "series.npz").write_bytes(b"junk")
        assert not store.has_shard("half")
        with pytest.raises(FileNotFoundError):
            store.load_shard_metrics("half")

    def test_round_trip(self, serial_sweep):
        spec, store, result = serial_sweep
        for outcome in result.outcomes:
            artifact = store.load_shard(outcome.shard_id)
            assert artifact.shard == outcome.shard
            assert artifact.metrics.fapv == pytest.approx(
                outcome.metrics["fapv"]
            )
            bt = artifact.to_backtest_result()
            assert bt.values.shape[0] == bt.weights.shape[0] + 1
            if outcome.shard.strategy == "sdp":
                assert artifact.weights_state is not None
                assert artifact.history is not None
            else:
                assert artifact.weights_state is None

    def test_list_shards(self, serial_sweep):
        spec, store, result = serial_sweep
        assert store.list_shards() == sorted(o.shard_id for o in result.outcomes)

    def test_load_agent_restores_weights(self, serial_sweep):
        spec, store, result = serial_sweep
        sdp_id = next(
            o.shard_id for o in result.outcomes if o.shard.strategy == "sdp"
        )
        agent = store.load_agent(sdp_id)
        saved = store.load_shard(sdp_id).weights_state
        for key, value in agent.network.state_dict().items():
            assert np.array_equal(value, saved[key])


class TestSweepEngine:
    def test_all_ran_and_manifest(self, serial_sweep):
        spec, store, result = serial_sweep
        assert result.complete
        assert [o.status for o in result.outcomes] == ["ran"] * 3
        manifest = store.read_manifest()
        assert manifest["complete"] is True
        assert len(manifest["shards"]) == 3
        assert ExperimentSpec.from_json_dict(manifest["spec"]) == spec

    def test_resume_skips_committed(self, serial_sweep):
        spec, store, _ = serial_sweep
        again = SweepRunner(spec, store).run()
        assert [o.status for o in again.outcomes] == ["skipped"] * 3

    def test_max_shards_then_resume(self, tmp_path):
        spec = make_spec(strategies=("ucrp", "bah"), seeds=(1,))
        first = SweepRunner(spec, tmp_path).run(max_shards=1)
        assert len(first.ran) == 1 and len(first.pending) == 1
        assert not first.complete
        assert not ArtifactStore(tmp_path).read_manifest()["complete"]
        second = SweepRunner(spec, tmp_path).run()
        assert len(second.skipped) == 1 and len(second.ran) == 1
        assert second.complete

    def test_parallel_bit_identical_to_serial(self, serial_sweep, tmp_path):
        spec, serial_store, _ = serial_sweep
        pooled = SweepRunner(spec, tmp_path, max_workers=2).run(parallel=True)
        assert [o.status for o in pooled.outcomes] == ["ran"] * 3
        pool_store = ArtifactStore(tmp_path)
        for shard_id in serial_store.list_shards():
            a = serial_store.load_shard(shard_id)
            b = pool_store.load_shard(shard_id)
            for key in a.series:
                assert np.array_equal(a.series[key], b.series[key]), (
                    shard_id, key,
                )
            if a.weights_state is not None:
                for key in a.weights_state:
                    assert np.array_equal(
                        a.weights_state[key], b.weights_state[key]
                    ), (shard_id, key)
            assert a.metrics == b.metrics

    def test_pool_workers_get_the_blas_budget(self, tmp_path, monkeypatch):
        from repro.experiments import engine
        from repro.utils import blas

        read_back = []

        class RecordingPool(engine.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                read_back.append(self.submit(blas.blas_threads).result())

        monkeypatch.setattr(engine, "ProcessPoolExecutor", RecordingPool)
        spec = make_spec(strategies=("ucrp", "bah"), seeds=(1,))
        result = SweepRunner(spec, tmp_path, max_workers=2).run(parallel=True)
        assert result.complete
        assert read_back == [blas.worker_budget(2)]

    def test_pooled_shards_record_their_wall_clock(self, tmp_path):
        spec = make_spec(strategies=("ucrp", "bah"), seeds=(1,))
        result = SweepRunner(spec, tmp_path, max_workers=2).run(parallel=True)
        assert [o.status for o in result.outcomes] == ["ran", "ran"]
        assert all(o.elapsed > 0 for o in result.outcomes)

    def test_shard_determinism_standalone(self, serial_sweep, tmp_path):
        # Same shard re-run in a fresh store, outside any sweep context,
        # lands bit-identical artifacts: nothing depends on run order.
        spec, serial_store, _ = serial_sweep
        shard = spec.expand()[0]
        run_shard(shard, str(tmp_path))
        a = serial_store.load_shard(shard.shard_id)
        b = ArtifactStore(tmp_path).load_shard(shard.shard_id)
        for key in a.series:
            assert np.array_equal(a.series[key], b.series[key])

    def test_aggregates(self, serial_sweep):
        spec, _, result = serial_sweep
        rows = result.aggregate()
        assert len(rows) == 2  # (exp1, sdp), (exp1, ucrp)
        by_strategy = {r["strategy"]: r for r in rows}
        assert by_strategy["sdp"]["seeds"] == 2
        # UCRP is deterministic: one shard, zero spread.
        assert by_strategy["ucrp"]["seeds"] == 1
        assert by_strategy["ucrp"]["fapv_std"] == 0.0
        table = render_sweep_table(result)
        assert "sdp" in table and "±" in table


class TestRunFront:
    def test_front_rejects_a_config_the_spec_cannot_carry(self):
        # make_config fixes the surrogate window and the LIF constants,
        # and knows no "bespoke" profile, so no spec reproduces these.
        config = make_config(1, profile="quick")
        for changed in (
            dataclasses.replace(config, surrogate_window=0.3),
            dataclasses.replace(
                config, lif=dataclasses.replace(config.lif, v_threshold=0.4)
            ),
            dataclasses.replace(config, profile="bespoke"),
        ):
            with pytest.raises(ValueError, match="exp1-"):
                run_experiment(changed, strategies=("ucrp",))


    def test_unknown_strategy_fails_before_any_shard(
        self, tmp_path, monkeypatch
    ):
        """An unknown registry key is a ``ValueError`` naming it and the
        available keys, raised before any shard attempt (no retries)."""
        attempts = []
        monkeypatch.setattr(
            engine_mod, "_run_shard_observed",
            lambda *args, **kwargs: attempts.append(args),
        )
        with pytest.raises(ValueError, match="unknown strategy 'nope'.*ucrp"):
            run_experiment(make_config(1, "quick"), strategies=("nope",))
        with pytest.raises(ValueError, match="unknown strategy 'nope'.*ucrp"):
            cli_main([
                "sweep", "--store", str(tmp_path / "store"), "--profile",
                "quick", "--strategies", "nope", "--seeds", "1", "--serial",
            ])
        assert attempts == []

    def test_market_generated_once_per_experiment(self, monkeypatch):
        """A serial multi-strategy run generates its market once: every
        shard, the result's ``test_data`` and a later build of the
        config's hold-out panel cut it from the one cached panel."""
        runner_mod._experiment_data.cache_clear()
        calls = []
        generate = MarketGenerator.generate
        monkeypatch.setattr(
            MarketGenerator, "generate",
            lambda self, *args, **kwargs: (
                calls.append(args), generate(self, *args, **kwargs)
            )[1],
        )
        config = make_config(1, "quick")
        result = run_experiment(config, strategies=("ucrp", "crp", "ons"))
        held_out = build_experiment_data(config).test
        assert len(calls) == 1 and len(result.backtests) == 3
        assert np.array_equal(result.test_data.close, held_out.close)
        assert np.array_equal(result.test_data.timestamps, held_out.timestamps)


class TestServingFromArtifact:
    def test_sessions_share_trained_agent(self, serial_sweep):
        spec, store, result = serial_sweep
        sdp_id = next(
            o.shard_id for o in result.outcomes if o.shard.strategy == "sdp"
        )
        artifact = store.load_shard(sdp_id)
        config = make_config(1, "quick")
        panel = (
            MarketGenerator(seed=config.market_seed)
            .generate("2019/01/01", "2019/06/01", config.period_seconds)
            .select_assets(artifact.extra["assets"])
        )
        service = PortfolioService()
        service.register_market("m", panel)
        info_a = service.create_session_from_artifact(
            "a", store=store, shard_id=sdp_id, market="m"
        )
        info_b = service.create_session_from_artifact(
            "b", store=store.root, shard_id=sdp_id, market="m"
        )
        assert info_a.shared_agent and info_b.shared_agent
        agent_a = service._sessions["a"].agent
        assert agent_a is service._sessions["b"].agent
        for key, value in agent_a.network.state_dict().items():
            assert np.array_equal(value, artifact.weights_state[key])
        response = service.rebalance("a")
        assert response.weights.sum() == pytest.approx(1.0)

    def test_checkpoint_keeps_artifact_agents_separate(
        self, serial_sweep, tmp_path
    ):
        # Regression: restoring a checkpointed artifact session must not
        # republish the trained agent under the spec-canonical key — a
        # later plain same-spec session gets a fresh initialisation, not
        # the artifact's trained weights.
        spec, store, result = serial_sweep
        sdp_id = next(
            o.shard_id for o in result.outcomes if o.shard.strategy == "sdp"
        )
        artifact = store.load_shard(sdp_id)
        config = make_config(1, "quick")
        panel = (
            MarketGenerator(seed=config.market_seed)
            .generate("2019/01/01", "2019/06/01", config.period_seconds)
            .select_assets(artifact.extra["assets"])
        )
        service = PortfolioService()
        service.register_market("m", panel)
        service.create_session_from_artifact(
            "live", store=store, shard_id=sdp_id, market="m"
        )
        service.save_checkpoint(tmp_path / "ckpt")
        restored = PortfolioService.load_checkpoint(tmp_path / "ckpt")
        # The restored session still serves the trained weights...
        live = restored._sessions["live"].agent
        for key, value in live.network.state_dict().items():
            assert np.array_equal(value, artifact.weights_state[key])
        # ...but a plain session with the identical spec gets its own
        # freshly-initialised agent.
        spec_dict = store.load_strategy_spec(sdp_id)
        restored.create_session(
            "fresh", strategy=spec_dict["strategy"],
            params=spec_dict["params"], market="m",
        )
        fresh = restored._sessions["fresh"].agent
        assert fresh is not live
        diffs = [
            np.abs(v - fresh.network.state_dict()[k]).max()
            for k, v in live.network.state_dict().items()
        ]
        assert max(diffs) > 0

    def test_prebuilt_agent_mismatched_panel_rejected(self, tmp_path):
        config = make_config(1, "quick")
        panel = (
            MarketGenerator(seed=0)
            .generate("2019/01/01", "2019/04/01", config.period_seconds)
        )
        wrong = create_strategy("sdp", n_assets=panel.n_assets + 1)
        service = PortfolioService()
        with pytest.raises(ValueError, match="assets"):
            service.create_session("s", strategy="sdp", data=panel, agent=wrong)


class TestTrainerResume:
    @staticmethod
    def _make(use_fused, seed=5):
        config = make_config(1, profile="quick", train_steps=8, batch_size=16)
        data = build_experiment_data(config)
        agent = create_strategy(
            "sdp",
            n_assets=len(data.assets),
            observation=config.observation,
            hidden_sizes=(8, 8),
            encoder_pop_size=2,
            decoder_pop_size=2,
            seed=seed,
        )
        trainer = PolicyTrainer(
            agent,
            data.train,
            Adam(agent.parameters(), 1e-3),
            observation=config.observation,
            config=TrainConfig(
                steps=8, batch_size=16, permute_assets=True, log_every=2
            ),
            seed=seed,
            use_fused=use_fused,
        )
        return agent, trainer

    @pytest.mark.parametrize("use_fused", [False, True], ids=["graph", "fused"])
    def test_resume_matches_straight_run(self, use_fused):
        agent_a, trainer_a = self._make(use_fused)
        history_a = trainer_a.train(8)

        agent_b, trainer_b = self._make(use_fused)
        trainer_b.train(4)
        snapshot = trainer_b.state_dict()
        weights = agent_b.network.state_dict()

        # Cold process restart: fresh agent + trainer, state loaded back.
        agent_c, trainer_c = self._make(use_fused)
        agent_c.network.load_state_dict(weights)
        trainer_c.load_state_dict(snapshot)
        assert trainer_c.completed_steps == 4
        history_c = trainer_c.train(4)

        for key, value in agent_a.network.state_dict().items():
            assert np.array_equal(value, agent_c.network.state_dict()[key]), key
        assert np.array_equal(trainer_a.pvm.snapshot(), trainer_c.pvm.snapshot())
        # Resumed history continues the straight run's step numbering.
        assert history_c.steps == history_a.steps[len(history_a.steps) // 2:]
        assert history_c.loss == history_a.loss[len(history_a.loss) // 2:]

    def test_optimizer_state_validation(self):
        _, trainer = self._make(use_fused=True)
        state = trainer.optimizer.state_dict()
        state["_m"] = state["_m"][:-1]
        with pytest.raises(ValueError):
            trainer.optimizer.load_state_dict(state)


class TestCLI:
    def test_sweep_resume_cycle(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        args = [
            "sweep", "--store", store, "--profile", "quick",
            "--strategies", "ucrp", "bah", "--seeds", "1",
            "--train-steps", "4", "--serial",
        ]
        # Simulate an interruption after shard 1, then resume.
        assert cli_main(args + ["--max-shards", "1"]) == 3
        first = capsys.readouterr().out
        assert first.count("[    ran]") == 1 and "1 pending" in first
        assert cli_main(args) == 0
        second = capsys.readouterr().out
        assert second.count("[skipped]") == 1
        assert second.count("[    ran]") == 1
        manifest = ArtifactStore(store).read_manifest()
        assert manifest["complete"] is True

    def test_run_store_serves_sdp_shard(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        code = cli_main(
            [
                "run", "--profile", "quick", "--train-steps", "4",
                "--no-baselines", "--store", store,
            ]
        )
        assert code == 0
        assert "Table 3" in capsys.readouterr().out
        artifacts = ArtifactStore(store)
        shard_ids = artifacts.list_shards()
        assert [artifacts.load_strategy_spec(s)["strategy"] for s in shard_ids] == [
            "jiang", "sdp",
        ]
        assert artifacts.read_manifest()["complete"] is True
        sdp_id = shard_ids[1]
        config = make_config(1, profile="quick", train_steps=4)
        service = PortfolioService(commission=config.commission)
        service.register_market("poloniex", build_experiment_data(config).test)
        service.create_session_from_artifact(
            "alice", store, sdp_id, market="poloniex"
        )
        served = service._sessions["alice"].agent.network.state_dict()
        for key, value in artifacts.load_shard(sdp_id).weights_state.items():
            assert np.array_equal(served[key], value), key
        response = service.rebalance("alice")
        assert response.weights.shape == (config.num_assets + 1,)
        assert response.weights.sum() == pytest.approx(1.0)

    def test_walkforward_command(self, capsys):
        code = cli_main(
            [
                "walkforward", "--profile", "quick", "--train-steps", "4",
                "--start", "2019/01/01", "--end", "2019/08/01",
                "--train-days", "75", "--test-days", "60",
                "--strategies", "ucrp", "--seeds", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Walk-forward evaluation" in out
        assert "Per-regime attribution" in out
