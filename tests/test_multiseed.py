"""Tests for cross-seed vectorized training and the backend seam.

Gates the stacked multi-seed tape against serial closure-graph
training: per-seed RNG-stream purity (``GeometricBatchSampler.for_seed``),
bit-identical weights/PVM/histories after full ``train()`` runs for both
SDP architectures and the EIIE network (and, at S in {1, 4, 10}, against
serial fused runs of a (32, 32) network on a year-long panel), resume from ``state_dict``, the
float32 fast tier's documented tolerance (and its exclusion from every
exactness check), and the fast tier per sweep shard: a seed trained
alone equals its stacked slice, the backend is part of a shard's
identity, and a fast sweep pools, resumes and retries like a reference
one.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.__main__ import main as cli_main
from repro.agents import (
    JiangDRLAgent,
    MultiSeedTrainer,
    PolicyTrainer,
    SDPAgent,
    TrainConfig,
)
from repro.autograd.optim import SGD, Adam, RMSProp
from repro.backend import FAST, REFERENCE, resolve_backend
from repro.data import MarketGenerator
from repro.envs import ObservationConfig
from repro.envs.sampling import GeometricBatchSampler
from repro.experiments import (
    ArtifactStore,
    CostRegime,
    ExperimentSpec,
    NO_RISK,
    SweepRunner,
    ZERO_EXECUTION,
    build_experiment_data,
    make_config,
    make_trainer,
)
from repro.registry import strategy_from_config
from repro.resilience import FaultPlan, SweepFaults
from repro.utils.rng import make_rng

CFG = ObservationConfig(window=6, stride=1, momentum_horizons=(1, 3, 6))
N_ASSETS = 4
SDP_PARAMS = dict(
    hidden_sizes=(8, 8),
    timesteps=3,
    encoder_pop_size=2,
    decoder_pop_size=2,
    surrogate_amplifier=5.0,
)
TRAIN = TrainConfig(steps=200, batch_size=8, permute_assets=True)
SEEDS = [3, 11, 4]


@pytest.fixture(scope="module")
def panel():
    return (
        MarketGenerator(seed=31)
        .generate("2019/01/01", "2019/02/01", 7200)
        .select_assets(list(range(N_ASSETS)))
    )


def _sdp(seed, architecture="shared"):
    return SDPAgent(
        N_ASSETS, observation=CFG, architecture=architecture, seed=seed, **SDP_PARAMS
    )


def _serial_run(agent, panel, optimizer, seed, steps=None, snapshot_at=None):
    # The closure-graph path: an oracle independent of the fused kernels
    # (a fused PolicyTrainer is the multi-seed trainer at S = 1).
    trainer = PolicyTrainer(
        agent, panel, optimizer, observation=CFG, config=TRAIN, seed=seed,
        use_fused=False,
    )
    snapshots = {}

    def callback(step, stats):
        if snapshot_at and step in snapshot_at:
            snapshots[step] = {
                k: v.copy() for k, v in agent.network.state_dict().items()
            }

    history = trainer.train(steps, callback=callback if snapshot_at else None)
    return trainer, history, snapshots


def _assert_states_equal(a, b, context=""):
    assert set(a) == set(b)
    for k in a:
        assert np.array_equal(a[k], b[k]), f"{context}: {k} diverged"


# ----------------------------------------------------------------------
# Seed-stream purity
# ----------------------------------------------------------------------
def test_for_seed_matches_explicit_rng_stream():
    direct = GeometricBatchSampler(10, 300, 8, rng=make_rng(17))
    derived = GeometricBatchSampler.for_seed(10, 300, 8, seed=17)
    for _ in range(50):
        assert np.array_equal(direct.sample(), derived.sample())


def test_for_seed_streams_are_independent():
    a = GeometricBatchSampler.for_seed(10, 300, 8, seed=17)
    b = GeometricBatchSampler.for_seed(10, 300, 8, seed=18)
    draws_a = np.concatenate([a.sample() for _ in range(20)])
    draws_b = np.concatenate([b.sample() for _ in range(20)])
    assert not np.array_equal(draws_a, draws_b)

    # A seed's stream must not depend on how many other samplers exist:
    # re-derive seed 17 after seed 18 has drawn and the stream repeats.
    again = GeometricBatchSampler.for_seed(10, 300, 8, seed=17)
    assert np.array_equal(
        draws_a, np.concatenate([again.sample() for _ in range(20)])
    )


# ----------------------------------------------------------------------
# Bit-parity: S stacked seeds == S serial runs, exactly
# ----------------------------------------------------------------------
def test_multiseed_matches_serial_shared_sdp(panel):
    serial = []
    for seed in SEEDS:
        agent = _sdp(seed)
        trainer, history, snaps = _serial_run(
            agent, panel, Adam(agent.parameters(), 1e-3), seed,
            snapshot_at={100},
        )
        serial.append((agent, trainer, history, snaps))

    agents = [_sdp(seed) for seed in SEEDS]
    multi = MultiSeedTrainer(
        agents, panel,
        [Adam(agent.parameters(), 1e-3) for agent in agents],
        observation=CFG, config=TRAIN, seeds=SEEDS,
    )
    snapshots = {}

    def callback(step, stats):
        if step == 100:
            snapshots[step] = [
                {k: v.copy() for k, v in agent.network.state_dict().items()}
                for agent in agents
            ]

    histories = multi.train(callback=callback)

    for s, (ref_agent, ref_trainer, ref_history, ref_snaps) in enumerate(serial):
        _assert_states_equal(
            agents[s].network.state_dict(),
            ref_agent.network.state_dict(),
            f"seed {SEEDS[s]} final weights",
        )
        assert np.array_equal(
            multi.pvms[s].snapshot(), ref_trainer.pvm.snapshot()
        ), f"seed {SEEDS[s]} PVM diverged"
        assert histories[s].steps == ref_history.steps
        assert histories[s].loss == ref_history.loss
        assert histories[s].reward == ref_history.reward
        # Mid-run snapshot: the whole weight *trajectory* matches, not
        # just the endpoint.
        _assert_states_equal(
            snapshots[100][s], ref_snaps[100], f"seed {SEEDS[s]} @100"
        )


def test_multiseed_matches_serial_monolithic_sdp(panel):
    arch = "monolithic"
    serial = []
    for seed in SEEDS:
        agent = _sdp(seed, architecture=arch)
        trainer, history, _ = _serial_run(
            agent, panel, SGD(agent.parameters(), 1e-4), seed
        )
        serial.append((agent, trainer, history))

    agents = [_sdp(seed, architecture=arch) for seed in SEEDS]
    multi = MultiSeedTrainer(
        agents, panel,
        [SGD(agent.parameters(), 1e-4) for agent in agents],
        observation=CFG, config=TRAIN, seeds=SEEDS,
    )
    histories = multi.train()
    for s, (ref_agent, ref_trainer, ref_history) in enumerate(serial):
        _assert_states_equal(
            agents[s].network.state_dict(),
            ref_agent.network.state_dict(),
            f"{arch} seed {SEEDS[s]}",
        )
        assert np.array_equal(multi.pvms[s].snapshot(), ref_trainer.pvm.snapshot())
        assert histories[s].loss == ref_history.loss


@pytest.mark.parametrize(
    "make_opt",
    [
        lambda p: RMSProp(p, 1e-4, weight_decay=1e-3),
        lambda p: SGD(p, 1e-4, momentum=0.9, weight_decay=1e-2),
        lambda p: Adam(p, 1e-3, weight_decay=1e-2),
    ],
    ids=["rmsprop", "sgd-momentum-wd", "adam-wd"],
)
def test_banked_optimizer_matches_serial(panel, make_opt):
    """The bank-wide update (one ``_update`` call per parameter bank)
    reproduces each seed's own per-parameter ``Optimizer.step``."""
    steps = 40
    serial = []
    for seed in SEEDS:
        agent = _sdp(seed)
        trainer, _, _ = _serial_run(
            agent, panel, make_opt(agent.parameters()), seed, steps=steps
        )
        serial.append((agent, trainer))

    agents = [_sdp(seed) for seed in SEEDS]
    optimizers = [make_opt(agent.parameters()) for agent in agents]
    multi = MultiSeedTrainer(
        agents, panel, optimizers, observation=CFG, config=TRAIN, seeds=SEEDS,
    )
    assert multi._opt_exec is not None  # the banked executor, not the loop
    multi.train(steps)
    for s, (ref_agent, ref_trainer) in enumerate(serial):
        _assert_states_equal(
            agents[s].network.state_dict(),
            ref_agent.network.state_dict(),
            f"seed {SEEDS[s]}",
        )
        banked, ref = optimizers[s].state_dict(), ref_trainer.optimizer.state_dict()
        assert banked.keys() == ref.keys()
        assert banked["step_count"] == ref["step_count"] == steps
        for name in type(optimizers[s])._state_buffer_names:
            assert all(map(np.array_equal, banked[name], ref[name])), name
        assert np.array_equal(multi.pvms[s].snapshot(), ref_trainer.pvm.snapshot())


def test_multiseed_matches_serial_jiang(panel):
    def make(seed):
        return JiangDRLAgent(N_ASSETS, observation=CFG, seed=seed)

    serial = []
    for seed in SEEDS:
        agent = make(seed)
        trainer, history, _ = _serial_run(
            agent, panel, SGD(agent.parameters(), 1e-4), seed
        )
        serial.append((agent, trainer, history))

    agents = [make(seed) for seed in SEEDS]
    multi = MultiSeedTrainer(
        agents, panel,
        [SGD(agent.parameters(), 1e-4) for agent in agents],
        observation=CFG, config=TRAIN, seeds=SEEDS,
    )
    histories = multi.train()
    for s, (ref_agent, ref_trainer, ref_history) in enumerate(serial):
        _assert_states_equal(
            agents[s].network.state_dict(),
            ref_agent.network.state_dict(),
            f"jiang seed {SEEDS[s]}",
        )
        assert np.array_equal(multi.pvms[s].snapshot(), ref_trainer.pvm.snapshot())
        assert histories[s].loss == ref_history.loss


BENCH_TRAIN = TrainConfig(steps=200, batch_size=32, permute_assets=True)


@pytest.fixture(scope="module")
def bench_serial_runs(bench_train_panel, bench_trainee):
    """Final weights and PVM of seeds 0..9, each trained alone for 200
    fused steps: what a seed sweep runs shard by shard."""
    runs = []
    for seed in range(10):
        agent = bench_trainee(seed)
        trainer = PolicyTrainer(
            agent, bench_train_panel, SGD(agent.parameters(), 1e-5),
            observation=CFG, config=BENCH_TRAIN, seed=seed, use_fused=True,
        )
        trainer.train()
        runs.append((agent.network.state_dict(), trainer.pvm.snapshot()))
    return runs


@pytest.mark.parametrize("n_seeds", [1, 4, 10])
def test_multiseed_matches_serial_at_bench_scale(
    bench_train_panel, bench_trainee, bench_serial_runs, n_seeds
):
    agents = [bench_trainee(seed) for seed in range(n_seeds)]
    multi = MultiSeedTrainer(
        agents, bench_train_panel,
        [SGD(agent.parameters(), 1e-5) for agent in agents],
        observation=CFG, config=BENCH_TRAIN, seeds=list(range(n_seeds)),
    )
    multi.train()
    for s, agent in enumerate(agents):
        weights, pvm = bench_serial_runs[s]
        _assert_states_equal(
            agent.network.state_dict(), weights, f"S={n_seeds} seed {s}"
        )
        assert np.array_equal(multi.pvms[s].snapshot(), pvm), f"seed {s} PVM"


# ----------------------------------------------------------------------
# Fast tier: close but never "exact", and never silently substituted
# ----------------------------------------------------------------------
def test_fast_backend_within_tolerance_reference_exact(panel):
    seed = SEEDS[0]
    ref_agent = _sdp(seed)
    _serial_run(ref_agent, panel, SGD(ref_agent.parameters(), 1e-4), seed)
    reference = ref_agent.network.state_dict()

    def train(backend):
        agent = _sdp(seed)
        MultiSeedTrainer(
            [agent], panel, [SGD(agent.parameters(), 1e-4)],
            observation=CFG, config=TRAIN, seeds=[seed], backend=backend,
        ).train()
        return agent.network.state_dict()

    exact = train(REFERENCE)
    _assert_states_equal(exact, reference, "reference backend")

    fast = train(FAST)
    max_dev = max(
        float(np.max(np.abs(fast[k] - reference[k]))) for k in reference
    )
    assert max_dev <= 1e-6, f"fast tier drifted {max_dev:.2e} > 1e-6"
    # float32 must actually be the fast path — bit-equality with the
    # float64 run would mean the tier silently fell back to reference.
    assert any(not np.array_equal(fast[k], reference[k]) for k in reference)


def test_fast_backend_rejects_jiang(panel):
    agents = [JiangDRLAgent(N_ASSETS, observation=CFG, seed=s) for s in SEEDS]
    with pytest.raises(ValueError, match="fast backend"):
        MultiSeedTrainer(
            agents, panel,
            [SGD(agent.parameters(), 1e-4) for agent in agents],
            observation=CFG, config=TRAIN, seeds=SEEDS, backend="fast",
        )


def test_backend_resolution():
    assert resolve_backend(None) is REFERENCE
    assert resolve_backend("fast") is FAST
    assert resolve_backend(FAST) is FAST
    with pytest.raises(ValueError):
        resolve_backend("float16")


# ----------------------------------------------------------------------
# Resume: state_dict + fresh trainer continues the exact sequence
# ----------------------------------------------------------------------
def test_multiseed_resume_matches_straight_run(panel):
    seeds = SEEDS[:2]

    def make():
        agents = [_sdp(seed) for seed in seeds]
        trainer = MultiSeedTrainer(
            agents, panel,
            [Adam(agent.parameters(), 1e-3) for agent in agents],
            observation=CFG, config=TRAIN, seeds=seeds,
        )
        return agents, trainer

    straight_agents, straight = make()
    straight.train(8)

    agents_b, trainer_b = make()
    trainer_b.train(4)
    snapshot = trainer_b.state_dict()
    weights = [agent.network.state_dict() for agent in agents_b]

    # Cold restart: fresh agents + trainer, both states loaded back.
    agents_c, trainer_c = make()
    for agent, state in zip(agents_c, weights):
        agent.network.load_state_dict(state)
    trainer_c.load_state_dict(snapshot)
    assert trainer_c.completed_steps == 4
    trainer_c.train(4)

    for s, seed in enumerate(seeds):
        _assert_states_equal(
            agents_c[s].network.state_dict(),
            straight_agents[s].network.state_dict(),
            f"seed {seed} resumed",
        )
        assert np.array_equal(
            trainer_c.pvms[s].snapshot(), straight.pvms[s].snapshot()
        )
        resumed = trainer_c.optimizers[s].state_dict()
        ref = straight.optimizers[s].state_dict()
        assert resumed["step_count"] == ref["step_count"] == 8
        for name in Adam._state_buffer_names:
            assert all(map(np.array_equal, resumed[name], ref[name])), name


# ----------------------------------------------------------------------
# Constructor validation
# ----------------------------------------------------------------------
def test_multiseed_validation(panel):
    with pytest.raises(ValueError, match="at least one"):
        MultiSeedTrainer([], panel, [])
    agents = [_sdp(0), _sdp(1)]
    with pytest.raises(ValueError, match="optimizers"):
        MultiSeedTrainer(
            agents, panel, [SGD(agents[0].parameters(), 1e-4)],
            observation=CFG, config=TRAIN,
        )
    with pytest.raises(ValueError, match="seeds"):
        MultiSeedTrainer(
            agents, panel,
            [SGD(agent.parameters(), 1e-4) for agent in agents],
            observation=CFG, config=TRAIN, seeds=[0],
        )
    mixed = [_sdp(0, "shared"), _sdp(1, "monolithic")]
    with pytest.raises(ValueError, match="architecture"):
        MultiSeedTrainer(
            mixed, panel,
            [SGD(agent.parameters(), 1e-4) for agent in mixed],
            observation=CFG, config=TRAIN,
        )


# ----------------------------------------------------------------------
# Fast tier per shard: one seed alone equals its stacked slice
# ----------------------------------------------------------------------
def test_fast_tier_seed_alone_matches_its_stacked_slice():
    """A seed trained by ``make_trainer(..., backend="fast")`` has the
    weights, history and PVM of its slice of a stacked fast trainer, so
    sweeping one seed per shard loses nothing against stacking."""
    seeds = (1, 2, 3)
    configs = [make_config(1, "quick", agent_seed=s) for s in seeds]
    config = configs[0]
    data = build_experiment_data(config)
    n_assets = len(data.assets)
    agents = [strategy_from_config("sdp", c, n_assets=n_assets) for c in configs]
    stacked = MultiSeedTrainer(
        agents,
        data.train,
        [Adam(agent.parameters(), config.learning_rate) for agent in agents],
        observation=config.observation,
        config=TrainConfig(
            steps=config.train_steps,
            batch_size=config.batch_size,
            commission=config.commission,
            permute_assets=True,
        ),
        seeds=seeds,
        backend="fast",
    )
    histories = stacked.train()
    for i, c in enumerate(configs):
        agent = strategy_from_config("sdp", c, n_assets=n_assets)
        trainer = make_trainer(agent, data.train, c, backend="fast")
        assert trainer.backend is FAST
        history = trainer.train()
        _assert_states_equal(
            agent.network.state_dict(),
            agents[i].network.state_dict(),
            f"seed {seeds[i]}",
        )
        assert history == histories[i], f"seed {seeds[i]} history"
        assert np.array_equal(
            trainer.pvm.snapshot(), stacked.pvms[i].snapshot()
        ), f"seed {seeds[i]} PVM"


def test_fast_backend_rejects_graph_path(panel):
    agent = _sdp(SEEDS[0])
    with pytest.raises(ValueError, match="fast backend"):
        PolicyTrainer(
            agent, panel, SGD(agent.parameters(), 1e-4), observation=CFG,
            config=TRAIN, use_fused=False, backend="fast",
        )


# ----------------------------------------------------------------------
# Sweep engine: the backend is a property of the shard
# ----------------------------------------------------------------------
SWEEP_KW = dict(
    profile="quick",
    strategies=("sdp",),
    cost_regimes=(CostRegime("paper", 0.0025),),
    execution_regimes=(ZERO_EXECUTION,),
    risk_regimes=(NO_RISK,),
    overrides=(("train_steps", 12),),
)
FAST_SPEC = ExperimentSpec(name="fast", seeds=(1, 2), backend="fast", **SWEEP_KW)


def _store_states(root):
    store = ArtifactStore(root)
    out = {}
    for shard_dir in sorted(Path(root, "shards").iterdir()):
        artifact = store.load_shard(shard_dir.name)
        out[shard_dir.name] = (
            artifact.weights_state,
            artifact.metrics,
            artifact.history,
        )
    return out


def _assert_stores_equal(root, reference):
    """Same manifest, and per shard the same weights, metrics and
    history."""
    assert json.loads(Path(root, "manifest.json").read_text()) == json.loads(
        Path(reference, "manifest.json").read_text()
    )
    states_a, states_b = _store_states(root), _store_states(reference)
    assert set(states_a) == set(states_b)
    for sid in states_a:
        weights_a, metrics_a, history_a = states_a[sid]
        weights_b, metrics_b, history_b = states_b[sid]
        _assert_states_equal(weights_a, weights_b, sid)
        assert metrics_a == metrics_b, sid
        assert history_a == history_b, sid


@pytest.fixture(scope="module")
def fast_store(tmp_path_factory):
    """An uninterrupted, fault-free, serial fast-tier sweep."""
    root = tmp_path_factory.mktemp("fast") / "serial"
    result = SweepRunner(FAST_SPEC, root).run()
    assert len(result.ran) == 2 and result.complete
    assert all(o.shard.backend == "fast" for o in result.ran)
    assert all("-fast-" in o.shard_id for o in result.ran)
    return root


def test_fast_sweep_pooled_matches_serial(tmp_path, fast_store):
    pooled = SweepRunner(FAST_SPEC, tmp_path / "pooled", max_workers=2).run(
        parallel=True
    )
    assert len(pooled.ran) == 2 and pooled.complete
    _assert_stores_equal(tmp_path / "pooled", fast_store)


def test_fast_sweep_interrupt_and_resume(tmp_path, fast_store):
    first = SweepRunner(FAST_SPEC, tmp_path / "store").run(max_shards=1)
    assert len(first.ran) == 1 and len(first.pending) == 1
    resumed = SweepRunner(FAST_SPEC, tmp_path / "store").run()
    assert len(resumed.ran) == 1 and len(resumed.skipped) == 1
    assert resumed.complete
    _assert_stores_equal(tmp_path / "store", fast_store)


def test_fast_sweep_retries_transient_faults(tmp_path, fast_store):
    plan = FaultPlan(
        seed=1, sweep=SweepFaults(transient_rate=1.0, transient_attempts=1)
    )
    result = SweepRunner(
        FAST_SPEC, tmp_path / "armed", fault_plan=plan, sleep=lambda _: None
    ).run()
    assert result.complete
    assert [o.attempts for o in result.ran] == [2, 2]
    _assert_stores_equal(tmp_path / "armed", fast_store)


def test_backend_is_part_of_shard_identity(tmp_path):
    """A reference resume into a store a fast run began re-runs every
    SDP shard instead of reusing the float32 artifacts."""
    root = tmp_path / "store"
    first = SweepRunner(FAST_SPEC, root).run(max_shards=1)
    assert len(first.ran) == 1
    reference_spec = ExperimentSpec(name="fast", seeds=(1, 2), **SWEEP_KW)
    resumed = SweepRunner(reference_spec, root).run()
    assert len(resumed.ran) == 2 and not resumed.skipped
    assert all(o.shard.backend == "reference" for o in resumed.ran)
    manifest = json.loads((root / "manifest.json").read_text())
    assert "backend" not in manifest["spec"]

    store = ArtifactStore(root)
    fast = store.load_shard(first.ran[0].shard_id)
    reference = store.load_shard(resumed.ran[0].shard_id)
    assert fast.shard.seed == reference.shard.seed
    assert fast.shard.backend == "fast"
    assert any(
        not np.array_equal(fast.weights_state[k], reference.weights_state[k])
        for k in reference.weights_state
    )


def test_fast_sweep_keeps_other_strategies_on_reference(tmp_path):
    """Under ``--backend fast`` only SDP trains on the fast tier; Jiang
    and the baselines run the reference shards a reference sweep runs."""
    common = [
        "sweep", "--profile", "quick", "--seeds", "1", "--train-steps", "12",
        "--serial",
    ]
    assert cli_main(
        common + ["--store", str(tmp_path / "fast"),
                  "--strategies", "sdp", "jiang", "ucrp", "--backend", "fast"]
    ) == 0
    assert cli_main(
        common + ["--store", str(tmp_path / "ref"),
                  "--strategies", "jiang", "ucrp"]
    ) == 0
    fast_states = _store_states(tmp_path / "fast")
    ref_states = _store_states(tmp_path / "ref")
    fast_ids = sorted(fast_states)
    assert [sid.split("-")[1] for sid in fast_ids] == ["jiang", "sdp", "ucrp"]
    assert "-fast-" in fast_ids[1]
    assert sorted(ref_states) == [fast_ids[0], fast_ids[2]]
    for sid, (weights, metrics, history) in ref_states.items():
        if weights is not None:
            _assert_states_equal(fast_states[sid][0], weights, sid)
        assert fast_states[sid][1:] == (metrics, history), sid


def test_unknown_backend_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown backend"):
        ExperimentSpec(name="bad", backend="float16", **SWEEP_KW)
    with pytest.raises(SystemExit):
        cli_main([
            "sweep", "--store", str(tmp_path / "bad"), "--profile", "quick",
            "--backend", "float16",
        ])
    assert not (tmp_path / "bad").exists()
