"""Tests for cross-seed vectorized training and the backend seam.

Gates the stacked multi-seed tape against serial closure-graph
training: per-seed RNG-stream purity (``GeometricBatchSampler.for_seed``),
bit-identical weights/PVM/histories after full ``train()`` runs for both
SDP architectures and the EIIE network, resume from ``state_dict``, the
float32 fast tier's documented tolerance (and its exclusion from every
exactness check), seed-group coalescing in the sweep engine
(artifact/manifest byte-stability, mid-group interrupt and resume), and
the wall-clock attribution surfaced in sweep tables.
"""

import json
from pathlib import Path

import numpy as np
import pytest

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
    render_sweep_table,
)
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
# Sweep engine: seed-group coalescing
# ----------------------------------------------------------------------
SWEEP_KW = dict(
    profile="quick",
    strategies=("sdp",),
    cost_regimes=(CostRegime("paper", 0.0025),),
    execution_regimes=(ZERO_EXECUTION,),
    risk_regimes=(NO_RISK,),
    overrides=(("train_steps", 12),),
)


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


def test_vectorized_sweep_matches_serial_store(tmp_path):
    spec = ExperimentSpec(name="vec", seeds=(1, 2), **SWEEP_KW)
    serial = SweepRunner(spec, tmp_path / "serial").run()
    vector = SweepRunner(spec, tmp_path / "vector", vectorize_seeds=True).run()
    assert len(serial.ran) == len(vector.ran) == 2

    manifest_a = json.loads((tmp_path / "serial" / "manifest.json").read_text())
    manifest_b = json.loads((tmp_path / "vector" / "manifest.json").read_text())
    assert manifest_a == manifest_b

    states_a = _store_states(tmp_path / "serial")
    states_b = _store_states(tmp_path / "vector")
    assert set(states_a) == set(states_b)
    for sid in states_a:
        weights_a, metrics_a, history_a = states_a[sid]
        weights_b, metrics_b, history_b = states_b[sid]
        _assert_states_equal(weights_a, weights_b, sid)
        assert metrics_a == metrics_b
        assert history_a == history_b

    # Timing attribution: both shards ran in one vectorized group.
    timing = vector.timing_summary()
    assert timing["vectorized_shards"] == 2
    assert timing["groups"] == 1
    assert timing["group_wall_s"] > 0
    for outcome in vector.ran:
        assert outcome.group_size == 2
        assert outcome.elapsed > 0
        assert outcome.group == vector.ran[0].shard.shard_id
    assert serial.timing_summary() is None
    assert "Wall-clock" in render_sweep_table(vector)
    assert "Wall-clock" not in render_sweep_table(serial)


def test_vectorized_sweep_interrupt_and_resume(tmp_path):
    """max_shards cuts a seed group mid-way; resuming *without* the
    flag must converge to the same manifest and artifacts as a sweep
    that never vectorized."""
    spec = ExperimentSpec(name="vec", seeds=(1, 2, 3), **SWEEP_KW)

    first = SweepRunner(
        spec, tmp_path / "vector", vectorize_seeds=True
    ).run(max_shards=2)
    assert len(first.ran) == 2 and len(first.pending) == 1
    assert all(o.group_size == 2 for o in first.ran)

    resumed = SweepRunner(spec, tmp_path / "vector").run()
    assert len(resumed.ran) == 1 and len(resumed.skipped) == 2
    assert resumed.complete

    reference = SweepRunner(spec, tmp_path / "serial").run()
    assert json.loads(
        (tmp_path / "vector" / "manifest.json").read_text()
    ) == json.loads((tmp_path / "serial" / "manifest.json").read_text())
    states_a = _store_states(tmp_path / "serial")
    states_b = _store_states(tmp_path / "vector")
    assert set(states_a) == set(states_b)
    for sid in states_a:
        _assert_states_equal(states_a[sid][0], states_b[sid][0], sid)


def test_vectorized_sweep_skips_committed_members(tmp_path):
    """A group whose members are partly committed re-runs only the
    pending ones and reports the rest as skipped."""
    spec = ExperimentSpec(name="vec", seeds=(1, 2, 3), **SWEEP_KW)
    SweepRunner(spec, tmp_path / "store").run(max_shards=1)
    second = SweepRunner(
        spec, tmp_path / "store", vectorize_seeds=True
    ).run()
    assert len(second.skipped) == 1
    assert len(second.ran) == 2
    assert second.complete
