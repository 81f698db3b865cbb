"""End-to-end experiment runner regenerating the paper's tables.

``run_experiment`` executes one column-block of Table 3 as the one-seed
front of the sweep engine: the config becomes a one-seed
:class:`~repro.experiments.spec.ExperimentSpec`, and each of its shards
builds the synthetic market, selects the top-11-by-volume universe as
of the back-test start, trains its strategy on the training span if it
is learned, and back-tests it on the hold-out span
(:func:`~repro.experiments.engine.run_shard`).  The result is read back
from the committed shards.  ``run_power_comparison`` produces the
corresponding Table 4 rows from the trained agents and the device
models.
"""

from __future__ import annotations

import functools
import tempfile
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..agents import (
    Agent,
    BacktestResult,
    JiangDRLAgent,
    PolicyTrainer,
    SDPAgent,
    TrainConfig,
    TrainHistory,
)
from ..autograd.optim import Adam
from ..data import MarketData, MarketGenerator, top_volume_assets
from ..loihi import (
    EnergyReport,
    deploy,
    energy_reduction_ratio,
    paper_cpu_model,
    paper_gpu_model,
    paper_loihi_model,
)
from ..utils.serialization import PathLike
from .artifacts import _history_from_dict
from .config import ExperimentConfig, make_config
from .spec import DEFAULT_COST_REGIMES, CostRegime, ExperimentSpec


@dataclass
class ExperimentData:
    """Market panels of one experiment (after universe selection)."""

    assets: List[str]
    train: MarketData
    test: MarketData


def build_experiment_data(config: ExperimentConfig) -> ExperimentData:
    """Generate the market and apply Table 1's window + top-k selection.

    The market is a pure function of the config's market fields, so it
    is generated once per process for each: every shard of an
    experiment, and its result's ``test_data``, share the one panel
    (which nothing mutates).
    """
    return _experiment_data(
        config.market_seed, config.window, config.period_seconds,
        config.num_assets,
    )


@functools.lru_cache(maxsize=4)
def _experiment_data(
    market_seed: int, window, period_seconds: int, num_assets: int
) -> ExperimentData:
    full = MarketGenerator(seed=market_seed).generate(
        window.train_start, window.test_end, period_seconds=period_seconds
    )
    assets = top_volume_assets(full, window.test_start, k=num_assets)
    train, test = window.split(full.select_assets(assets))
    return ExperimentData(assets=assets, train=train, test=test)


@dataclass
class ExperimentResult:
    """Everything one Table 3 experiment produces.

    A learned strategy the experiment did not run leaves its agent and
    history ``None``.
    """

    config: ExperimentConfig
    assets: List[str]
    backtests: Dict[str, BacktestResult]
    sdp_history: Optional[TrainHistory] = None
    drl_history: Optional[TrainHistory] = None
    sdp_agent: Optional[SDPAgent] = field(repr=False, default=None)
    drl_agent: Optional[JiangDRLAgent] = field(repr=False, default=None)
    test_data: Optional[MarketData] = field(repr=False, default=None)

    def table3_rows(self) -> List[Tuple[str, float, float, float]]:
        """(strategy, MDD, fAPV, Sharpe) rows in the paper's order."""
        order = ["SDP", "DRL[Jiang]", "ONS", "Best Stock", "ANTICOR", "M0", "UCRP"]
        rows = []
        for name in order:
            if name not in self.backtests:
                continue
            r = self.backtests[name]
            rows.append((name, r.mdd, r.fapv, r.sharpe))
        for name, r in self.backtests.items():
            if name not in order:
                rows.append((name, r.mdd, r.fapv, r.sharpe))
        return rows


def make_trainer(
    agent: Agent,
    panel: MarketData,
    config: ExperimentConfig,
    optimizer=None,
    seed: Optional[int] = None,
    backend=None,
) -> PolicyTrainer:
    """The experiment harness's trainer wiring, in one place.

    Adam at the config's learning rate (unless an ``optimizer`` is
    carried in, e.g. across walk-forward folds), the paper's minibatch
    settings, permute-assets augmentation, and the config's agent seed
    (overridable for per-fold streams).  ``backend`` selects the
    numeric tier (``None`` = reference; see :mod:`repro.backend`).
    The sweep engine's shards (and so :func:`run_experiment`, their
    one-seed front) and walk-forward fine-tuning both train through
    this — change it here and every path trains identically.
    """
    if optimizer is None:
        optimizer = Adam(agent.parameters(), config.learning_rate)
    return PolicyTrainer(
        agent,
        panel,
        optimizer,
        observation=config.observation,
        config=TrainConfig(
            steps=config.train_steps,
            batch_size=config.batch_size,
            commission=config.commission,
            permute_assets=True,
        ),
        seed=config.agent_seed if seed is None else seed,
        backend=backend,
    )


#: Registry keys of the paper's Table 3 strategies, in its row order.
TABLE3_STRATEGIES: Tuple[str, ...] = (
    "sdp", "jiang", "ons", "best_stock", "anticor", "m0", "ucrp",
)

# Config fields the spec carries outside its overrides: the window it
# names, its profile, its seed axis and its cost regime.
_SPEC_FIELDS = ("experiment", "profile", "agent_seed", "commission")


def _one_seed_spec(
    config: ExperimentConfig, strategies: Sequence[str]
) -> ExperimentSpec:
    """The one-seed sweep whose shards run ``config``'s experiment.

    The config's fields that differ from ``make_config(experiment,
    profile)`` become spec overrides, ``agent_seed`` the seed and
    ``commission`` the cost regime (the paper's, named ``paper``, when
    it is the default).  Raises ``ValueError`` unless every shard's
    :meth:`~repro.experiments.spec.ShardSpec.config` equals ``config``:
    a field :func:`make_config` cannot override (the window, the LIF
    constants, the surrogate window) or an unknown profile would
    otherwise run a different experiment.
    """
    try:
        base = make_config(config.experiment, config.profile)
    except KeyError as exc:
        raise ValueError(f"{config.label}: {exc.args[0]}") from None
    overrides = {
        f.name: getattr(config, f.name)
        for f in fields(config)
        if f.name not in _SPEC_FIELDS
        and getattr(config, f.name) != getattr(base, f.name)
    }
    cost = (
        DEFAULT_COST_REGIMES[0]
        if config.commission == DEFAULT_COST_REGIMES[0].commission
        else CostRegime(f"c{config.commission:g}", config.commission)
    )
    spec = ExperimentSpec(
        name=config.label,
        profile=config.profile,
        experiments=(config.experiment,),
        strategies=tuple(strategies),
        seeds=(config.agent_seed,),
        cost_regimes=(cost,),
        overrides=tuple(overrides.items()),
    )
    for shard in spec.expand():
        try:
            carried = shard.config() == config
        except TypeError:  # an override make_config fixes itself
            carried = False
        if not carried:
            raise ValueError(
                f"{config.label}: a sweep spec cannot carry this config "
                f"(overrides {sorted(overrides)}); its {shard.strategy!r} "
                "shard would run a different experiment"
            )
    return spec


def run_experiment(
    config: ExperimentConfig,
    strategies: Sequence[str] = TABLE3_STRATEGIES,
    store: Optional[PathLike] = None,
    workers: Optional[int] = None,
    obs_dir: Optional[PathLike] = None,
    obs_level: str = "info",
) -> ExperimentResult:
    """Run one Table 3 experiment end to end: the one-seed front of
    the sweep engine.

    ``config`` becomes a one-seed :class:`ExperimentSpec` over
    ``strategies`` (registry keys, default the seven Table 3 ones; see
    :func:`_one_seed_spec`), which :class:`~repro.experiments.engine.
    SweepRunner` runs into ``store`` (a temporary directory when
    ``None``), so training and back-testing happen only in
    :func:`~repro.experiments.engine.run_shard`, and shards already
    committed there are reused.  ``workers`` > 1 runs the shards on a
    process pool of that width; ``obs_dir``/``obs_level`` arm per-shard
    observability as for a sweep.

    The result is read back from the committed shards: each agent is
    :meth:`ArtifactStore.load_agent`'s rebuild, its back-test and
    training history come from the shard, and ``test_data`` is the
    config's hold-out panel.
    """
    from .engine import SweepRunner  # the engine imports this module

    spec = _one_seed_spec(config, strategies)
    with tempfile.TemporaryDirectory(prefix="repro-run-") as scratch:
        runner = SweepRunner(
            spec, scratch if store is None else store, max_workers=workers,
            obs_dir=obs_dir, obs_level=obs_level,
        )
        sweep = runner.run(parallel=workers is not None and workers > 1)
        if sweep.quarantined:
            raise RuntimeError(
                f"{config.label}: shards failed: "
                + "; ".join(f"{o.shard_id}: {o.error}" for o in sweep.quarantined)
            )
        backtests: Dict[str, BacktestResult] = {}
        agents: Dict[str, Agent] = {}
        histories: Dict[str, TrainHistory] = {}
        for outcome in sweep.outcomes:
            artifact = runner.store.load_shard(outcome.shard_id)
            agent = runner.store.load_agent(outcome.shard_id)
            backtests[agent.name] = replace(
                artifact.to_backtest_result(), agent_name=agent.name
            )
            agents[agent.name] = agent
            if artifact.history is not None:
                histories[agent.name] = _history_from_dict(artifact.history)
    return ExperimentResult(
        config=config,
        assets=list(artifact.extra["assets"]),
        backtests=backtests,
        sdp_history=histories.get(SDPAgent.name),
        drl_history=histories.get(JiangDRLAgent.name),
        sdp_agent=agents.get(SDPAgent.name),
        drl_agent=agents.get(JiangDRLAgent.name),
        test_data=build_experiment_data(config).test,
    )


@dataclass
class PowerComparison:
    """Table 4 rows for one experiment + the headline ratios."""

    experiment: int
    drl_cpu: EnergyReport
    drl_gpu: EnergyReport
    sdp_loihi: EnergyReport
    cpu_reduction: float
    gpu_reduction: float

    def rows(self) -> List[Tuple[str, str, float, float, float, float]]:
        out = []
        for label, device, rep in (
            (f"DRL-Exp{self.experiment}", "CPU", self.drl_cpu),
            (f"DRL-Exp{self.experiment}", "GPU", self.drl_gpu),
            (f"SDP-Exp{self.experiment}", "Loihi (T=5)", self.sdp_loihi),
        ):
            out.append(
                (
                    label,
                    device,
                    rep.idle_power_w,
                    rep.dynamic_power_w,
                    rep.inferences_per_s,
                    rep.nj_per_inference,
                )
            )
        return out


def run_power_comparison(
    result: ExperimentResult, num_states: int = 64
) -> PowerComparison:
    """Profile the trained agents on the Table 4 device models.

    The SDP agent's spike activity is measured on real back-test states;
    the DRL agent's MAC count feeds the CPU/GPU models.
    """
    config = result.config
    experiment = config.experiment
    deployment = deploy(result.sdp_agent.network, device=paper_loihi_model(experiment))

    data = result.test_data
    first = config.observation.first_decision_index()
    indices = np.linspace(
        first, data.n_periods - 2, num=min(num_states, data.n_periods - 1 - first),
        dtype=np.int64,
    )
    uniform = np.full(
        (indices.shape[0], data.n_assets + 1), 1.0 / (data.n_assets + 1)
    )
    # Architecture-aware state construction (flat or per-asset).
    states = result.sdp_agent.prepare_states(data, indices, uniform)

    sdp_report = deployment.profile(states, name="Loihi (T=5)")
    macs = result.drl_agent.macs_per_inference()
    cpu_report = paper_cpu_model(experiment).report(macs)
    gpu_report = paper_gpu_model(experiment).report(macs)
    return PowerComparison(
        experiment=experiment,
        drl_cpu=cpu_report,
        drl_gpu=gpu_report,
        sdp_loihi=sdp_report,
        cpu_reduction=energy_reduction_ratio(cpu_report, sdp_report),
        gpu_reduction=energy_reduction_ratio(gpu_report, sdp_report),
    )
