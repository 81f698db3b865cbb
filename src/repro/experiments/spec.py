"""Sweep specification: the experiment grid and its shards.

An :class:`ExperimentSpec` names a grid — seeds × strategies × market
windows (Table 1 experiments) × cost regimes × execution regimes — over
one config profile, optionally rolled through walk-forward folds
(:class:`WalkForward`).
:meth:`ExperimentSpec.expand` flattens the grid into independent
:class:`ShardSpec` cells, each fully self-describing: a shard carries
everything needed to run it in any process (deterministic per-shard
seeding comes from the shard itself, not from execution order), and its
:attr:`~ShardSpec.shard_id` is a content fingerprint, so re-running the
same spec finds (and skips) its previous artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..backend import REFERENCE, resolve_backend
from ..data.splits import ExperimentWindow, walk_forward_windows
from ..envs.costs import DEFAULT_COMMISSION
from ..envs.observations import ObservationConfig
from ..registry import DEFAULT_REGISTRY, is_trainable, strategy_backend
from ..snn.neurons import LIFParameters
from ..utils.rng import stable_hash
from ..utils.serialization import (
    decode_tagged,
    encode_tagged,
    register_tagged_type,
)
from .config import ExperimentConfig, make_config

# The config dataclasses specs and artifacts may carry.  Registration is
# idempotent, so importing this module alongside repro.serving (which
# registers ObservationConfig/LIFParameters too) is fine.
register_tagged_type(ObservationConfig)
register_tagged_type(LIFParameters)
register_tagged_type(ExperimentWindow)


@register_tagged_type
@dataclass(frozen=True)
class CostRegime:
    """One transaction-cost scenario of the sweep grid."""

    name: str
    commission: float = DEFAULT_COMMISSION

    def __post_init__(self):
        if self.commission < 0:
            raise ValueError(f"commission must be non-negative, got {self.commission}")


#: The paper's 0.25% per-side commission.  Add e.g.
#: ``CostRegime("zero", 0.0)`` to a spec for a frictionless control.
DEFAULT_COST_REGIMES: Tuple[CostRegime, ...] = (
    CostRegime("paper", DEFAULT_COMMISSION),
)

_EXECUTION_MODELS = ("zero", "linear", "sqrt", "depth")
_DEFAULT_MAX_PARTICIPATION = 0.05
_DEFAULT_PORTFOLIO_NOTIONAL = 1e6
_DEFAULT_ADV_WINDOW_DAYS = 1.0


@register_tagged_type
@dataclass(frozen=True)
class ExecutionRegime:
    """One execution/slippage scenario of the sweep grid.

    ``model`` names the slippage model (``zero`` | ``linear`` |
    ``sqrt`` | ``depth``), ``impact_coef`` its cost coefficient,
    ``max_participation`` the per-asset fill cap (``depth`` only), and
    ``portfolio_notional`` the assumed quote-unit size of a value-1.0
    portfolio (what turns weight changes into money against ADV).

    The default ``zero`` regime builds *no* engine at all
    (:meth:`build_engine` returns ``None``), so sweeps that don't opt
    into execution run the exact commission-only path of every previous
    PR — bit-identical, and at zero overhead.

    Parameters a model ignores are normalised back to their defaults
    (everything for ``zero``; ``max_participation`` for
    ``linear``/``sqrt``), so two behaviourally identical regimes never
    fingerprint into distinct grid cells that recompute the same
    numbers.
    """

    name: str
    model: str = "zero"
    impact_coef: float = 0.0
    max_participation: float = _DEFAULT_MAX_PARTICIPATION
    portfolio_notional: float = _DEFAULT_PORTFOLIO_NOTIONAL
    adv_window_days: float = _DEFAULT_ADV_WINDOW_DAYS

    def __post_init__(self):
        if self.model not in _EXECUTION_MODELS:
            raise ValueError(
                f"unknown execution model {self.model!r}; "
                f"choose from {_EXECUTION_MODELS}"
            )
        if self.impact_coef < 0:
            raise ValueError(
                f"impact_coef must be non-negative, got {self.impact_coef}"
            )
        if self.max_participation <= 0:
            raise ValueError(
                f"max_participation must be positive, got {self.max_participation}"
            )
        if self.portfolio_notional <= 0 or self.adv_window_days <= 0:
            raise ValueError(
                "portfolio_notional and adv_window_days must be positive"
            )
        if self.model == "zero":
            object.__setattr__(self, "impact_coef", 0.0)
            object.__setattr__(
                self, "portfolio_notional", _DEFAULT_PORTFOLIO_NOTIONAL
            )
            object.__setattr__(
                self, "adv_window_days", _DEFAULT_ADV_WINDOW_DAYS
            )
        if self.model != "depth":
            object.__setattr__(
                self, "max_participation", _DEFAULT_MAX_PARTICIPATION
            )

    def build_model(self):
        """The :class:`~repro.execution.SlippageModel` this regime names."""
        from ..execution import (
            DepthLimited,
            LinearImpact,
            SquareRootImpact,
            ZeroSlippage,
        )

        if self.model == "zero":
            return ZeroSlippage()
        if self.model == "linear":
            return LinearImpact(self.impact_coef)
        if self.model == "sqrt":
            return SquareRootImpact(self.impact_coef)
        return DepthLimited(self.max_participation, self.impact_coef)

    def build_engine(self, commission: float = DEFAULT_COMMISSION):
        """An :class:`~repro.execution.ExecutionEngine`, or ``None``.

        ``None`` for the ``zero`` model — the signal every consumer
        (back-tester, serving, benches) uses to skip the execution
        layer outright, which is what keeps the default regime
        bit-identical to the pre-execution code path.
        """
        from ..execution import ExecutionEngine

        if self.model == "zero":
            return None
        return ExecutionEngine(
            self.build_model(),
            commission=commission,
            portfolio_notional=self.portfolio_notional,
            adv_window_days=self.adv_window_days,
        )


#: Ideal (frictionless-beyond-commission) execution — today's behaviour.
ZERO_EXECUTION = ExecutionRegime("ideal", "zero")

DEFAULT_EXECUTION_REGIMES: Tuple[ExecutionRegime, ...] = (ZERO_EXECUTION,)

_RISK_PRESETS = ("none", "caps", "turnover", "lockout", "tight")

#: Per-preset parameter defaults; fields a preset does not name are
#: normalised to zero so behaviourally identical regimes fingerprint
#: identically (same discipline as ExecutionRegime).
_RISK_PRESET_DEFAULTS: Dict[str, Dict[str, float]] = {
    "none": {},
    "caps": {"max_weight": 0.35, "min_cash": 0.05},
    "turnover": {"max_turnover": 0.25},
    "lockout": {"max_drawdown": 0.15, "lockout_periods": 10},
    "tight": {
        "max_weight": 0.20,
        "min_cash": 0.10,
        "max_turnover": 0.15,
        "max_drawdown": 0.10,
        "lockout_periods": 20,
    },
}

_RISK_FIELDS = (
    "max_weight",
    "min_cash",
    "max_turnover",
    "max_drawdown",
    "lockout_periods",
)


@register_tagged_type
@dataclass(frozen=True)
class RiskRegime:
    """One portfolio-constraint scenario of the sweep grid.

    ``preset`` names the constraint family (``none`` | ``caps`` |
    ``turnover`` | ``lockout`` | ``tight``); the numeric fields tune it.
    A zero (unset) field takes the preset's default; fields the preset
    does not use are normalised back to zero, so two behaviourally
    identical regimes never fingerprint into distinct grid cells.

    The default ``none`` regime builds *no* engine at all
    (:meth:`build_engine` returns ``None``), so sweeps that don't opt
    into constraints run the exact unconstrained path of every previous
    PR — bit-identical, and at zero overhead.
    """

    name: str
    preset: str = "none"
    max_weight: float = 0.0
    min_cash: float = 0.0
    max_turnover: float = 0.0
    max_drawdown: float = 0.0
    lockout_periods: int = 0

    def __post_init__(self):
        if self.preset not in _RISK_PRESETS:
            raise ValueError(
                f"unknown risk preset {self.preset!r}; choose from {_RISK_PRESETS}"
            )
        defaults = _RISK_PRESET_DEFAULTS[self.preset]
        for field_name in _RISK_FIELDS:
            value = getattr(self, field_name)
            if field_name in defaults:
                if not value:
                    value = defaults[field_name]
            else:
                value = 0
            if field_name == "lockout_periods":
                value = int(value)
            else:
                value = float(value)
            object.__setattr__(self, field_name, value)
        if "max_weight" in defaults and not 0.0 < self.max_weight <= 1.0:
            raise ValueError(f"max_weight must lie in (0, 1], got {self.max_weight}")
        if not 0.0 <= self.min_cash < 1.0:
            raise ValueError(f"min_cash must lie in [0, 1), got {self.min_cash}")
        if "max_turnover" in defaults and self.max_turnover <= 0.0:
            raise ValueError(
                f"max_turnover must be positive, got {self.max_turnover}"
            )
        if "max_drawdown" in defaults and not 0.0 < self.max_drawdown < 1.0:
            raise ValueError(
                f"max_drawdown must lie in (0, 1), got {self.max_drawdown}"
            )
        if "lockout_periods" in defaults and self.lockout_periods < 1:
            raise ValueError(
                f"lockout_periods must be >= 1, got {self.lockout_periods}"
            )

    def build_limits(self):
        """The :mod:`repro.risk` limit zoo this regime names."""
        from ..risk import CashFloor, DrawdownLockout, PositionCap, TurnoverBudget

        limits = []
        if self.max_weight:
            limits.append(PositionCap(self.max_weight))
        if self.min_cash:
            limits.append(CashFloor(self.min_cash))
        if self.max_turnover:
            limits.append(TurnoverBudget(self.max_turnover))
        if self.max_drawdown:
            limits.append(
                DrawdownLockout(self.max_drawdown, self.lockout_periods)
            )
        return tuple(limits)

    def build_engine(self):
        """A :class:`~repro.risk.RiskEngine`, or ``None``.

        ``None`` for the ``none`` preset — the signal every consumer
        (environment, serving, benches) uses to skip the risk layer
        outright, which is what keeps the default regime bit-identical
        to the pre-risk code path.
        """
        from ..risk import RiskEngine

        if self.preset == "none":
            return None
        return RiskEngine(self.build_limits())


#: Unconstrained portfolio — today's behaviour.
NO_RISK = RiskRegime("none", "none")

DEFAULT_RISK_REGIMES: Tuple[RiskRegime, ...] = (NO_RISK,)


def risk_regime_preset(name: str) -> RiskRegime:
    """The named preset as a regime (regime name = preset name)."""
    return RiskRegime(name, name)


@register_tagged_type
@dataclass(frozen=True)
class WalkForward:
    """Rolling train/test folds a shard walks instead of Table 1's split:
    :func:`~repro.data.splits.walk_forward_windows` over ``[start, end)``
    (each end defaulting to the experiment's Table 1 span).  Fold 0
    trains for the config's ``train_steps``, each later fold fine-tunes
    ``fine_tune_steps`` (``0`` freezes the agent after fold 0)."""

    train_days: int
    test_days: int
    step_days: int = 0
    anchored: bool = False
    fine_tune_steps: int = 0
    start: Optional[str] = None
    end: Optional[str] = None

    def __post_init__(self):
        if min(self.train_days, self.test_days) <= 0 or min(
            self.step_days, self.fine_tune_steps
        ) < 0:
            raise ValueError(
                "a walk needs positive train_days and test_days and "
                f"non-negative step_days and fine_tune_steps: {self}"
            )
        if self.start is not None and self.end is not None:
            self.folds(None)  # raises if no fold fits the span

    def span(self, window: Optional[ExperimentWindow]) -> Tuple[str, str]:
        return (
            self.start if self.start is not None else window.train_start,
            self.end if self.end is not None else window.test_end,
        )

    def folds(self, window: Optional[ExperimentWindow]) -> List[ExperimentWindow]:
        return walk_forward_windows(
            *self.span(window), self.train_days, self.test_days,
            self.step_days, anchored=self.anchored,
        )


def _canonical_json(payload: Any) -> str:
    return json.dumps(encode_tagged(payload), sort_keys=True)


@dataclass(frozen=True)
class ShardSpec:
    """One cell of the sweep grid — an independently runnable unit.

    ``overrides`` are :func:`~repro.experiments.config.make_config`
    keyword overrides, stored as a sorted tuple of pairs so shards stay
    hashable and their fingerprints canonical.  ``backend`` names the
    numeric tier the shard trains on (:mod:`repro.backend`); a ``walk``
    of ``None`` is the one fold of Table 1's train/test split.
    """

    sweep: str
    profile: str
    experiment: int
    strategy: str
    seed: int
    cost: CostRegime
    execution: ExecutionRegime = ZERO_EXECUTION
    risk: RiskRegime = NO_RISK
    overrides: Tuple[Tuple[str, Any], ...] = ()
    backend: str = REFERENCE.name
    walk: Optional[WalkForward] = None

    def __post_init__(self):
        # Every zero-model execution regime is the ideal one, and every
        # none-preset risk regime the unconstrained one, whatever its
        # name: each keys (and runs) as the default.
        if self.execution.model == "zero":
            object.__setattr__(self, "execution", ZERO_EXECUTION)
        if self.risk.preset == "none":
            object.__setattr__(self, "risk", NO_RISK)

    @property
    def overrides_dict(self) -> Dict[str, Any]:
        return dict(self.overrides)

    @property
    def shard_id(self) -> str:
        """Deterministic, human-scannable identity of this shard.

        The readable prefix names the grid axes; the trailing fingerprint
        covers *everything* (profile, overrides, commission value,
        execution parameters), so two shards differing only in an
        override never collide in a store.  The default (ideal)
        execution and (none) risk regimes, the reference backend and no
        walk contribute nothing to the id — those shards compute exactly
        what pre-subsystem shards computed, so resuming an old store
        keeps skipping its committed work, a fast-tier shard never
        passes for a reference one, and walk-forward and Table 3
        artifacts never mix.
        """
        payload = {
            "profile": self.profile,
            "experiment": self.experiment,
            "strategy": self.strategy,
            "seed": self.seed,
            "cost": self.cost,
            "overrides": sorted(self.overrides),
        }
        suffix = ""
        if self.execution != ZERO_EXECUTION:
            payload["execution"] = self.execution
            suffix = f"-{self.execution.name}"
        if self.risk != NO_RISK:
            payload["risk"] = self.risk
            suffix += f"-{self.risk.name}"
        if self.backend != REFERENCE.name:
            payload["backend"] = self.backend
            suffix += f"-{self.backend}"
        if self.walk is not None:
            payload["walk"] = self.walk
            suffix += "-walk"
        digest = stable_hash(_canonical_json(payload), modulus=16 ** 8)
        return (
            f"exp{self.experiment}-{self.strategy}-s{self.seed}"
            f"-{self.cost.name}{suffix}-{digest:08x}"
        )

    def build_execution_engine(self):
        """The shard's execution engine (``None`` for ideal fills)."""
        return self.execution.build_engine(self.cost.commission)

    def build_risk_engine(self):
        """The shard's risk engine (``None`` for the unconstrained path)."""
        return self.risk.build_engine()

    def config(self) -> ExperimentConfig:
        """The :class:`ExperimentConfig` this shard runs.

        Per-shard determinism in one place: the shard's ``seed`` becomes
        ``agent_seed`` (network init + trainer sampler/permutation
        streams) and its cost regime becomes the commission; the market
        seed stays the profile default so every shard of an experiment
        trades the same panel.
        """
        return make_config(
            self.experiment,
            self.profile,
            commission=self.cost.commission,
            agent_seed=self.seed,
            **self.overrides_dict,
        )

    def to_json_dict(self) -> Dict[str, Any]:
        payload = {
            "sweep": self.sweep,
            "profile": self.profile,
            "experiment": self.experiment,
            "strategy": self.strategy,
            "seed": self.seed,
            "cost": encode_tagged(self.cost),
            "execution": encode_tagged(self.execution),
            "risk": encode_tagged(self.risk),
            "overrides": encode_tagged(dict(self.overrides)),
        }
        return _with_optional(payload, self.backend, self.walk)

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "ShardSpec":
        overrides = decode_tagged(payload["overrides"])
        return cls(
            sweep=str(payload["sweep"]),
            profile=str(payload["profile"]),
            experiment=int(payload["experiment"]),
            strategy=str(payload["strategy"]),
            seed=int(payload["seed"]),
            cost=decode_tagged(payload["cost"]),
            # Pre-execution-subsystem stores carry no execution entry;
            # they ran the ideal path.  Likewise pre-risk stores ran
            # unconstrained.
            execution=(
                decode_tagged(payload["execution"])
                if "execution" in payload
                else ZERO_EXECUTION
            ),
            risk=(
                decode_tagged(payload["risk"])
                if "risk" in payload
                else NO_RISK
            ),
            overrides=_freeze_overrides(overrides),
            backend=str(payload.get("backend", REFERENCE.name)),
            walk=decode_tagged(payload.get("walk")),
        )


def _with_optional(
    payload: Dict[str, Any], backend: str, walk: Optional[WalkForward]
) -> Dict[str, Any]:
    """``payload`` plus a non-reference ``backend`` and a set ``walk``, so
    reference Table 3 specs serialise as before specs carried either."""
    if backend != REFERENCE.name:
        payload["backend"] = backend
    if walk is not None:
        payload["walk"] = encode_tagged(walk)
    return payload


def _freeze_overrides(overrides: Mapping[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    frozen = []
    for key in sorted(overrides):
        value = overrides[key]
        if isinstance(value, list):
            value = tuple(value)
        frozen.append((str(key), value))
    return tuple(frozen)


def _check_walk(walk: WalkForward, config: ExperimentConfig, trains: bool) -> None:
    """Fail a walk no shard could run, before any shard does: it must fit a
    fold into ``config``'s span, each fold's back-test (``test_days`` of
    candles after one anchor period) must reach the observation's first
    decision and, if a learned strategy trains, fold 0's training slice
    (the shortest) must hold a minibatch of decisions."""
    walk.folds(config.window)
    first = config.observation.first_decision_index()
    test, train = (
        days * 86_400 // config.period_seconds
        for days in (walk.test_days, walk.train_days)
    )
    if test <= first:
        raise ValueError(f"walk test_days={walk.test_days}: {test} periods, "
                         f"the observation needs more than {first}")
    if trains and train - 1 - max(first, 1) < config.batch_size:
        raise ValueError(f"walk train_days={walk.train_days}: fewer training "
                         f"decisions than batch_size={config.batch_size}")


@dataclass(frozen=True)
class ExperimentSpec:
    """The grid: seeds × strategies × windows × costs × execution × risk.

    ``backend`` is the numeric tier learned strategies train on
    (``"reference"`` float64, or ``"fast"`` float32; an unknown name
    raises ``ValueError``).  Each shard takes it through
    :func:`~repro.registry.strategy_backend`, so strategies the fast
    tier cannot train keep the reference tier.  ``walk`` must fit a fold
    into each experiment's span, and each fold must be long enough for
    the config to back-test (and, for a learned strategy, train) on.
    """

    name: str
    profile: str = "standard"
    experiments: Tuple[int, ...] = (1,)
    strategies: Tuple[str, ...] = ("sdp", "jiang")
    seeds: Tuple[int, ...] = (7,)
    cost_regimes: Tuple[CostRegime, ...] = DEFAULT_COST_REGIMES
    execution_regimes: Tuple[ExecutionRegime, ...] = DEFAULT_EXECUTION_REGIMES
    risk_regimes: Tuple[RiskRegime, ...] = DEFAULT_RISK_REGIMES
    overrides: Tuple[Tuple[str, Any], ...] = ()
    backend: str = REFERENCE.name
    walk: Optional[WalkForward] = None

    def __post_init__(self):
        for label, values in (
            ("experiments", self.experiments),
            ("strategies", self.strategies),
            ("seeds", self.seeds),
            ("cost_regimes", self.cost_regimes),
            ("execution_regimes", self.execution_regimes),
            ("risk_regimes", self.risk_regimes),
        ):
            object.__setattr__(self, label, tuple(values))
            if not getattr(self, label):
                raise ValueError(f"spec {self.name!r}: {label} must be non-empty")
        unknown = [s for s in self.strategies if s not in DEFAULT_REGISTRY]
        if unknown:
            raise ValueError(
                f"spec {self.name!r}: unknown strategy {unknown[0]!r}; "
                f"available: {', '.join(DEFAULT_REGISTRY.names())}"
            )
        if len(set(c.name for c in self.cost_regimes)) != len(self.cost_regimes):
            raise ValueError(f"spec {self.name!r}: cost regime names must be unique")
        if len(set(e.name for e in self.execution_regimes)) != len(
            self.execution_regimes
        ):
            raise ValueError(
                f"spec {self.name!r}: execution regime names must be unique"
            )
        if len(set(r.name for r in self.risk_regimes)) != len(self.risk_regimes):
            raise ValueError(
                f"spec {self.name!r}: risk regime names must be unique"
            )
        # Shards key each as the default regime, so two would be one cell.
        if sum(e.model == "zero" for e in self.execution_regimes) > 1:
            raise ValueError(
                f"spec {self.name!r}: more than one zero-model execution regime"
            )
        if sum(r.preset == "none" for r in self.risk_regimes) > 1:
            raise ValueError(
                f"spec {self.name!r}: more than one none-preset risk regime"
            )
        object.__setattr__(
            self, "overrides", _freeze_overrides(dict(self.overrides))
        )
        object.__setattr__(self, "backend", resolve_backend(self.backend).name)
        if self.walk is not None:
            trains = any(map(is_trainable, self.strategies))
            for experiment in self.experiments:
                config = make_config(experiment, self.profile, **dict(self.overrides))
                _check_walk(self.walk, config, trains)

    @property
    def num_shards(self) -> int:
        return len(self.expand())

    def expand(self) -> List[ShardSpec]:
        """Flatten the grid into shards, in deterministic order.

        The seed axis only applies to learned strategies (it becomes
        the agent/trainer seed); classical baselines are deterministic
        functions of the panel, so each of their grid cells expands to
        a single shard under the first seed instead of N bit-identical
        ones.
        """
        shards = []
        for experiment in self.experiments:
            for strategy in self.strategies:
                seeds = self.seeds if is_trainable(strategy) else self.seeds[:1]
                for cost in self.cost_regimes:
                    for execution in self.execution_regimes:
                        for risk in self.risk_regimes:
                            for seed in seeds:
                                shards.append(
                                    ShardSpec(
                                        sweep=self.name,
                                        profile=self.profile,
                                        experiment=experiment,
                                        strategy=strategy,
                                        seed=seed,
                                        cost=cost,
                                        execution=execution,
                                        risk=risk,
                                        overrides=self.overrides,
                                        backend=strategy_backend(
                                            strategy, self.backend
                                        ),
                                        walk=self.walk,
                                    )
                                )
        return shards

    def to_json_dict(self) -> Dict[str, Any]:
        payload = {
            "name": self.name,
            "profile": self.profile,
            "experiments": list(self.experiments),
            "strategies": list(self.strategies),
            "seeds": list(self.seeds),
            "cost_regimes": encode_tagged(list(self.cost_regimes)),
            "execution_regimes": encode_tagged(list(self.execution_regimes)),
            "risk_regimes": encode_tagged(list(self.risk_regimes)),
            "overrides": encode_tagged(dict(self.overrides)),
        }
        return _with_optional(payload, self.backend, self.walk)

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "ExperimentSpec":
        return cls(
            name=str(payload["name"]),
            profile=str(payload["profile"]),
            experiments=tuple(int(e) for e in payload["experiments"]),
            strategies=tuple(str(s) for s in payload["strategies"]),
            seeds=tuple(int(s) for s in payload["seeds"]),
            cost_regimes=tuple(decode_tagged(payload["cost_regimes"])),
            execution_regimes=(
                tuple(decode_tagged(payload["execution_regimes"]))
                if "execution_regimes" in payload
                else DEFAULT_EXECUTION_REGIMES
            ),
            risk_regimes=(
                tuple(decode_tagged(payload["risk_regimes"]))
                if "risk_regimes" in payload
                else DEFAULT_RISK_REGIMES
            ),
            overrides=_freeze_overrides(decode_tagged(payload["overrides"])),
            backend=str(payload.get("backend", REFERENCE.name)),
            walk=decode_tagged(payload.get("walk")),
        )
