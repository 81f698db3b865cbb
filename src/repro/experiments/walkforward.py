"""Walk-forward (rolling-window) evaluation — the OLPS online setting.

The paper's Table 3 is train-once/test-once; Jiang et al.'s framing is
explicitly *online*.  :func:`run_walkforward` is the sweep engine's
walk-forward front: each (strategy, seed) is one shard that walks a
:class:`~repro.experiments.spec.WalkForward`'s folds in order
(:func:`~repro.experiments.engine.run_shard`), with the sweep's pool,
retries, resume, store and backend, and the report is read back from
the shards' :class:`FoldRecord` lists.

Beyond per-fold metrics it attributes performance to *market regimes*
(:class:`~repro.data.regimes.RegimeSchedule`): every back-test period is
labeled by the regime in force at its timestamp, and fAPV/MDD/Sharpe are
recomputed per regime — "how did SDP do in crashes?" becomes a table
row instead of a guess.  Aggregates are mean±std across seeds.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data.market import MarketData
from ..data.regimes import RegimeSchedule, default_crypto_schedule
from ..data.splits import ExperimentWindow
from ..envs.backtester import BacktestResult
from ..envs.observations import ObservationConfig
from ..metrics.performance import (
    final_apv,
    max_drawdown,
    sharpe_ratio,
)
from ..utils.serialization import PathLike, register_tagged_type
from .config import ExperimentConfig
from .runner import _front_spec, _run_front
from .spec import (
    NO_RISK,
    ZERO_EXECUTION,
    ExecutionRegime,
    RiskRegime,
    WalkForward,
)

if TYPE_CHECKING:
    from .engine import SweepResult


def per_regime_metrics(
    values: np.ndarray,
    timestamps: np.ndarray,
    schedule: RegimeSchedule,
) -> Dict[str, Dict[str, float]]:
    """fAPV/MDD/Sharpe of a value trajectory, split by market regime.

    ``values[i]`` is the portfolio value at ``timestamps[i]``; the
    period return ``values[i+1]/values[i]`` is attributed to the regime
    in force at its *start* (``timestamps[i]`` — the regime the position
    was actually held through).  Per regime, the labeled returns are
    compounded into a sub-trajectory and the standard metrics run on it,
    so a regime's fAPV is exactly the portfolio growth realised while
    that regime was in force.
    """
    values = np.asarray(values, dtype=np.float64)
    timestamps = np.asarray(timestamps)
    if values.shape != timestamps.shape:
        raise ValueError(
            f"values {values.shape} and timestamps {timestamps.shape} "
            "must align"
        )
    if values.size < 2:
        return {}
    returns = values[1:] / values[:-1]
    labels = schedule.labels(timestamps[:-1])
    out: Dict[str, Dict[str, float]] = {}
    for name in sorted(set(labels)):
        rets = returns[np.array([lab == name for lab in labels])]
        sub_values = np.concatenate([[1.0], np.cumprod(rets)])
        out[name] = {
            "fapv": final_apv(sub_values),
            "mdd": max_drawdown(sub_values),
            "sharpe": sharpe_ratio(sub_values) if sub_values.size > 2 else 0.0,
            "periods": int(rets.size),
        }
    return out


@register_tagged_type
@dataclass
class FoldRecord:
    """One (fold, strategy, seed) back-test."""

    fold: int
    strategy: str
    seed: int
    window: ExperimentWindow
    metrics: Dict[str, float]
    regimes: Dict[str, Dict[str, float]]
    #: Per-constraint binding counts of this fold's back-test (empty
    #: without a risk engine) — which limits actually shaped the book.
    bindings: Dict[str, int] = field(default_factory=dict)


def fold_record(
    fold: int,
    strategy: str,
    seed: int,
    window: ExperimentWindow,
    result: BacktestResult,
    test: MarketData,
    observation: ObservationConfig,
) -> FoldRecord:
    """The record of one fold's back-test ``result`` over ``test``,
    regimes labeled on the default crypto schedule."""
    first = observation.first_decision_index()
    stamps = test.timestamps[first : first + len(result.values)]
    metrics = {"fapv": result.fapv, "mdd": result.mdd, "sharpe": result.sharpe}
    if "implementation_shortfall" in result.extra:
        metrics["shortfall"] = result.extra["implementation_shortfall"]
    bindings: Dict[str, int] = {}
    risk_summary = result.extra.get("risk")
    if risk_summary:
        metrics["violation_rate"] = float(risk_summary["violation_rate"])
        metrics["lockout_rate"] = float(risk_summary["lockout_rate"])
        bindings = {str(k): int(v) for k, v in risk_summary["binding_counts"].items()}
    regimes = per_regime_metrics(result.values, stamps, default_crypto_schedule())
    return FoldRecord(fold, strategy, seed, window, metrics, regimes, bindings)


def _mean_std(values: Sequence[float]) -> Tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    return (
        float(arr.mean()),
        float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
    )


@dataclass
class WalkForwardReport:
    """All fold records plus the aggregate views tables render, and the
    :class:`~repro.experiments.engine.SweepResult` they came from."""

    records: List[FoldRecord] = field(default_factory=list)
    sweep: Optional["SweepResult"] = field(default=None, repr=False, compare=False)

    def fold_aggregates(self) -> List[Dict[str, object]]:
        """Per (fold, strategy) mean±std across seeds."""
        groups: Dict[Tuple[int, str], List[FoldRecord]] = {}
        for rec in self.records:
            groups.setdefault((rec.fold, rec.strategy), []).append(rec)
        rows = []
        for (fold, strategy), recs in sorted(groups.items()):
            window = recs[0].window
            row: Dict[str, object] = {
                "fold": fold,
                "strategy": strategy,
                "test_start": window.test_start,
                "test_end": window.test_end,
                "seeds": len(recs),
            }
            for metric in ("fapv", "mdd", "sharpe", "shortfall", "violation_rate"):
                if all(metric in r.metrics for r in recs):
                    row[f"{metric}_mean"], row[f"{metric}_std"] = _mean_std(
                        [r.metrics[metric] for r in recs]
                    )
            rows.append(row)
        return rows

    def binding_attribution(self) -> List[Dict[str, object]]:
        """Per (fold, strategy) constraint-binding counts, summed over
        seeds — which limit shaped each fold's book.  Empty when the
        walk ran without a risk engine."""
        groups: Dict[Tuple[int, str], Counter] = {}
        seeds: Counter = Counter()
        for rec in self.records:
            if rec.bindings:
                key = (rec.fold, rec.strategy)
                groups.setdefault(key, Counter()).update(rec.bindings)
                seeds[key] += 1
        return [
            {
                "fold": fold,
                "strategy": strategy,
                "seeds": seeds[(fold, strategy)],
                "bindings": dict(sorted(groups[(fold, strategy)].items())),
            }
            for (fold, strategy) in sorted(groups)
        ]

    def regime_aggregates(self) -> List[Dict[str, object]]:
        """Per (regime, strategy) aggregates across folds and seeds.

        fAPV compounds across a (seed)'s folds — the growth realised
        over every period of that regime the walk traded — then
        mean±std is taken across seeds; MDD takes the worst fold;
        Sharpe averages period-weighted.
        """
        # (regime, strategy, seed) -> per-fold entries.
        per_seed: Dict[Tuple[str, str, int], List[Dict[str, float]]] = {}
        for rec in self.records:
            for regime, metrics in rec.regimes.items():
                per_seed.setdefault((regime, rec.strategy, rec.seed), []).append(
                    metrics
                )
        # Collapse folds within a seed, then aggregate across seeds.
        collapsed: Dict[Tuple[str, str], List[Dict[str, float]]] = {}
        for (regime, strategy, _seed), entries in sorted(per_seed.items()):
            total_periods = sum(e["periods"] for e in entries)
            weights = (
                np.array([e["periods"] for e in entries], dtype=np.float64)
                / max(total_periods, 1)
            )
            collapsed.setdefault((regime, strategy), []).append(
                {
                    "fapv": float(np.prod([e["fapv"] for e in entries])),
                    "mdd": float(max(e["mdd"] for e in entries)),
                    "sharpe": float(
                        np.sum(weights * np.array([e["sharpe"] for e in entries]))
                    ),
                    "periods": total_periods,
                }
            )
        rows = []
        for (regime, strategy), entries in sorted(collapsed.items()):
            row: Dict[str, object] = {
                "regime": regime,
                "strategy": strategy,
                "seeds": len(entries),
                "periods": int(entries[0]["periods"]),
            }
            for metric in ("fapv", "mdd", "sharpe"):
                row[f"{metric}_mean"], row[f"{metric}_std"] = _mean_std(
                    [e[metric] for e in entries]
                )
            rows.append(row)
        return rows


def run_walkforward(
    config: ExperimentConfig,
    walk: WalkForward,
    strategies: Sequence[str],
    seeds: Sequence[int],
    execution: ExecutionRegime = ZERO_EXECUTION,
    risk: RiskRegime = NO_RISK,
    store: Optional[PathLike] = None,
    workers: Optional[int] = None,
    backend: Optional[str] = "reference",
    obs_dir: Optional[PathLike] = None,
    obs_level: str = "info",
) -> WalkForwardReport:
    """Walk ``strategies`` × ``seeds`` through ``walk``'s folds: the
    walk-forward front of the sweep engine.

    ``config`` gives the experiment, profile and overrides; each seed
    replaces its ``agent_seed`` (classical baselines run once, under the
    first).  ``execution``/``risk`` price every fold's back-test and
    ``backend`` trains the learned shards; ``store``, ``workers`` and
    ``obs_dir``/``obs_level`` are as for
    :func:`~repro.experiments.runner.run_experiment`.  The
    records come back from the shards in spec order.
    """
    spec = _front_spec(
        config, strategies, seeds=seeds, walk=walk, execution=execution,
        risk=risk, backend=backend,
    )

    with _run_front(spec, store, workers, obs_dir, obs_level) as (artifacts, sweep):
        shards = [artifacts.load_shard(o.shard_id) for o in sweep.outcomes]
    return WalkForwardReport([r for a in shards for r in a.extra["folds"]], sweep)
