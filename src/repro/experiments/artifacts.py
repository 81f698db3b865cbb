"""Unified on-disk artifact store for experiment outputs.

One layout, one API: sweep shards write through it, and everything
else reads shards back through it — table rendering and benches their
metrics, :func:`~repro.experiments.runner.run_experiment` a whole
experiment, and :mod:`repro.serving` trained strategies.  Everything is
plain ``npz`` + ``json`` (via :mod:`repro.utils.serialization`), so a
store survives refactors of the in-memory classes.

Layout::

    <root>/
      manifest.json                     # sweep spec + shard index
      shards/<shard_id>/
        shard.json                      # spec, strategy spec, metrics, "complete"
        series.npz                      # back-test trajectories
        weights.npz                     # network state dict (learned strategies)
        trainer.npz                     # resumable trainer counters (history)

``shard.json`` is written *last* with ``"complete": true`` — the commit
point.  A shard directory without it (a killed worker) is treated as
absent and re-run; :meth:`ArtifactStore.has_shard` is what gives the
sweep engine its checkpoint/resume semantics.  The commit record also
carries a sha256 checksum per array file: :meth:`has_shard` re-verifies
them on resume (a corrupt shard reads as absent and is re-run), and
:meth:`load_shard` raises :class:`ArtifactCorrupt` naming the bad file
rather than handing back silently damaged arrays.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional

import numpy as np

from ..envs.backtester import BacktestResult
from ..metrics import BacktestMetrics
from ..registry import DEFAULT_REGISTRY, StrategyRegistry
from ..utils.serialization import (
    PathLike,
    decode_tagged,
    encode_tagged,
    load_json,
    load_state_dict,
    save_json,
    save_state_dict,
)
from .spec import ShardSpec

if TYPE_CHECKING:
    from ..agents.base import Agent

_SERIES_KEYS = ("values", "weights", "rewards", "mus")


class ArtifactCorrupt(RuntimeError):
    """A stored artifact's bytes do not match its recorded checksum."""


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _metrics_to_dict(metrics: BacktestMetrics) -> Dict[str, float]:
    return {
        "fapv": metrics.fapv,
        "sharpe": metrics.sharpe,
        "mdd": metrics.mdd,
        "sortino": metrics.sortino,
        "calmar": metrics.calmar,
        "annual_volatility": metrics.annual_volatility,
        "hit_rate": metrics.hit_rate,
        "num_periods": metrics.num_periods,
    }


def _metrics_from_dict(payload: Dict[str, Any]) -> BacktestMetrics:
    return BacktestMetrics(
        fapv=float(payload["fapv"]),
        sharpe=float(payload["sharpe"]),
        mdd=float(payload["mdd"]),
        sortino=float(payload["sortino"]),
        calmar=float(payload["calmar"]),
        annual_volatility=float(payload["annual_volatility"]),
        hit_rate=float(payload["hit_rate"]),
        num_periods=int(payload["num_periods"]),
    )


def execution_metrics_from_summary(summary: Dict[str, Any]) -> Dict[str, float]:
    """Execution-summary entries that ride along with fAPV/MDD.

    The single mapping both ``run_shard`` (fresh runs) and
    :meth:`ArtifactStore.load_shard_metrics` (resumed skips) apply, so
    a resumed sweep aggregates identically to the run that committed
    the shard.
    """
    return {
        "shortfall": float(summary["implementation_shortfall"]),
        "fill_ratio": float(summary["mean_fill_ratio"]),
    }


def risk_metrics_from_summary(summary: Dict[str, Any]) -> Dict[str, float]:
    """Risk-summary entries that ride along with fAPV/MDD.

    Same contract as :func:`execution_metrics_from_summary`: applied by
    both ``run_shard`` (fresh runs) and
    :meth:`ArtifactStore.load_shard_metrics` (resumed skips), so a
    resumed sweep aggregates identically to the run that committed the
    shard.
    """
    return {
        "violation_rate": float(summary["violation_rate"]),
        "lockout_rate": float(summary["lockout_rate"]),
        "risk_turnover": float(summary["mean_post_turnover"]),
    }


def _result_to_series(result: BacktestResult) -> Dict[str, np.ndarray]:
    return {
        "values": np.asarray(result.values),
        "weights": np.asarray(result.weights),
        "rewards": np.asarray(result.rewards),
        "mus": np.asarray(result.mus),
    }


@dataclass
class ShardArtifact:
    """Everything one executed shard persists.

    ``strategy_spec`` is the registry-shape ``{"strategy", "params"}``
    dict (decoded form) with which the shard's agent was constructed —
    the contract that lets :meth:`ArtifactStore.load_agent` rebuild it
    identically.
    """

    shard: ShardSpec
    strategy_spec: Dict[str, Any]
    metrics: BacktestMetrics
    series: Dict[str, np.ndarray]
    weights_state: Optional[Dict[str, np.ndarray]] = None
    history: Optional[Dict[str, List[float]]] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def shard_id(self) -> str:
        return self.shard.shard_id

    def to_backtest_result(self) -> BacktestResult:
        """The shard's back-test as a live :class:`BacktestResult`."""
        return BacktestResult(
            agent_name=self.strategy_spec["strategy"],
            values=self.series["values"],
            weights=self.series["weights"],
            rewards=self.series["rewards"],
            mus=self.series["mus"],
            metrics=self.metrics,
        )


class ArtifactStore:
    """Directory-backed store for sweep shards."""

    def __init__(self, root: PathLike):
        self.root = Path(root)

    # -- layout --------------------------------------------------------
    def shard_dir(self, shard_id: str) -> Path:
        return self.root / "shards" / shard_id

    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    # -- shards --------------------------------------------------------
    def has_shard(self, shard_id: str) -> bool:
        """True when the shard committed (``shard.json`` marked complete).

        Partial directories from a killed worker read as absent, which
        is exactly the resume semantic: incomplete work is redone,
        committed work is skipped.
        """
        path = self.shard_dir(shard_id) / "shard.json"
        if not path.exists():
            return False
        try:
            payload = load_json(path)
        except ValueError:
            return False
        if not payload.get("complete"):
            return False
        # Resume-time integrity: a committed shard whose arrays no longer
        # match their recorded checksums is treated as absent and re-run.
        return self._corrupt_file(shard_id, payload) is None

    def _corrupt_file(
        self, shard_id: str, payload: Dict[str, Any]
    ) -> Optional[str]:
        """Name of the first artifact file failing its checksum, if any.

        Stores written before checksums existed (no ``"checksums"`` key)
        verify trivially.
        """
        checksums = payload.get("checksums")
        if not checksums:
            return None
        directory = self.shard_dir(shard_id)
        for name, expected in sorted(checksums.items()):
            target = directory / name
            if not target.exists() or _sha256(target) != str(expected):
                return name
        return None

    def list_shards(self) -> List[str]:
        """Sorted ids of every *committed* shard in the store."""
        shards_dir = self.root / "shards"
        if not shards_dir.is_dir():
            return []
        return sorted(
            p.name for p in shards_dir.iterdir() if self.has_shard(p.name)
        )

    def save_shard(self, artifact: ShardArtifact) -> Path:
        """Persist a shard; ``shard.json`` lands last as the commit mark."""
        directory = self.shard_dir(artifact.shard_id)
        directory.mkdir(parents=True, exist_ok=True)
        save_state_dict(directory / "series.npz", artifact.series)
        checksums = {"series.npz": _sha256(directory / "series.npz")}
        if artifact.weights_state is not None:
            save_state_dict(directory / "weights.npz", artifact.weights_state)
            checksums["weights.npz"] = _sha256(directory / "weights.npz")
        payload = {
            "version": 1,
            "checksums": checksums,
            "shard": artifact.shard.to_json_dict(),
            "strategy": {
                "strategy": artifact.strategy_spec["strategy"],
                "params": encode_tagged(artifact.strategy_spec["params"]),
            },
            "metrics": _metrics_to_dict(artifact.metrics),
            "history": artifact.history,
            "has_weights": artifact.weights_state is not None,
            "extra": encode_tagged(artifact.extra),
            "complete": True,
        }
        save_json(directory / "shard.json", payload)
        return directory

    def load_shard(self, shard_id: str) -> ShardArtifact:
        """Load a committed shard back into memory."""
        directory = self.shard_dir(shard_id)
        payload = load_json(directory / "shard.json")
        if not payload.get("complete"):
            raise FileNotFoundError(f"shard {shard_id!r} is incomplete")
        bad = self._corrupt_file(shard_id, payload)
        if bad is not None:
            raise ArtifactCorrupt(
                f"shard {shard_id!r}: {bad} does not match its recorded "
                f"checksum ({directory / bad})"
            )
        weights = None
        if payload.get("has_weights"):
            weights = load_state_dict(directory / "weights.npz")
        return ShardArtifact(
            shard=ShardSpec.from_json_dict(payload["shard"]),
            strategy_spec={
                "strategy": payload["strategy"]["strategy"],
                "params": decode_tagged(payload["strategy"]["params"]),
            },
            metrics=_metrics_from_dict(payload["metrics"]),
            series=load_state_dict(directory / "series.npz"),
            weights_state=weights,
            history=payload.get("history"),
            extra=decode_tagged(payload.get("extra") or {}),
        )

    def _shard_json(self, shard_id: str) -> Dict[str, Any]:
        payload = load_json(self.shard_dir(shard_id) / "shard.json")
        if not payload.get("complete"):
            raise FileNotFoundError(f"shard {shard_id!r} is incomplete")
        return payload

    def load_shard_metrics(self, shard_id: str) -> Dict[str, float]:
        """Metrics-only read (what table rendering needs) — no arrays.

        Shards run under a non-ideal execution regime merge their
        persisted implementation-shortfall summary back in, so a
        resumed sweep aggregates identically to the run that committed
        the shard.
        """
        payload = self._shard_json(shard_id)
        metrics = dict(payload["metrics"])
        extra = payload.get("extra") or {}
        execution = extra.get("execution")
        if execution:
            metrics.update(execution_metrics_from_summary(execution))
        risk = extra.get("risk")
        if risk:
            metrics.update(risk_metrics_from_summary(risk))
        return metrics

    def load_shard_obs(self, shard_id: str) -> Optional[Dict[str, Any]]:
        """The shard's persisted obs snapshot (``extra["obs"]``), if any.

        Shards run with observability enabled commit the snapshot their
        per-shard :class:`~repro.obs.Obs` took (counters, gauges,
        histogram windows).  A resumed sweep merges these back into its
        registry exactly like the execution/risk metric ride-alongs, so
        the aggregated obs view is independent of interruption.  JSON
        only — no array reads.
        """
        extra = self._shard_json(shard_id).get("extra") or {}
        snap = extra.get("obs")
        return dict(snap) if isinstance(snap, dict) else None

    def load_strategy_spec(self, shard_id: str) -> Dict[str, Any]:
        """The shard's ``{"strategy", "params"}`` spec — json only, no
        npz reads (what a serving warm path needs)."""
        payload = self._shard_json(shard_id)
        return {
            "strategy": payload["strategy"]["strategy"],
            "params": decode_tagged(payload["strategy"]["params"]),
        }

    def load_agent(
        self, shard_id: str, registry: Optional[StrategyRegistry] = None
    ) -> "Agent":
        """Rebuild the shard's strategy, trained weights included.

        This is the checkpoint-loading path :mod:`repro.serving` uses:
        the stored constructor params reproduce the exact agent the
        shard ran, then the persisted network state overwrites the
        fresh initialisation.  Reads only ``shard.json`` plus
        ``weights.npz`` — never the trajectory arrays.
        """
        registry = registry if registry is not None else DEFAULT_REGISTRY
        payload = self._shard_json(shard_id)
        spec = {
            "strategy": payload["strategy"]["strategy"],
            "params": decode_tagged(payload["strategy"]["params"]),
        }
        agent = registry.create(spec["strategy"], **spec["params"])
        if payload.get("has_weights"):
            path = self.shard_dir(shard_id) / "weights.npz"
            expected = (payload.get("checksums") or {}).get("weights.npz")
            if expected is not None and (
                not path.exists() or _sha256(path) != str(expected)
            ):
                raise ArtifactCorrupt(
                    f"shard {shard_id!r}: weights.npz does not match its "
                    f"recorded checksum ({path})"
                )
            agent.network.load_state_dict(load_state_dict(path))
        return agent

    # -- manifest ------------------------------------------------------
    def write_manifest(self, payload: Dict[str, Any]) -> Path:
        save_json(self.manifest_path, payload)
        return self.manifest_path

    def read_manifest(self) -> Dict[str, Any]:
        return load_json(self.manifest_path)


def _history_to_dict(history) -> Dict[str, List[float]]:
    return {
        "steps": list(history.steps),
        "loss": list(history.loss),
        "reward": list(history.reward),
    }


def _history_from_dict(payload: Dict[str, List[float]]):
    from ..agents.trainer import TrainHistory

    history = TrainHistory()
    for step, loss, reward in zip(
        payload["steps"], payload["loss"], payload["reward"]
    ):
        history.record(int(step), float(loss), float(reward))
    return history
