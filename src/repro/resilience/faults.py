"""Seeded, deterministic fault injection.

A :class:`FaultPlan` names which seams misbehave and how often; a
:class:`FaultInjector` turns the plan into *replayable* fault decisions.
Every decision is a pure function of ``(plan.seed, site, key)`` through
a stable hash — never of process randomness, wall clock, or call order —
so the same plan fires the same faults at the same places whether a
sweep runs serially or on a process pool, and a chaos test that failed
once fails the same way every time.

Seams
-----
``data.*``
    Feed corruption: NaN/zero prices, missing candles (timestamp gaps),
    duplicated timestamps, stale repeated candles.  Applied by
    :func:`corrupt_panel`; repaired by
    :func:`repro.data.validation.validate_panel`.
``sweep.*``
    Worker failure: transient ``run_shard`` exceptions, a crash that
    leaves a partial artifact dir (the killed-worker shape), and
    permanently broken shards (the quarantine path).
``serving.*``
    Agent forwards that raise, slow sessions exceeding a deadline,
    corrupted checkpoint bytes, and — for the supervised multi-worker
    tier — worker processes that die mid-batch
    (:meth:`FaultInjector.worker_crashes`, consumed by
    :class:`~repro.serving.ServingSupervisor` workers).

An all-zero plan is *empty*: every consumer checks
:meth:`FaultPlan.is_empty` once and takes today's exact code path, so
``None`` and an empty plan are bit-identical by construction.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..data.market import MarketData, unvalidated_market
from ..obs import get_obs
from ..utils.rng import make_rng, stable_hash
from ..utils.serialization import PathLike

__all__ = [
    "DataFaults",
    "FaultInjector",
    "FaultPlan",
    "InjectedFault",
    "ServingFaults",
    "SweepFaults",
    "corrupt_panel",
]


class InjectedFault(RuntimeError):
    """An error raised *on purpose* by the fault injector.

    Carries the seam site and decision key so logs and quarantine
    reports say exactly which planned fault fired.
    """

    def __init__(self, site: str, key: str):
        super().__init__(f"injected fault at {site} [{key}]")
        self.site = site
        self.key = key


# ----------------------------------------------------------------------
# Plan: one frozen dataclass per seam, all-zero defaults.


@dataclass(frozen=True)
class DataFaults:
    """Feed-corruption rates (per cell or per row, in [0, 1]).

    ``fetch_error_rate`` is the transport seam: a chart-data fetch
    raises instead of returning candles.  It draws per
    ``(pair, attempt)`` but only for attempts below
    ``fetch_error_attempts``, so a retry policy with more attempts is
    guaranteed to recover — the same contract as
    :class:`SweepFaults.transient_rate`.
    """

    nan_rate: float = 0.0        # per-cell: prices become NaN
    zero_rate: float = 0.0       # per-cell: prices collapse to 0
    missing_rate: float = 0.0    # per-row: the candle never arrives (gap)
    duplicate_rate: float = 0.0  # per-row: timestamp repeats the previous
    stale_rate: float = 0.0      # per-row: OHLCV repeats the previous row
    fetch_error_rate: float = 0.0   # per (pair, attempt): the fetch raises
    fetch_error_attempts: int = 1   # only attempts below this can fail

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if not f.name.endswith("_rate"):
                continue
            v = getattr(self, f.name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{f.name} must be in [0, 1], got {v}")
        if self.fetch_error_attempts < 0:
            raise ValueError("fetch_error_attempts must be >= 0")

    @property
    def active(self) -> bool:
        return any(
            getattr(self, f.name) > 0.0
            for f in dataclasses.fields(self)
            if f.name.endswith("_rate")
        )


@dataclass(frozen=True)
class SweepFaults:
    """Worker-failure behaviour for ``run_shard``.

    ``transient_rate`` draws per ``(shard_id, attempt)`` but only for
    attempts below ``transient_attempts``, so a retry policy with more
    attempts than that is *guaranteed* to recover — the CI chaos gate's
    contract.  ``crash_shards``/``broken_shards`` target shards by
    position in expansion order: a crash fires on the first attempt
    only and leaves a partial artifact dir behind (the killed-worker
    shape); a broken shard fails every attempt (the quarantine path).
    """

    transient_rate: float = 0.0
    transient_attempts: int = 1
    crash_shards: Tuple[int, ...] = ()
    broken_shards: Tuple[int, ...] = ()

    def __post_init__(self):
        if not 0.0 <= self.transient_rate <= 1.0:
            raise ValueError("transient_rate must be in [0, 1]")
        if self.transient_attempts < 0:
            raise ValueError("transient_attempts must be >= 0")
        object.__setattr__(
            self, "crash_shards", tuple(int(i) for i in self.crash_shards)
        )
        object.__setattr__(
            self, "broken_shards", tuple(int(i) for i in self.broken_shards)
        )

    @property
    def active(self) -> bool:
        return (
            self.transient_rate > 0.0
            or bool(self.crash_shards)
            or bool(self.broken_shards)
        )


@dataclass(frozen=True)
class ServingFaults:
    """Serving-seam behaviour.

    Session faults (``forward_error_rate``/``slow_rate``) draw per
    ``(session_id, t)``; worker-crash faults target the supervised
    multi-worker tier and draw per ``(worker, batch_id)``, where
    ``batch_id`` is the supervisor's monotonically increasing per-worker
    dispatch counter.  A replayed batch after a failover carries a *new*
    ``batch_id``, so an explicit one-shot entry in
    ``worker_crash_batches`` is guaranteed to recover — the load-test
    chaos gate's contract.
    """

    forward_error_rate: float = 0.0    # the agent forward raises
    slow_rate: float = 0.0             # the round stalls slow_seconds
    slow_seconds: float = 0.0
    checkpoint_corrupt_rate: float = 0.0  # per-file: checkpoint bytes torn
    worker_crash_rate: float = 0.0     # per (worker, batch): process dies mid-batch
    worker_crash_batches: Tuple[Tuple[int, int], ...] = ()  # explicit (worker, batch_id) kills

    def __post_init__(self):
        for name in (
            "forward_error_rate",
            "slow_rate",
            "checkpoint_corrupt_rate",
            "worker_crash_rate",
        ):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.slow_seconds < 0:
            raise ValueError("slow_seconds must be non-negative")
        object.__setattr__(
            self,
            "worker_crash_batches",
            tuple(
                (int(worker), int(batch))
                for worker, batch in self.worker_crash_batches
            ),
        )

    @property
    def active(self) -> bool:
        return (
            self.forward_error_rate > 0.0
            or self.slow_rate > 0.0
            or self.checkpoint_corrupt_rate > 0.0
            or self.worker_crash_rate > 0.0
            or bool(self.worker_crash_batches)
        )


@dataclass(frozen=True)
class FaultPlan:
    """The full chaos schedule: a seed plus one spec per seam.

    JSON-round-trippable (:meth:`to_json_dict`/:meth:`from_json_dict`,
    :meth:`save`/:meth:`load`) so the CLI's ``--fault-plan`` and CI
    chaos jobs replay exactly the plan a failure was observed under.
    """

    seed: int = 0
    data: DataFaults = DataFaults()
    sweep: SweepFaults = SweepFaults()
    serving: ServingFaults = ServingFaults()

    def is_empty(self) -> bool:
        """True when no seam can ever fire — consumers take the
        unhardened bit-identical path."""
        return not (
            self.data.active or self.sweep.active or self.serving.active
        )

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "data": dataclasses.asdict(self.data),
            "sweep": {
                "transient_rate": self.sweep.transient_rate,
                "transient_attempts": self.sweep.transient_attempts,
                "crash_shards": list(self.sweep.crash_shards),
                "broken_shards": list(self.sweep.broken_shards),
            },
            "serving": dataclasses.asdict(self.serving),
        }

    @classmethod
    def from_json_dict(cls, payload: Dict[str, Any]) -> "FaultPlan":
        sweep = dict(payload.get("sweep") or {})
        sweep["crash_shards"] = tuple(sweep.get("crash_shards") or ())
        sweep["broken_shards"] = tuple(sweep.get("broken_shards") or ())
        serving = dict(payload.get("serving") or {})
        serving["worker_crash_batches"] = tuple(
            tuple(int(x) for x in item)
            for item in serving.get("worker_crash_batches") or ()
        )
        return cls(
            seed=int(payload.get("seed", 0)),
            data=DataFaults(**(payload.get("data") or {})),
            sweep=SweepFaults(**sweep),
            serving=ServingFaults(**serving),
        )

    def save(self, path: PathLike) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_json_dict(), indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path: PathLike) -> "FaultPlan":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
@dataclass
class FaultInjector:
    """Turns a :class:`FaultPlan` into deterministic fault decisions.

    ``fires(site, key, rate)`` is the one primitive: a uniform draw in
    ``[0, 1)`` from ``stable_hash(seed:site:key)`` compared against
    ``rate``.  Fired faults append to :attr:`record` so two replays of
    the same plan can be compared sequence-for-sequence.  ``sleep`` is
    the injectable stall used by slow-session faults (tests swap in a
    fake so chaos suites run instantly).
    """

    plan: FaultPlan
    sleep: Callable[[float], None] = time.sleep
    record: List[Tuple[str, str]] = field(default_factory=list)

    def _note(self, site: str, key: str) -> None:
        """Record a fired fault (and mirror it to the obs event log).

        The emitted ``fault_fired`` event carries the same
        ``(seed, site, key)`` identity the deterministic draw used, so
        an event log can be replayed against :attr:`record`.
        """
        self.record.append((site, key))
        obs = get_obs()
        if obs.enabled:
            obs.event(
                "fault_fired", level="warn",
                seed=self.plan.seed, site=site, key=key,
            )

    def _unit(self, site: str, key: str) -> float:
        return (
            stable_hash(f"{self.plan.seed}:{site}:{key}", modulus=2 ** 30)
            / 2 ** 30
        )

    def fires(self, site: str, key: str, rate: float) -> bool:
        if rate <= 0.0:
            return False
        fired = rate >= 1.0 or self._unit(site, key) < rate
        if fired:
            self._note(site, key)
        return fired

    # -- sweep seam ----------------------------------------------------
    def shard_fault(
        self, shard_id: str, position: int, attempt: int
    ) -> Optional[str]:
        """Which sweep fault (if any) hits this shard attempt.

        Returns ``None`` (healthy), ``"transient"`` (raise before any
        work), ``"crash"`` (raise mid-write, partial dir left), or
        ``"broken"`` (raise on every attempt — quarantine fodder).
        """
        sweep = self.plan.sweep
        if position in sweep.broken_shards:
            self._note("sweep.broken", f"{shard_id}:{attempt}")
            return "broken"
        if position in sweep.crash_shards and attempt == 0:
            self._note("sweep.crash", f"{shard_id}:{attempt}")
            return "crash"
        if attempt < sweep.transient_attempts and self.fires(
            "sweep.transient", f"{shard_id}:{attempt}", sweep.transient_rate
        ):
            return "transient"
        return None

    # -- serving seam --------------------------------------------------
    def forward_fails(self, session_id: str, t: int) -> bool:
        return self.fires(
            "serving.forward", f"{session_id}:{t}",
            self.plan.serving.forward_error_rate,
        )

    def maybe_stall(self, session_id: str, t: int) -> bool:
        """Apply the slow-session fault (returns whether it fired)."""
        serving = self.plan.serving
        if self.fires("serving.slow", f"{session_id}:{t}", serving.slow_rate):
            self.sleep(serving.slow_seconds)
            return True
        return False

    def worker_crashes(self, worker: int, batch_id: int) -> bool:
        """Whether this dispatched batch kills its worker process.

        Explicit ``worker_crash_batches`` entries fire exactly on their
        ``(worker, batch_id)`` pair; because the supervisor assigns a
        fresh ``batch_id`` to the replayed batch after failover, a
        one-shot entry can never re-fire on the replay.  The rate-based
        draw uses the same key, so it is equally replayable.
        """
        serving = self.plan.serving
        if (int(worker), int(batch_id)) in serving.worker_crash_batches:
            self._note("serving.worker_crash", f"{worker}:{batch_id}")
            return True
        return self.fires(
            "serving.worker_crash", f"{worker}:{batch_id}",
            serving.worker_crash_rate,
        )

    def corrupt_checkpoint(self, path: PathLike) -> List[str]:
        """Tear checkpoint files anywhere under ``path`` per the plan.

        Each regular file is truncated to half its size when its draw,
        keyed on the file's path relative to ``path`` (e.g.
        ``sessions/a/state.json``), fires — the torn-write shape
        ``load_checkpoint`` must turn into a structured
        :class:`~repro.serving.CheckpointCorrupt`.  Returns the relative
        paths of the files corrupted.
        """
        rate = self.plan.serving.checkpoint_corrupt_rate
        torn: List[str] = []
        if rate <= 0.0:
            return torn
        root = Path(path)
        for file in sorted(root.rglob("*")):
            if not file.is_file():
                continue
            key = file.relative_to(root).as_posix()
            if self.fires("serving.checkpoint", key, rate):
                data = file.read_bytes()
                file.write_bytes(data[: len(data) // 2])
                torn.append(key)
        return torn

    # -- data seam -----------------------------------------------------
    def fetch_fails(self, pair: str, attempt: int) -> bool:
        """Whether this fetch attempt raises (transport-level fault)."""
        data = self.plan.data
        if attempt >= data.fetch_error_attempts:
            return False
        return self.fires(
            "data.fetch", f"{pair}:{attempt}", data.fetch_error_rate
        )

    def corrupt_market(self, data: MarketData, key: str = "") -> MarketData:
        return corrupt_panel(data, self.plan.data, self.plan.seed, key=key)


def injector_from(plan_or_injector) -> Optional[FaultInjector]:
    """Normalise a ``FaultPlan | FaultInjector | None`` parameter.

    Empty plans normalise to ``None`` — the single check that makes
    "no plan" and "empty plan" the same code path everywhere.
    """
    if plan_or_injector is None:
        return None
    if isinstance(plan_or_injector, FaultInjector):
        return None if plan_or_injector.plan.is_empty() else plan_or_injector
    if isinstance(plan_or_injector, FaultPlan):
        if plan_or_injector.is_empty():
            return None
        return FaultInjector(plan_or_injector)
    raise TypeError(
        f"expected FaultPlan, FaultInjector, or None, got "
        f"{type(plan_or_injector).__name__}"
    )


# ----------------------------------------------------------------------
def corrupt_panel(
    data: MarketData, faults: DataFaults, seed: int, key: str = ""
) -> MarketData:
    """Return a feed-corrupted copy of ``data`` (the *dirty* panel).

    Applies, in a fixed order, the plan's cell faults (NaN prices, zero
    prices), stale repeated rows, duplicated timestamps, and missing
    candles (rows removed, leaving timestamp gaps).  The result is
    built *without* validation — it is exactly the malformed feed
    :func:`repro.data.validation.validate_panel` exists to detect and
    repair.  Deterministic: one seeded generator derived from
    ``(seed, key)`` drives all draws, so the same panel corrupts the
    same way every replay.
    """
    if not faults.active:
        return data
    rng = make_rng(stable_hash(f"{seed}:data:{key}", modulus=2 ** 31 - 1))
    n, m = data.close.shape
    o = data.open.copy()
    h = data.high.copy()
    l = data.low.copy()
    c = data.close.copy()
    v = data.volume.copy()
    ts = data.timestamps.copy()

    # Cell faults (row 0 is spared so a repaired panel always has an
    # anchor price to forward-fill from).
    nan_mask = rng.random((n, m)) < faults.nan_rate
    zero_mask = rng.random((n, m)) < faults.zero_rate
    nan_mask[0] = False
    zero_mask[0] = False
    for mask, value in ((nan_mask, np.nan), (zero_mask, 0.0)):
        o[mask] = value
        h[mask] = value
        l[mask] = value
        c[mask] = value

    # Row faults are drawn for every row > 0 in one pass each.
    stale_rows = np.flatnonzero(rng.random(n) < faults.stale_rate)
    dup_rows = np.flatnonzero(rng.random(n) < faults.duplicate_rate)
    missing_rows = np.flatnonzero(rng.random(n) < faults.missing_rate)
    for r in stale_rows:
        if r == 0:
            continue
        o[r], h[r], l[r], c[r], v[r] = o[r - 1], h[r - 1], l[r - 1], c[r - 1], v[r - 1]
    for r in dup_rows:
        if r == 0:
            continue
        ts[r] = ts[r - 1]
    keep = np.ones(n, dtype=bool)
    keep[missing_rows] = False
    keep[0] = True  # the feed's first candle anchors the timeline

    return unvalidated_market(
        timestamps=ts[keep],
        names=list(data.names),
        open=o[keep],
        high=h[keep],
        low=l[keep],
        close=c[keep],
        volume=v[keep],
        period_seconds=data.period_seconds,
    )
