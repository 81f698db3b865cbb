"""Durable per-session state: the one on-disk format for serving.

``SessionStateStore`` is the persistence half of the supervised serving
tier (:mod:`repro.serving.supervisor`): every committed rebalance round
writes the touched sessions' :meth:`~repro.serving.PortfolioService.export_session`
payloads through to disk, so a worker process can die at any moment and
lose at most the round that was in flight — the supervisor replays that
round against a fresh worker, which *rehydrates* each session lazily
from its last stored state on first touch.

A service checkpoint is the same directory plus a commit mark:
:meth:`~repro.serving.PortfolioService.save_checkpoint` writes every
market and session through :meth:`SessionStateStore.save_checkpoint`
(which, unlike the write-once hot path, replaces re-used names and
deletes what the service no longer has) and then ``checkpoint.json``, and a
drained supervisor writes ``checkpoint.json`` over its state dir, so
either directory loads with :func:`read_checkpoint` (and opens as a
supervisor state dir).

Layout (all writes atomic, via :mod:`repro.utils.serialization`)::

    root/
      markets/<quoted-name>.npz          # panels, write-once (immutable)
      sessions/<quoted-id>/state.json    # per-session checkpoint payload
      sessions/<quoted-id>/weights.npz   # learned-agent state dict, if any
      checkpoint.json                    # {"version": 3, "commission",
                                         #  "markets", "sessions"}

``state.json`` is the commit point for a session write: it lands last
(after the weights sidecar) via temp-file + ``os.replace``, so a torn
write leaves the previous state, never half of the new one.  Weights
are written once per session — serving never mutates network weights —
which keeps the per-round write to a single small JSON file.
``checkpoint.json`` is the commit point for a whole checkpoint: it
lands after every file it lists.

The store also tracks *residency* (which sessions a worker holds in
memory) as an LRU: :meth:`touch` bumps a session and returns the ids
that overflow ``max_resident``, which the worker then evicts from its
service (safe, because write-through means their state is already on
disk) and rehydrates lazily if touched again.  Corrupt files surface as
:class:`CheckpointCorrupt` naming the file.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple
from urllib.parse import quote, unquote

import numpy as np

from ..data.market import MarketData, market_from_state, market_to_state
from ..utils.serialization import (
    PathLike,
    load_json,
    load_state_dict,
    save_json,
    save_state_dict,
)

__all__ = ["CheckpointCorrupt", "SessionStateStore", "read_checkpoint"]

CHECKPOINT_FILE = "checkpoint.json"
CHECKPOINT_VERSION = 3
# Versions 1 and 2 kept one manifest beside market_i.npz/agent_k.npz.
LEGACY_MANIFEST = "manifest.json"


class CheckpointCorrupt(RuntimeError):
    """A checkpoint file failed to load — truncated, tampered, or
    missing.  The message names the offending file so operators know
    what to restore."""


def _read_checkpoint_file(path: Path, loader, referenced: bool = False):
    """Load one checkpoint file, turning damage into a structured error.

    Truncated/corrupt bytes (a torn npz, half a JSON file) raise
    :class:`CheckpointCorrupt` naming the file.  ``referenced=True``
    marks files a commit mark points at — for those, *missing* is also
    corruption (the mark exists but its contents do not), while a
    missing commit mark itself stays ``FileNotFoundError``.
    """
    try:
        return loader(path)
    except FileNotFoundError:
        if referenced:
            raise CheckpointCorrupt(
                f"checkpoint file {path} is referenced by the checkpoint "
                "but missing"
            ) from None
        raise
    except Exception as exc:
        # np.load raises zipfile.BadZipFile/ValueError/EOFError on torn
        # archives and json raises JSONDecodeError on torn text; the
        # loader does nothing but read, so anything it throws is a
        # damaged file.
        raise CheckpointCorrupt(
            f"checkpoint file {path} is corrupt: {type(exc).__name__}: {exc}"
        ) from exc


def _safe(name: str) -> str:
    """Filesystem-safe, reversible encoding of a user-chosen name."""
    return quote(name, safe="")


def _stale(path: Path, state: Dict[str, Any]) -> bool:
    """Whether ``path`` holds an npz that is not bit-identical to
    ``state`` — a name re-used for new content.  An unreadable file
    counts as stale."""
    if not path.exists():
        return False
    try:
        stored = load_state_dict(path)
    except Exception:
        return True

    def bits(array) -> Tuple[Any, ...]:
        array = np.asarray(array)
        return array.dtype, array.shape, array.tobytes()

    return stored.keys() != state.keys() or any(
        bits(stored[key]) != bits(value) for key, value in state.items()
    )


class SessionStateStore:
    """Write-through session persistence with LRU residency tracking.

    Thread-safe: one instance is shared by a worker's serve loop and
    its drain path, and the supervisor opens its own instance over the
    same root (the on-disk layout, not the object, is the interface —
    every read re-opens files, every write is atomic).
    """

    def __init__(self, root: PathLike, max_resident: Optional[int] = None):
        if max_resident is not None and max_resident < 1:
            raise ValueError("max_resident must be >= 1 (or None for unbounded)")
        self.root = Path(root)
        self.max_resident = max_resident
        (self.root / "markets").mkdir(parents=True, exist_ok=True)
        (self.root / "sessions").mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._resident: "OrderedDict[str, None]" = OrderedDict()

    # -- markets -------------------------------------------------------
    def _market_path(self, name: str) -> Path:
        return self.root / "markets" / f"{_safe(name)}.npz"

    def has_market(self, name: str) -> bool:
        return self._market_path(name).exists()

    def save_market(self, name: str, data: MarketData) -> None:
        """Persist a panel once; market names are immutable (the same
        contract as ``PortfolioService.register_market``), so an
        existing file is left untouched."""
        path = self._market_path(name)
        if path.exists():
            return
        save_state_dict(path, market_to_state(data))

    def load_market(self, name: str) -> MarketData:
        path = self._market_path(name)
        if not path.exists():
            raise KeyError(f"market {name!r} is not in the store")
        return market_from_state(
            _read_checkpoint_file(path, load_state_dict, referenced=True)
        )

    def market_names(self) -> Tuple[str, ...]:
        return tuple(
            sorted(
                unquote(p.name[: -len(".npz")])
                for p in (self.root / "markets").glob("*.npz")
            )
        )

    # -- sessions ------------------------------------------------------
    def _session_dir(self, session_id: str) -> Path:
        return self.root / "sessions" / _safe(session_id)

    def has_session(self, session_id: str) -> bool:
        return (self._session_dir(session_id) / "state.json").exists()

    def session_ids(self) -> Tuple[str, ...]:
        return tuple(
            sorted(
                unquote(p.parent.name)
                for p in (self.root / "sessions").glob("*/state.json")
            )
        )

    def save_session(self, payload: Dict[str, Any]) -> None:
        """Write-through one ``export_session`` payload.

        The (large, immutable) network weights land in a sidecar the
        first time only; the (small, per-round) JSON record lands last
        as the commit point.
        """
        directory = self._session_dir(payload["session_id"])
        directory.mkdir(parents=True, exist_ok=True)
        record = {k: v for k, v in payload.items() if k != "weights"}
        record["weights"] = None
        weights = payload.get("weights")
        if weights is not None:
            record["weights"] = "weights.npz"
            if not (directory / "weights.npz").exists():
                save_state_dict(directory / "weights.npz", weights)
        save_json(directory / "state.json", record)

    def load_session_record(self, session_id: str) -> Dict[str, Any]:
        """The JSON half of a stored session (weights left as the
        sidecar's filename) — enough to route or describe it."""
        path = self._session_dir(session_id) / "state.json"
        if not path.exists():
            raise KeyError(f"session {session_id!r} is not in the store")
        return _read_checkpoint_file(path, load_json, referenced=True)

    def load_session(self, session_id: str) -> Dict[str, Any]:
        """The full ``import_session`` payload, weights rehydrated."""
        record = self.load_session_record(session_id)
        if record.get("weights") is not None:
            record["weights"] = _read_checkpoint_file(
                self._session_dir(session_id) / record["weights"],
                load_state_dict,
                referenced=True,
            )
        return record

    def delete_session(self, session_id: str) -> None:
        directory = self._session_dir(session_id)
        # state.json first: once the commit mark is gone the session no
        # longer exists, whatever survives of the sidecar.
        for name in ("state.json", "weights.npz"):
            path = directory / name
            if path.exists():
                path.unlink()
        if directory.exists():
            directory.rmdir()
        with self._lock:
            self._resident.pop(session_id, None)

    # -- LRU residency -------------------------------------------------
    def touch(self, session_id: str) -> None:
        """Mark a session resident and most-recently-used."""
        with self._lock:
            self._resident[session_id] = None
            self._resident.move_to_end(session_id)

    def overflow(self) -> List[str]:
        """Pop and return the least-recently-used ids beyond
        ``max_resident`` (empty when unbounded).

        Deliberately separate from :meth:`touch`: a worker touches every
        session a batch serves, then collects the overflow *after* the
        batch commits and persists — so a batch wider than the residency
        budget can never evict a session it is still serving.
        """
        with self._lock:
            evicted: List[str] = []
            if self.max_resident is not None:
                while len(self._resident) > self.max_resident:
                    evicted.append(self._resident.popitem(last=False)[0])
            return evicted

    def drop_resident(self, session_id: str) -> None:
        with self._lock:
            self._resident.pop(session_id, None)

    def resident_ids(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(self._resident)

    # -- checkpoints ---------------------------------------------------
    def save_checkpoint(
        self,
        commission: float,
        markets: Mapping[str, MarketData],
        payloads: Iterable[Dict[str, Any]],
    ) -> Path:
        """Write a whole checkpoint: ``markets``, every ``export_session``
        payload, then the commit mark, then delete the stored markets
        and sessions the mark does not list.

        Unlike the write-once hot path, a stored panel or session
        weights file that differs from the one being saved (a market
        name or session id re-used since an earlier save into this
        directory) is replaced.  It is deleted before it is rewritten,
        so a crash in between leaves the older checkpoint raising
        :class:`CheckpointCorrupt` for it rather than loading a mix.
        """
        for name, data in markets.items():
            path, state = self._market_path(name), market_to_state(data)
            if _stale(path, state):
                path.unlink()
            if not path.exists():
                save_state_dict(path, state)
        sessions = []
        for payload in payloads:
            session_id = payload["session_id"]
            weights = payload.get("weights")
            if weights is not None and _stale(
                self._session_dir(session_id) / "weights.npz", weights
            ):
                self.delete_session(session_id)
            self.save_session(payload)
            sessions.append(session_id)
        path = self.write_checkpoint(commission, markets, sessions)
        for session_id in set(self.session_ids()) - set(sessions):
            self.delete_session(session_id)
        for name in set(self.market_names()) - set(markets):
            self._market_path(name).unlink()
        return path

    def committed_commission(self) -> Optional[float]:
        """The commission ``checkpoint.json`` records, or ``None`` when
        the store holds no commit mark."""
        path = self.root / CHECKPOINT_FILE
        if not path.exists():
            return None
        return float(_read_checkpoint_file(path, load_json)["commission"])

    def write_checkpoint(
        self, commission: float, markets: Iterable[str], sessions: Iterable[str]
    ) -> Path:
        """Write ``checkpoint.json`` listing ``markets`` and ``sessions``
        — the commit mark, so call it only once they are all stored."""
        path = self.root / CHECKPOINT_FILE
        save_json(path, {
            "version": CHECKPOINT_VERSION,
            "commission": float(commission),
            "markets": sorted(markets),
            "sessions": sorted(sessions),
        })
        return path


Checkpoint = Tuple[float, Dict[str, MarketData], List[Dict[str, Any]]]


def read_checkpoint(path: PathLike) -> Checkpoint:
    """``(commission, markets, import_session payloads)`` of a checkpoint
    directory; one holding only a version-1/2 ``manifest.json`` goes
    through the legacy reader.  A missing checkpoint raises
    ``FileNotFoundError``; a torn file, or a listed market or session
    that is absent, raises :class:`CheckpointCorrupt`."""
    path = Path(path)
    if not (path / CHECKPOINT_FILE).exists() and (path / LEGACY_MANIFEST).exists():
        return _read_legacy_checkpoint(path)
    index = _read_checkpoint_file(path / CHECKPOINT_FILE, load_json)
    if index.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {index.get('version')!r}")
    store = SessionStateStore(path)
    try:
        markets = {name: store.load_market(name) for name in index["markets"]}
        payloads = [store.load_session(sid) for sid in index["sessions"]]
    except KeyError as exc:  # listed in the mark but not stored
        raise CheckpointCorrupt(f"{path / CHECKPOINT_FILE}: {exc.args[0]}") from None
    return float(index["commission"]), markets, payloads


def _read_legacy_checkpoint(path: Path) -> Checkpoint:
    """Version 1/2: each manifest session plus its agent entry (and
    ``agent_k.npz`` weights) becomes one ``export_session`` payload."""
    manifest = _read_checkpoint_file(path / LEGACY_MANIFEST, load_json)
    if manifest.get("version") not in (1, 2):
        raise ValueError(f"unsupported checkpoint version {manifest.get('version')!r}")

    def npz(filename: str) -> Dict[str, Any]:
        return _read_checkpoint_file(path / filename, load_state_dict, referenced=True)

    agents = manifest["agents"]
    weights = {k: npz(a["weights"]) for k, a in agents.items() if a["weights"]}
    payloads = []
    for entry in manifest["sessions"]:
        agent = agents[entry["agent"]]
        payloads.append({
            "version": 2,
            "session_id": entry["session_id"],
            "market": entry["market"],
            "spec": agent["spec"],
            "shared": agent["shared"],
            # Absent in version 1: import_session then shares under the
            # spec-canonical key, as version 1 did.
            "agent_key": agent.get("agent_key"),
            "state": {
                k: v for k, v in entry.items()
                if k not in ("session_id", "agent", "market")
            },
            "weights": weights.get(entry["agent"]),
        })
    markets = {n: market_from_state(npz(f)) for n, f in manifest["markets"].items()}
    return float(manifest["commission"]), markets, payloads
