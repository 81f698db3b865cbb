"""Durable per-session state: the one on-disk format for serving.

``SessionStateStore`` is the persistence half of the supervised serving
tier (:mod:`repro.serving.supervisor`).  It holds two things: per-session
*snapshots* (``state.json`` plus a write-once ``weights.npz``), and one
*journal* per worker, the log of that worker's committed batches.

After every committed batch a worker makes one framed append to its
journal (:meth:`SessionStateStore.commit`) before it replies: the
batch's session records (``state.json`` payloads without weights) and
its responses.  *Compaction* (:meth:`SessionStateStore.compact`) writes
the journaled records out as snapshots and then truncates the journal.
A worker compacts on drain, at start (replaying a crashed predecessor's
journal), and when its journal outgrows ``JOURNAL_SNAPSHOTS`` times the
snapshot bytes of the sessions it journals — never on eviction.  Until
the next compaction a session's newest record may live only in the
journal: the instance that appends to it keeps an in-memory index of
each journaled session's latest record line, and reads a session from
there before its ``state.json``.  The supervisor compacts every
journal in the directory (:meth:`SessionStateStore.compact_journals`)
when it opens, so a changed worker count resumes correctly, and after
a drain, for a worker that died before it compacted.  A worker crash
therefore loses only a batch it never journaled, and the replay of a
batch it journaled but did not acknowledge is answered from the
journal instead of being applied twice.

A service checkpoint is the same directory plus a commit mark:
:meth:`~repro.serving.PortfolioService.save_checkpoint` writes every
market and session through :meth:`SessionStateStore.save_checkpoint`
(which, unlike the write-once hot path, replaces re-used names and
deletes what the service no longer has) and then ``checkpoint.json``, and a
drained supervisor writes ``checkpoint.json`` over its state dir (its
journals compacted and empty), so either directory loads with
:func:`read_checkpoint` (and opens as a supervisor state dir).

Layout (every file but the journals written atomically, via
:mod:`repro.utils.serialization`)::

    root/
      markets/<quoted-name>.npz          # panels, write-once (immutable)
      sessions/<quoted-id>/state.json    # per-session snapshot payload
      sessions/<quoted-id>/weights.npz   # learned-agent state dict, if any
      journal/<worker-index>             # appended frames, compacted away
      checkpoint.json                    # {"version": 3, "commission",
                                         #  "markets", "sessions"}

``state.json`` is the commit point for a snapshot: it lands last
(after the weights sidecar) via temp-file + ``os.replace``, so a torn
write leaves the previous state, never half of the new one.  Weights
are written once per session — serving never mutates network weights.
``checkpoint.json`` is the commit point for a whole checkpoint: it
lands after every file it lists.

A journal frame is a header (body length and CRC-32, little-endian
``uint32`` each) and a body of newline-separated compact JSON: the
batch header ``{"batch", "responses"}``, then one line per session
record.  Appends are one ``write`` each; a reader stops at the first
frame that is short or fails its checksum.  That frame is a torn tail:
an append the crash cut, whose batch was never acknowledged, so it is
dropped and its sessions resume at their last acknowledged round.

Durability: this survives a *process* crash at any instruction.
Nothing calls ``fsync``, so host power loss can lose the latest
appends and snapshots (a file the filesystem had not yet flushed can
come back older, empty or torn).  A ``weights.npz`` torn that way is
never rewritten — the sidecar is write-once — and loads as
:class:`CheckpointCorrupt` unless the session's shared agent is
resident (rehydration then never reads it).

The store also tracks *residency* (which sessions a worker holds in
memory) as an LRU: :meth:`touch` bumps a session and
:meth:`overflow` returns the ids beyond ``max_resident``, which the
worker evicts from its service, rehydrating them lazily (from the
journal index or the snapshot) if touched again.  Corrupt files
surface as :class:`CheckpointCorrupt` naming the file.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import weakref
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import (
    Any,
    Container,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)
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
WEIGHTS_FILE = "weights.npz"
JOURNAL_DIR = "journal"
# A worker compacts once its journal holds this many times the snapshot
# bytes of the sessions it journals: snapshot writes then cost at most
# about 1/JOURNAL_SNAPSHOTS of the bytes appended, and replaying a
# journal reads at most this many snapshots' worth per session.
JOURNAL_SNAPSHOTS = 32
# Journal frame header: body length, CRC-32 of the body.
_FRAME = struct.Struct("<II")


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


def _dumps(payload: Any) -> bytes:
    """Compact key-sorted JSON, as ``save_json`` writes snapshots."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=_json_scalar
    ).encode()


def _json_scalar(value: Any) -> Any:
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _frame(lines: List[bytes]) -> bytes:
    body = b"\n".join(lines)
    return _FRAME.pack(len(body), zlib.crc32(body)) + body


def _read_frames(path: Path) -> Iterator[Tuple[Dict[str, Any], List[Dict[str, Any]]]]:
    """``(header, records)`` of each whole frame in a journal, stopping
    at the first short or checksum-failing one (a torn tail).  Frames
    are parsed one at a time, so a reader keeps only what it needs."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return
    position = 0
    while position + _FRAME.size <= len(data):
        length, crc = _FRAME.unpack_from(data, position)
        start = position + _FRAME.size
        body = data[start:start + length]
        if len(body) < length or zlib.crc32(body) != crc:
            break
        try:
            header, *records = [json.loads(line) for line in body.split(b"\n")]
        except ValueError as exc:  # whole and checksummed, yet not ours
            raise CheckpointCorrupt(f"journal {path} is corrupt: {exc}") from exc
        yield header, records
        position = start + length


def _replay(path: Path) -> Tuple[Dict[str, Dict[str, Any]], Optional[Dict[str, Any]]]:
    """Each session's last record in a journal, and the last frame's
    batch header (``None`` for an empty journal)."""
    latest: Dict[str, Dict[str, Any]] = {}
    last = None
    for last, records in _read_frames(path):
        for record in records:
            latest[record["session_id"]] = record
    return latest, last


class SessionStateStore:
    """Session snapshots, per-worker journals and LRU residency tracking.

    Thread-safe: one instance is shared by a worker's serve loop and
    its drain path, and the supervisor opens its own instance over the
    same root (the on-disk layout, not the object, is the interface —
    every snapshot write is atomic).  Only the instance that
    :meth:`open_journal` claimed a journal with appends to it, and
    only that instance reads the sessions it journaled from memory;
    every other read re-opens files.
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
        # session id -> its snapshot's sidecar name (None: no network),
        # as last written or read, so journal records need no disk read.
        self._sidecars: Dict[str, Optional[str]] = {}
        # The journal this instance appends to, once claimed: its file
        # descriptor and length, and each journaled session's latest
        # record line — newer than its snapshot, until a compaction
        # writes it out.
        self._journal_fd: Optional[int] = None
        self._journal_closer: Optional[weakref.finalize] = None
        self._journal_bytes = 0
        self._journaled: Dict[str, bytes] = {}
        self._journaled_bytes = 0

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
        """Write one session's snapshot.

        ``payload`` is an ``export_session`` payload, whose (large,
        immutable) network weights land in a sidecar the first time
        only, or a journal record, whose ``weights`` already names the
        stored sidecar.  The JSON record lands last as the commit point.
        """
        session_id = payload["session_id"]
        directory = self._session_dir(session_id)
        directory.mkdir(parents=True, exist_ok=True)
        record = dict(payload)
        weights = payload.get("weights")
        if weights is not None and not isinstance(weights, str):
            record["weights"] = WEIGHTS_FILE
            if not (directory / WEIGHTS_FILE).exists():
                save_state_dict(directory / WEIGHTS_FILE, weights)
        save_json(directory / "state.json", record)
        self._sidecars[session_id] = record.get("weights")

    def load_session_record(self, session_id: str) -> Dict[str, Any]:
        """The JSON half of a session's newest committed state (weights
        left as the sidecar's filename) — enough to route, describe or
        rehydrate it.

        On the instance that claimed a journal, a session journaled
        since the last compaction comes from the journal index: a fresh
        decode of its latest record line, the JSON text compaction
        would write as its snapshot.  Its ``state.json`` may be older.
        Every other session, and every session on an instance that
        claimed no journal, is read from ``state.json``.
        """
        line = self._journaled.get(session_id)
        if line is not None:
            return json.loads(line)
        path = self._session_dir(session_id) / "state.json"
        if not path.exists():
            raise KeyError(f"session {session_id!r} is not in the store")
        record = _read_checkpoint_file(path, load_json, referenced=True)
        self._sidecars[session_id] = record.get("weights")
        return record

    def load_session(
        self, session_id: str, resident_agents: Container[str] = ()
    ) -> Dict[str, Any]:
        """The full ``import_session`` payload, weights rehydrated.

        ``resident_agents`` names the shared-agent keys the caller's
        service already holds: a shared session under one of them comes
        back with ``weights`` ``None`` and its sidecar unread, since
        ``import_session`` reuses the resident agent.
        """
        record = self.load_session_record(session_id)
        if record.get("weights") is not None:
            if record.get("shared") and record.get("agent_key") in resident_agents:
                record["weights"] = None
            else:
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
        for name in ("state.json", WEIGHTS_FILE):
            path = directory / name
            if path.exists():
                path.unlink()
        if directory.exists():
            directory.rmdir()
        with self._lock:
            self._resident.pop(session_id, None)
        self._sidecars.pop(session_id, None)

    # -- journal -------------------------------------------------------
    def open_journal(self, index: int) -> Optional[Tuple[int, List[Any]]]:
        """Claim ``journal/<index>`` for :meth:`commit`.

        A predecessor's journal is replayed first: its records are
        written out as snapshots (a torn tail is dropped), and the
        journal is replaced by one frame holding only its last batch
        header, so the batch stays recognisable if this worker dies
        too.  Returns that last committed batch as ``(batch,
        responses)``, or ``None`` for an empty journal.
        """
        directory = self.root / JOURNAL_DIR
        directory.mkdir(exist_ok=True)
        path = directory / str(index)
        latest, last = _replay(path)
        for record in latest.values():
            self.save_session(record)
        marker = _frame([_dumps(last)]) if last is not None else b""
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        tmp.write_bytes(marker)
        os.replace(tmp, path)
        self.close()
        self._journal_fd = os.open(path, os.O_WRONLY | os.O_APPEND)
        self._journal_closer = weakref.finalize(self, os.close, self._journal_fd)
        self._journal_bytes = len(marker)
        self._journaled.clear()
        self._journaled_bytes = 0
        return None if last is None else (last["batch"], last["responses"])

    def commit(
        self, batch: int, payloads: Iterable[Dict[str, Any]], responses: List[Any]
    ) -> None:
        """Journal one committed batch in a single append: its
        ``export_session`` payloads (``weights`` left out or ignored —
        the record names the stored sidecar) and its JSON responses."""
        records = []
        for payload in payloads:
            record = dict(payload)
            session_id = record["session_id"]
            if session_id in self._sidecars:
                record["weights"] = self._sidecars[session_id]
            else:
                record["weights"] = self.load_session_record(session_id)["weights"]
            records.append(record)
        lines = [_dumps(record) for record in records]
        frame = _frame([_dumps({"batch": batch, "responses": responses}), *lines])
        written = os.write(self._journal_fd, frame)
        if written != len(frame):
            # A short append would hide every later frame behind a torn
            # one: cut it off before reporting the failure.
            os.ftruncate(self._journal_fd, self._journal_bytes)
            raise OSError(f"short journal append ({written} of {len(frame)} bytes)")
        self._journal_bytes += len(frame)
        for record, line in zip(records, lines):
            previous = self._journaled.get(record["session_id"], b"")
            self._journaled_bytes += len(line) - len(previous)
            self._journaled[record["session_id"]] = line

    def journal_full(self) -> bool:
        """Whether the journal has outgrown ``JOURNAL_SNAPSHOTS`` times
        the snapshot bytes of the sessions it journals."""
        return bool(self._journaled) and (
            self._journal_bytes > JOURNAL_SNAPSHOTS * self._journaled_bytes
        )

    def compact(self) -> None:
        """Write every journaled session's latest record out as its
        snapshot, then truncate the journal."""
        if not self._journaled:
            return
        for line in self._journaled.values():
            self.save_session(json.loads(line))
        os.ftruncate(self._journal_fd, 0)
        self._journal_bytes = 0
        self._journaled.clear()
        self._journaled_bytes = 0

    def close(self) -> None:
        """Release the claimed journal's file descriptor, if any."""
        if self._journal_closer is not None:
            self._journal_closer()
            self._journal_closer = self._journal_fd = None

    def journaled_records(self) -> Dict[str, Dict[str, Any]]:
        """Each session's latest record across every journal in the
        directory — newer than its snapshot when one is present."""
        latest: Dict[str, Dict[str, Any]] = {}
        for path in sorted((self.root / JOURNAL_DIR).glob("[0-9]*")):
            latest.update(_replay(path)[0])
        return latest

    def compact_journals(self) -> None:
        """Compact every journal in the directory and delete it — for a
        directory no worker is appending to (supervisor open, after a
        drain)."""
        for path in sorted((self.root / JOURNAL_DIR).glob("[0-9]*")):
            for record in _replay(path)[0].values():
                self.save_session(record)
            path.unlink()

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
                self._session_dir(session_id) / WEIGHTS_FILE, weights
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
