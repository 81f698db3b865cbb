"""Durable per-session state: the one on-disk format for serving.

``SessionStateStore`` is the persistence half of the supervised serving
tier (:mod:`repro.serving.supervisor`).  It holds three things: agent
weights stored by content (``agents/<digest>.npz``), per-session
*snapshots* (``state.json``), and one *journal* per worker, the log of
that worker's creates and committed batches.

A worker's create and each of its committed batches is one framed
append to its journal (:meth:`SessionStateStore.commit`) before it
replies.  A session record splits into a *constant part* (version, id,
spec, market, sharing, agent key, the ``weights`` name, and the
observation, ``n_assets`` and ``last_t`` of its ``state``) and a *round
part* (the rest of ``state``: ``next_t``, ``start``, ``decisions``,
``w_prev`` and the risk book — ``start`` too, since the first served
round re-anchors it).  A create journals the whole record; a batch
journals only ``session_id`` and the round part of each session it
served.  The store holds each session's constant part in memory, taken
from its create line or read once from its snapshot, and a record is
that constant part with the line's keys over it (``state`` merged key
by key).  A whole record merges the same way, so a journal of whole
records replays through the same path.  A create writes no per-session
file; a new weight set is the one file it may add.  *Compaction*
(:meth:`SessionStateStore.compact`) writes the journaled sessions'
merged records out as snapshots and then truncates the journal, so a
session's ``state.json`` first appears at its first compaction.  A
worker compacts on drain, at start (replaying a crashed predecessor's
journal), and when its journal outgrows ``JOURNAL_SNAPSHOTS`` times the
snapshot bytes (whole records) of the sessions it journals — never on
eviction.  Until the next compaction a session's newest record may live
only in the journal: the instance that appends to it keeps an
in-memory index of each journaled session's latest line, and reads
(and answers :meth:`~SessionStateStore.has_session`) from there before
its ``state.json``.  The supervisor compacts every journal in the
directory (:meth:`SessionStateStore.compact_journals`) when it opens,
so a changed worker count resumes correctly, and after a drain, for a
worker that died before it compacted.  A worker crash therefore loses
only a create or batch it never journaled, and the replay of a batch it
journaled but did not acknowledge is answered from the journal instead
of being applied twice.

Agent weights are *content-addressed*: the digest
(:func:`weights_digest`, SHA-256 over each array's key, dtype, shape
and bytes in key order — not over the npz container) names the file,
so sessions sharing an agent share one file, a name is never re-used
for other content, and the file is written once per distinct weight
set.  The digest is checked on every read, and on a store instance's
first write of a digest a file already on disk is read and checked
before it is trusted; a torn or mismatched one is then rewritten from
the weights being saved (the caller's resident agent).  Read without a
resident agent, it raises :class:`CheckpointCorrupt` naming the file.
A record whose ``weights`` is the legacy name ``weights.npz`` (a
directory written before weights were content-addressed) resolves to
``sessions/<id>/weights.npz``.

A service checkpoint is the same directory plus a commit mark:
:meth:`~repro.serving.PortfolioService.save_checkpoint` writes every
market and session through :meth:`SessionStateStore.save_checkpoint`
(which, unlike the write-once market path, replaces a re-used market
name and deletes the markets, sessions and agent files the service no
longer references) and then ``checkpoint.json``, and a drained
supervisor writes ``checkpoint.json`` over its state dir (its journals
compacted and empty), so either directory loads with
:func:`read_checkpoint` (and opens as a supervisor state dir).

Layout (every file but the journals written atomically, via
:mod:`repro.utils.serialization`)::

    root/
      markets/<quoted-name>.npz          # panels, write-once (immutable)
      agents/<sha256>.npz                # network state dicts, by content
      sessions/<quoted-id>/state.json    # per-session snapshot payload
      journal/<worker-index>             # appended frames, compacted away
      checkpoint.json                    # {"version": 3, "commission",
                                         #  "markets", "sessions"}

``state.json`` is the commit point for a snapshot: it lands via
temp-file + ``os.replace`` after the agent file it names, so a torn
write leaves the previous state, never half of the new one.
``checkpoint.json`` is the commit point for a whole checkpoint: it
lands after every file it lists.

A journal frame is a header (body length and CRC-32, little-endian
``uint32`` each) and a body of newline-separated compact JSON: the
header ``{"batch", "responses"}`` (``batch`` is ``null`` for a create),
then one line per session — its whole record for a create,
``{"session_id", "state": <round part>}`` for a batch.  Appends are one
``write`` each; a reader stops at the first frame that is short or
fails its checksum.  That frame is a torn tail: an append the crash
cut, whose batch or create was never acknowledged, so it is dropped and
its sessions resume at their last acknowledged round.

Durability: this survives a *process* crash at any instruction.  Agent
files are the only ones synced (``fsync`` of the file before its
rename and of ``agents/`` after), so host power loss leaves each one
whole or absent.  The journal appends and the snapshots are not
synced: power loss can lose the latest of them (an unflushed file can
come back older, empty or torn, and a torn one loads as
:class:`CheckpointCorrupt`).

The store also tracks *residency* (which sessions a worker holds in
memory) as an LRU: :meth:`touch` bumps a session and
:meth:`overflow` returns the ids beyond ``max_resident``, which the
worker evicts from its service, rehydrating them lazily (from the
journal index or the snapshot) if touched again.  Corrupt files
surface as :class:`CheckpointCorrupt` naming the file.
"""

from __future__ import annotations

import hashlib
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
    NamedTuple,
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

__all__ = [
    "CheckpointCorrupt",
    "SessionStateStore",
    "read_checkpoint",
    "weights_digest",
]

CHECKPOINT_FILE = "checkpoint.json"
CHECKPOINT_VERSION = 3
# Versions 1 and 2 kept one manifest beside market_i.npz/agent_k.npz.
LEGACY_MANIFEST = "manifest.json"
# A session's own weights file, as a directory written before weights
# were content-addressed names it.
WEIGHTS_FILE = "weights.npz"
AGENTS_DIR = "agents"
JOURNAL_DIR = "journal"
# A worker compacts once its journal holds this many times the snapshot
# bytes of the sessions it journals: snapshot writes then cost at most
# about 1/JOURNAL_SNAPSHOTS of the bytes appended, and replaying a
# journal reads at most this many snapshots' worth per session.
JOURNAL_SNAPSHOTS = 32
# Journal frame header: body length, CRC-32 of the body.
_FRAME = struct.Struct("<II")
# The keys of a record's ``state`` that a served round changes: a batch
# journals only these.  Every other field of a record is constant for
# the session's lifetime.
ROUND_STATE = ("next_t", "start", "decisions", "w_prev", "risk")


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


def weights_digest(state: Mapping[str, Any]) -> str:
    """SHA-256 hex digest of a state dict's content: each array's key,
    dtype, shape and bytes, in key order.  It is independent of the npz
    container, so the same weights always get the same name."""
    digest = hashlib.sha256()
    for key in sorted(state):
        array = np.asarray(state[key])
        header = json.dumps([key, array.dtype.str, array.shape]) + "\n"
        digest.update(header.encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _stale(path: Path, state: Dict[str, Any]) -> bool:
    """Whether ``path`` holds an npz that is not bit-identical to
    ``state`` — a market name re-used for a new panel.  An unreadable
    file counts as stale."""
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


def _round_line(record: Mapping[str, Any]) -> Dict[str, Any]:
    """The journal line of a batch: ``session_id`` and the round part."""
    state = record["state"]
    return {
        "session_id": record["session_id"],
        "state": {key: state[key] for key in ROUND_STATE if key in state},
    }


def _merge(constant: Mapping[str, Any], line: Mapping[str, Any]) -> Dict[str, Any]:
    """A session's record: its constant part with a journal line's keys
    over it, ``state`` merged key by key.  A whole record as the line
    gives back that record."""
    return {**constant, **line, "state": {**constant["state"], **line["state"]}}


class _Constant(NamedTuple):
    """A session's constant part, as the store keeps it in memory."""

    # The record without its round state (``weights`` a file name).
    record: Dict[str, Any]
    # Whole-record bytes minus round-line bytes: the same for every
    # round of the session, so a round line's length gives its record's.
    offset: int


class SessionStateStore:
    """Agent files, session snapshots, per-worker journals and LRU
    residency tracking.

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
        # session id -> its constant part (its weights file's name
        # included), as last written or read, so a batch journals only
        # round parts and a journaled record needs no disk read.
        self._constants: Dict[str, _Constant] = {}
        # Digests of the agent files this instance wrote or checked.
        self._agents: set = set()
        # The journal this instance appends to, once claimed: its file
        # descriptor and length, each journaled session's latest line
        # (newer than its snapshot, until a compaction writes it out)
        # with the bytes of the record it stands for, and their sum.
        self._journal_fd: Optional[int] = None
        self._journal_closer: Optional[weakref.finalize] = None
        self._journal_bytes = 0
        self._journaled: Dict[str, Tuple[bytes, int]] = {}
        self._journaled_bytes = 0

    # -- markets -------------------------------------------------------
    def _market_path(self, name: str) -> Path:
        return self.root / "markets" / f"{_safe(name)}.npz"

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

    # -- agents --------------------------------------------------------
    def save_agent(self, state: Mapping[str, Any]) -> str:
        """Store a network state dict by content and return the name a
        session record gives it (``agents/<digest>.npz``).

        The file is written once per distinct weight set, durably (see
        :func:`~repro.utils.serialization.save_state_dict`).  This
        instance's first save of a digest reads and checks a file
        already on disk before trusting it, rewriting a torn or
        mismatched one; later saves trust it.
        """
        digest = weights_digest(state)
        name = f"{AGENTS_DIR}/{digest}.npz"
        if digest not in self._agents:
            path = self.root / name
            try:
                intact = weights_digest(load_state_dict(path)) == digest
            except Exception:  # absent, torn or not an npz
                intact = False
            if not intact:
                save_state_dict(path, state, fsync=True)
            self._agents.add(digest)
        return name

    def _load_weights(self, session_id: str, name: str) -> Dict[str, Any]:
        """The state dict a record's ``weights`` names, its digest
        checked (a legacy ``weights.npz`` has none to check)."""
        if name == WEIGHTS_FILE:
            path = self._session_dir(session_id) / name
            return _read_checkpoint_file(path, load_state_dict, referenced=True)
        path = self.root / name
        try:
            state = _read_checkpoint_file(path, load_state_dict, referenced=True)
            if weights_digest(state) != path.stem:
                raise CheckpointCorrupt(
                    f"checkpoint file {path} is corrupt: its content does "
                    "not match its digest"
                )
        except CheckpointCorrupt:
            # Untrusted now: the next save of these weights rewrites it.
            self._agents.discard(path.stem)
            raise
        return state

    # -- sessions ------------------------------------------------------
    def _session_dir(self, session_id: str) -> Path:
        return self.root / "sessions" / _safe(session_id)

    def has_session(self, session_id: str) -> bool:
        """Whether the session is stored: journaled on this instance, or
        snapshotted."""
        return session_id in self._journaled or (
            self._session_dir(session_id) / "state.json"
        ).exists()

    def session_ids(self) -> Tuple[str, ...]:
        """The snapshotted sessions (a session only journaled so far is
        not among them until a compaction)."""
        return tuple(
            sorted(
                unquote(p.parent.name)
                for p in (self.root / "sessions").glob("*/state.json")
            )
        )

    def _learn(self, record: Dict[str, Any], size: Optional[int] = None) -> None:
        """Keep a whole record's constant part; ``size`` is its encoded
        length, if the caller has it."""
        if size is None:
            size = len(_dumps(record))
        self._constants[record["session_id"]] = _Constant(
            {**record, "state": {
                key: value for key, value in record["state"].items()
                if key not in ROUND_STATE
            }},
            size - len(_dumps(_round_line(record))),
        )

    def _constant(self, session_id: str) -> _Constant:
        """A session's constant part, read once from its snapshot."""
        constant = self._constants.get(session_id)
        if constant is None:
            self.load_session_record(session_id)
            constant = self._constants[session_id]
        return constant

    def _record(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        """A payload as a stored record: fresh weights are stored by
        content and named, a payload without ``weights`` gets the name
        its session already has."""
        record = dict(payload)
        if "weights" not in record:
            record["weights"] = self._constant(record["session_id"]).record["weights"]
        elif record["weights"] is not None and not isinstance(
            record["weights"], str
        ):
            record["weights"] = self.save_agent(record["weights"])
        return record

    def save_session(self, payload: Dict[str, Any]) -> None:
        """Write one session's snapshot.

        ``payload`` is an ``export_session`` payload, whose network
        weights are stored by content (:meth:`save_agent`), or a
        journal record, whose ``weights`` already names the stored
        file.  The JSON record lands last as the commit point.
        """
        directory = self._session_dir(payload["session_id"])
        directory.mkdir(parents=True, exist_ok=True)
        weights = payload.get("weights")
        record = self._record(payload)
        self._learn(record, save_json(directory / "state.json", record))
        if weights is not None and not isinstance(weights, str):
            # Fresh weights, stored by content, replace a legacy file.
            (directory / WEIGHTS_FILE).unlink(missing_ok=True)

    def load_session_record(self, session_id: str) -> Dict[str, Any]:
        """The JSON half of a session's newest committed state (weights
        left as the stored file's name) — enough to route, describe or
        rehydrate it.

        On the instance that claimed a journal, a session journaled
        since the last compaction comes from the journal index: its
        constant part with a fresh decode of its latest line merged
        over it, the record compaction would write as its snapshot.
        The constant part's values are shared with the store's cache,
        so treat them as read-only.  Its ``state.json`` may be older or
        absent.  Every other session, and every session on an instance
        that claimed no journal, is read from ``state.json``.
        """
        journaled = self._journaled.get(session_id)
        if journaled is not None:
            return _merge(self._constants[session_id].record, json.loads(journaled[0]))
        path = self._session_dir(session_id) / "state.json"
        if not path.exists():
            raise KeyError(f"session {session_id!r} is not in the store")
        record = _read_checkpoint_file(path, load_json, referenced=True)
        if session_id not in self._constants:
            self._learn(record)
        return record

    def load_session(
        self, session_id: str, resident_agents: Container[str] = ()
    ) -> Dict[str, Any]:
        """The full ``import_session`` payload, weights rehydrated.

        ``resident_agents`` names the shared-agent keys the caller's
        service already holds: a shared session under one of them comes
        back with ``weights`` ``None`` and its agent file unread, since
        ``import_session`` reuses the resident agent.
        """
        record = self.load_session_record(session_id)
        if record.get("weights") is not None:
            if record.get("shared") and record.get("agent_key") in resident_agents:
                record["weights"] = None
            else:
                record["weights"] = self._load_weights(
                    session_id, record["weights"]
                )
        return record

    def delete_session(self, session_id: str) -> None:
        directory = self._session_dir(session_id)
        # state.json first: once the commit mark is gone the session no
        # longer exists, whatever survives of a legacy weights file.
        for name in ("state.json", WEIGHTS_FILE):
            (directory / name).unlink(missing_ok=True)
        if directory.exists():
            directory.rmdir()
        with self._lock:
            self._resident.pop(session_id, None)
        self._constants.pop(session_id, None)

    # -- journal -------------------------------------------------------
    def _replay(
        self, path: Path
    ) -> Tuple[Dict[str, Dict[str, Any]], Optional[Dict[str, Any]]]:
        """Each session's last record in a journal, and the last frame's
        batch header (``None`` for an empty journal)."""
        latest: Dict[str, Dict[str, Any]] = {}
        last = None
        for last, lines in _read_frames(path):
            for line in lines:
                session_id = line["session_id"]
                if "spec" in line:
                    # A whole record: a create's, or any line written
                    # before batches journaled round parts only.
                    self._learn(line)
                try:
                    constant = self._constant(session_id)
                except KeyError:
                    raise CheckpointCorrupt(
                        f"journal {path} is corrupt: session {session_id!r} "
                        "has a round but no record"
                    ) from None
                latest[session_id] = _merge(constant.record, line)
        return latest, last

    def open_journal(self, index: int) -> Optional[Tuple[int, List[Any]]]:
        """Claim ``journal/<index>`` for :meth:`commit`.

        A predecessor's journal is replayed first: its records are
        written out as snapshots (a torn tail is dropped), and the
        journal is replaced by one frame holding only its last header,
        so the batch stays recognisable if this worker dies too.
        Returns that last committed batch as ``(batch, responses)``, or
        ``None`` for an empty journal or one that ends with a create.
        """
        directory = self.root / JOURNAL_DIR
        directory.mkdir(exist_ok=True)
        path = directory / str(index)
        latest, last = self._replay(path)
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
        if last is None or last["batch"] is None:
            return None
        return last["batch"], last["responses"]

    def commit(
        self,
        batch: Optional[int],
        payloads: Iterable[Dict[str, Any]],
        responses: List[Any],
    ) -> None:
        """Journal one committed batch, or a create, in a single append.

        ``payloads`` are ``export_session`` payloads.  With weights (a
        create's), the weights are stored by content first and the
        whole record is journaled; without (``weights=False``, a
        batch's), only ``session_id`` and the round part are, the rest
        being the session's constant part.  ``batch`` is ``None`` for a
        create, whose ``responses`` are empty.
        """
        entries = []
        for payload in payloads:
            if "weights" in payload:
                record = self._record(payload)
                line = _dumps(record)
                self._learn(record, len(line))
                entries.append((record["session_id"], line, len(line)))
            else:
                session_id = payload["session_id"]
                line = _dumps(_round_line(payload))
                offset = self._constant(session_id).offset
                entries.append((session_id, line, len(line) + offset))
        frame = _frame([
            _dumps({"batch": batch, "responses": responses}),
            *(line for _, line, _ in entries),
        ])
        written = os.write(self._journal_fd, frame)
        if written != len(frame):
            # A short append would hide every later frame behind a torn
            # one: cut it off before reporting the failure.
            os.ftruncate(self._journal_fd, self._journal_bytes)
            raise OSError(f"short journal append ({written} of {len(frame)} bytes)")
        self._journal_bytes += len(frame)
        for session_id, line, size in entries:
            previous = self._journaled.get(session_id)
            self._journaled_bytes += size - (previous[1] if previous else 0)
            self._journaled[session_id] = (line, size)

    def journal_full(self) -> bool:
        """Whether the journal has outgrown ``JOURNAL_SNAPSHOTS`` times
        the snapshot bytes (whole records) of the sessions it
        journals."""
        return bool(self._journaled) and (
            self._journal_bytes > JOURNAL_SNAPSHOTS * self._journaled_bytes
        )

    def compact(self) -> None:
        """Write every journaled session's latest record out as its
        snapshot, then truncate the journal."""
        if not self._journaled:
            return
        for session_id in self._journaled:
            self.save_session(self.load_session_record(session_id))
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
            latest.update(self._replay(path)[0])
        return latest

    def compact_journals(self) -> None:
        """Compact every journal in the directory and delete it — for a
        directory no worker is appending to (supervisor open, after a
        drain)."""
        for path in sorted((self.root / JOURNAL_DIR).glob("[0-9]*")):
            for record in self._replay(path)[0].values():
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
        payload, then the commit mark, then delete the stored markets,
        sessions and agent files the mark no longer references.

        Unlike the write-once market path, a stored panel that differs
        from the one being saved (a market name re-used since an
        earlier save into this directory) is replaced.  It is deleted
        before it is rewritten, so a crash in between leaves the older
        checkpoint raising :class:`CheckpointCorrupt` for it rather than
        loading a mix.  Session weights need no such care: a content
        name always holds the same weights.
        """
        for name, data in markets.items():
            path, state = self._market_path(name), market_to_state(data)
            if _stale(path, state):
                path.unlink()
            if not path.exists():
                save_state_dict(path, state)
        sessions = []
        for payload in payloads:
            self.save_session(payload)
            sessions.append(payload["session_id"])
        path = self.write_checkpoint(commission, markets, sessions)
        for session_id in set(self.session_ids()) - set(sessions):
            self.delete_session(session_id)
        for name in set(self.market_names()) - set(markets):
            self._market_path(name).unlink()
        referenced = {
            self._constants[session_id].record["weights"] for session_id in sessions
        }
        for file in (self.root / AGENTS_DIR).glob("*.npz"):
            if f"{AGENTS_DIR}/{file.name}" not in referenced:
                file.unlink()
                self._agents.discard(file.stem)
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
        payloads = [store.load_session_record(sid) for sid in index["sessions"]]
    except KeyError as exc:  # listed in the mark but not stored
        raise CheckpointCorrupt(f"{path / CHECKPOINT_FILE}: {exc.args[0]}") from None
    # Sessions naming one agent file share its one read and digest check.
    states: Dict[str, Dict[str, Any]] = {}
    for sid, record in zip(index["sessions"], payloads):
        name = record.get("weights")
        if name is not None:
            key = f"{sid}/{name}" if name == WEIGHTS_FILE else name
            if key not in states:
                states[key] = store._load_weights(sid, name)
            record["weights"] = states[key]
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
