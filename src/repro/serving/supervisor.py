"""Supervised multi-worker serving tier: failover, rehydration, drain.

``ServingSupervisor`` runs N worker processes, each owning a private
:class:`~repro.serving.PortfolioService` shard.  Sessions are routed to
workers by **market panel** (a stable hash of the market name), so every
session sharing a panel lands on one worker, where its rows share that
panel's feature gathers inside the round's one ``prepare_rows`` call:
the micro-batching win survives the process split.  The supervisor's front is duck-compatible with the in-process
service (``rebalance`` / ``rebalance_many`` / ``create_session`` /
``describe_sessions`` / ``stats`` …), which is how the HTTP layer and
:class:`~repro.serving.MicroBatcher` serve through it unchanged.

Robustness model
----------------
*Group-commit persistence.*  After every committed batch the worker
makes one append to its journal in the
:class:`~repro.serving.SessionStateStore` (``journal/<worker-index>``):
the batch's session records and responses, before it replies.
Compaction turns journaled records into per-session ``state.json``
snapshots at worker start, when the journal outgrows a fixed multiple
of its sessions' snapshot bytes, and over every journal when a
supervisor opens (so a changed worker count resumes correctly) and on
drain — never on eviction.  So an evicted session's newest record may
live only in its worker's journal: the worker rehydrates it from its
store's in-memory journal index, and :meth:`describe_sessions` reads
the journals.  A worker crash therefore loses **at most the
round in flight** — and not observably.  A batch that died before its
append never committed anywhere: the supervisor replays it against a
restarted worker, which rehydrates each session lazily from the store
and recomputes the identical decisions.  A batch that died after its
append but before its reply is replayed too, under the id of its first
attempt, and the restarted worker answers it from the journal rather
than applying the round twice.  A torn journal tail is an append the
crash cut: that batch was never acknowledged and is dropped.  Sessions
on the crashed worker that were *not* in flight lose nothing at all.
Nothing calls ``fsync``; what host power loss can lose is in
:mod:`repro.serving.store`.

*Crash detection.*  Two paths: the dispatch path sees the broken pipe
the moment a send/recv fails, and a heartbeat monitor thread polls
worker liveness every ``heartbeat_interval`` seconds to catch workers
that die idle (``check_workers()`` runs one sweep on demand for
deterministic tests).  Injected crashes come from the fault plan's
``serving.worker_crash_*`` seams, keyed on the supervisor's monotonic
per-worker ``batch_id`` so a one-shot kill can never re-fire on the
replay.

*Graceful drain.*  :meth:`drain` stops admission (new work gets a
structured :class:`Draining` → HTTP 503), waits for in-flight batches
to flush, asks each worker to compact its journal and exit with code
0, then compacts any journal a worker left and writes
``checkpoint.json`` over the store — so a
drained state dir is itself a checkpoint
:meth:`~repro.serving.PortfolioService.load_checkpoint` loads.

*Load shedding.*  ``max_pending`` bounds the front's in-flight request
count: past it, a request is shed with :class:`LoadShed` (a
:class:`~repro.serving.QueueFull` subclass → the HTTP layer's 429)
unless its priority strictly exceeds everything currently in flight —
the highest-priority work keeps landing while the front is saturated.

Parity: with one worker and no fault plan the supervisor serves
bit-identical responses to a plain in-process ``PortfolioService`` —
the whole batch goes to worker 0 in arrival order through the same
``rebalance_many`` — which ``tests/test_supervisor.py`` gates.

Each worker caps its OpenBLAS threads at its share of the cores
(:func:`~repro.utils.blas.worker_budget`) before building its shard;
:class:`WorkerHealth` reports the budget.

Workers are forked (POSIX), so registries holding user-registered
strategies and in-memory panels cross the boundary for free; on
platforms without ``fork`` the default start method is used and
everything a command carries must pickle.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import threading
import time
import weakref
from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..envs.costs import DEFAULT_COMMISSION
from ..obs import MetricsRegistry, Obs, get_obs
from ..registry import DEFAULT_REGISTRY
from ..resilience import injector_from
from ..utils.blas import blas_threads, set_blas_threads, worker_budget
from ..utils.rng import stable_hash
from ..utils.serialization import PathLike
from .service import (
    PortfolioService,
    QueueFull,
    RebalanceRequest,
    RebalanceResponse,
    ServingResilience,
    SessionInfo,
    StatsSeries,
    counting_registry,
    stat,
)
from .store import SessionStateStore

__all__ = [
    "Draining",
    "LoadShed",
    "ServingSupervisor",
    "SupervisorStats",
    "WorkerHealth",
]

# Exit code workers use for injected crashes — distinctive in drain
# reports and CI logs (a real segfault shows a signal instead).
_CRASH_EXIT = 76


class LoadShed(QueueFull):
    """The supervisor front shed this request under overload (429).

    Subclasses :class:`QueueFull` so every existing backpressure
    handler (HTTP 429 mapping, client retry loops) already treats it
    correctly; the distinct type says *why* — priority-based shedding
    at the front, not a full micro-batcher queue.
    """


class Draining(RuntimeError):
    """The supervisor is draining and admits no new work (503)."""


class WorkerDied(RuntimeError):
    """Internal: a worker process died mid-conversation (pipe EOF,
    broken pipe, or liveness timeout).  Never escapes the supervisor —
    it triggers restart + replay instead."""


@dataclass(frozen=True)
class SupervisorStats:
    """Front-side counters: a snapshot read from
    :attr:`ServingSupervisor.metrics`.  Workers count in their own
    processes; :meth:`ServingSupervisor.stats_dict` asks each one."""

    requests_served: int = stat("repro_requests_total", "rebalance requests served")
    batches_dispatched: int = stat(
        "repro_batches_dispatched_total", "sub-batches sent to workers"
    )
    worker_restarts: int = stat(
        "repro_worker_restarts_total", "crashes healed (dispatch or heartbeat)"
    )
    failovers: int = stat(
        "repro_failovers_total", "restarts that also replayed a batch"
    )
    shed_requests: int = stat(
        "repro_shed_requests_total", "requests refused by priority shedding"
    )

    def to_json_dict(self) -> Dict[str, int]:
        return asdict(self)


@dataclass
class WorkerHealth:
    """One worker's liveness snapshot (supervisor-side knowledge only —
    reading it never blocks on a busy worker)."""

    index: int
    alive: bool
    pid: Optional[int]
    restarts: int
    routed_sessions: int
    # The BLAS thread budget the worker applied at spawn (None: no
    # controllable BLAS was found, so it runs the inherited default).
    blas_threads: Optional[int]

    def to_json_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class _WorkerConfig:
    """Everything a worker process needs to build its service shard."""

    index: int
    state_dir: str
    commission: float
    registry: Any
    execution: Any
    risk: Any
    resilience: Optional[ServingResilience]
    fault_plan: Any
    max_resident: Optional[int]
    blas_threads: Optional[int]


# Parent-side pipe ends, closed in freshly forked children: a child
# inheriting the parent's read end of a *sibling's* pipe would keep
# that pipe open after the sibling dies, and the supervisor would never
# see the EOF that is its crash signal.
_PARENT_CONNS: "weakref.WeakSet" = weakref.WeakSet()


def _worker_main(conn, config: _WorkerConfig) -> None:
    """One worker process: a PortfolioService shard behind a pipe.

    Commands arrive as tuples; every reply is ``("ok", payload)`` or
    ``("error", exception)``.  Each committed batch is journaled in one
    append before the reply, so the process can die at any instruction
    and the supervisor recovers everything but a batch it never
    acknowledged (which it replays).  Eviction and size-triggered
    compaction run after the reply, off the request's path; should one
    fail, the worker exits and its successor replays the journal.
    """
    for other in list(_PARENT_CONNS):
        try:
            other.close()
        except Exception:
            pass
    # The drain command is the exit path; a terminal Ctrl-C must reach
    # the supervisor (which drains), not kill workers mid-batch.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except ValueError:  # non-main thread (never on a fresh fork)
        pass
    # Before any GEMM: N workers each keeping the parent's per-core
    # BLAS threads would oversubscribe the cores N-fold.  Applied on
    # every spawn, so respawned workers get it too.
    set_blas_threads(config.blas_threads)

    store = SessionStateStore(config.state_dir, max_resident=config.max_resident)
    # A crashed predecessor's last committed batch: if the supervisor
    # replays it, the journal answers instead of applying it twice.
    last_commit = store.open_journal(config.index)
    injector = injector_from(config.fault_plan)
    # A forked worker inherits the parent's handle, counts included: a
    # fresh registry beside the inherited event log keeps this worker's
    # stats to its own work while its events still reach the log.
    parent_obs = get_obs()
    service = PortfolioService(
        registry=config.registry,
        commission=config.commission,
        execution=config.execution,
        risk=config.risk,
        resilience=config.resilience,
        faults=injector,
        obs=Obs(events=parent_obs.events) if parent_obs.enabled else parent_obs,
    )
    rehydrated = 0
    evicted_count = 0

    def ensure_market(name: str) -> None:
        if name not in service.market_names():
            service.register_market(name, store.load_market(name))

    def ensure_resident(session_id: str) -> None:
        nonlocal rehydrated
        if session_id in service.session_ids():
            store.touch(session_id)
            return
        if not store.has_session(session_id):
            return  # the service raises its structured unknown-session error
        payload = store.load_session(session_id, service.agent_keys())
        ensure_market(payload["market"])
        service.import_session(payload)
        store.touch(session_id)
        rehydrated += 1

    def evict_overflow() -> None:
        # An evicted session's newest record may live only in the
        # journal; rehydration reads it from the store's journal index.
        nonlocal evicted_count
        for session_id in store.overflow():
            service.close_session(session_id)
            evicted_count += 1

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return  # supervisor went away; all committed state is journaled
        command, args = message[0], message[1:]
        try:
            if command == "ping":
                reply: Any = "pong"
            elif command == "create":
                kwargs = dict(args[0])
                session_id = kwargs["session_id"]
                ensure_market(kwargs["market"])
                if store.has_session(session_id):
                    # At-least-once create: a crash between the persist
                    # and the reply makes the supervisor retry; the
                    # stored session is the truth.
                    ensure_resident(session_id)
                    reply = service.describe_session(session_id)
                else:
                    reply = service.create_session(**kwargs)
                    store.save_session(service.export_session(session_id))
                    store.touch(session_id)
            elif command == "rebalance":
                batch_id, origin, requests = args
                if last_commit is not None and last_commit[0] == origin:
                    # The replay of a batch the predecessor committed
                    # but died before acknowledging.
                    reply = [
                        RebalanceResponse.from_json_dict(r)
                        for r in last_commit[1]
                    ]
                else:
                    batch_ids: List[str] = []
                    for request in requests:
                        if request.session_id not in batch_ids:
                            batch_ids.append(request.session_id)
                    for session_id in batch_ids:
                        ensure_resident(session_id)
                    responses = service.rebalance_many(requests)
                    if injector is not None and injector.worker_crashes(
                        config.index, batch_id
                    ):
                        # Die *after* the in-memory commit, *before* the
                        # journal append — the round's state exists
                        # nowhere durable.  The supervisor replays the
                        # batch on a fresh worker, which recomputes it
                        # bit-identically from the last committed state.
                        os._exit(_CRASH_EXIT)
                    store.commit(
                        origin,
                        [
                            service.export_session(session_id, weights=False)
                            for session_id in batch_ids
                        ],
                        [response.to_json_dict() for response in responses],
                    )
                    reply = responses
            elif command == "describe":
                reply = service.describe_sessions()
            elif command == "stats":
                reply = {
                    "service": service.stats.to_json_dict(),
                    "resident_sessions": len(service.session_ids()),
                    "rehydrated": rehydrated,
                    "evicted": evicted_count,
                    "blas_threads": blas_threads(),
                }
            elif command == "drain":
                store.compact()
                conn.send(("ok", {"checkpointed": len(service.session_ids())}))
                return  # normal return → exit code 0, the drain contract
            else:
                raise ValueError(f"unknown worker command {command!r}")
        except Exception as exc:
            try:
                conn.send(("error", exc))
            except (BrokenPipeError, OSError):
                return
            except Exception:
                # Unpicklable exception: degrade to its repr.
                conn.send(("error", RuntimeError(f"{type(exc).__name__}: {exc}")))
            continue
        try:
            conn.send(("ok", reply))
        except (BrokenPipeError, OSError):
            return
        if command in ("create", "rebalance"):
            evict_overflow()
            if store.journal_full():
                store.compact()


class _Worker:
    """Supervisor-side handle: process + pipe + dispatch lock.

    ``lock`` serialises one send/recv conversation at a time;
    ``batch_seq`` is the monotonic dispatch counter fault plans key on
    (it survives restarts, so replayed batches get fresh ids).
    """

    def __init__(self, ctx, config: _WorkerConfig):
        self.index = config.index
        self.blas_threads = config.blas_threads
        self._ctx = ctx
        self._config = config
        self.lock = threading.Lock()
        self.restarts = 0
        self.batch_seq = 0
        self.process = None
        self.conn = None
        self.spawn()

    def spawn(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        _PARENT_CONNS.add(parent_conn)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._config),
            daemon=True,
            name=f"serving-worker-{self.index}",
        )
        process.start()
        child_conn.close()
        self.process = process
        self.conn = parent_conn

    def next_batch_id(self) -> int:
        batch_id = self.batch_seq
        self.batch_seq += 1
        return batch_id

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def close(self) -> None:
        try:
            self.conn.close()
        except Exception:
            pass

    def request(self, message: tuple, timeout: Optional[float] = None) -> Any:
        """One command round-trip (caller holds ``lock``).

        Raises :class:`WorkerDied` on any sign the process is gone —
        broken pipe on send, EOF on recv, or death observed while
        polling; a liveness ``timeout`` additionally kills a hung
        worker rather than waiting forever.
        """
        try:
            self.conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerDied(f"worker {self.index}: send failed") from exc
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self.conn.poll(0.05):
            if not self.alive and not self.conn.poll(0):
                raise WorkerDied(
                    f"worker {self.index} died (exit code "
                    f"{self.process.exitcode})"
                )
            if deadline is not None and time.monotonic() > deadline:
                self.process.terminate()
                self.process.join(timeout=1.0)
                raise WorkerDied(
                    f"worker {self.index} unresponsive for {timeout}s; killed"
                )
        try:
            kind, payload = self.conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerDied(f"worker {self.index}: died mid-reply") from exc
        if kind == "error":
            raise payload
        return payload


class ServingSupervisor:
    """Process-supervised, store-backed front over N service shards.

    Parameters mirror :class:`~repro.serving.PortfolioService` where
    they configure the shards (``registry``/``commission``/
    ``execution``/``risk``/``resilience``/``faults``) and add the
    supervision knobs: ``state_dir`` (the session store root — an
    existing store resumes: routing is rebuilt from it and sessions
    rehydrate on first touch), ``max_resident`` (per-worker LRU
    residency budget), ``max_pending`` (front in-flight bound, the
    load-shedding trigger), ``heartbeat_interval`` (liveness poll
    cadence), ``worker_timeout`` (per-command liveness bound; a hung
    worker is killed and failed over), and ``crash_retries`` (how many
    times one batch may be replayed before the crash is surfaced).
    ``commission`` defaults to the one a ``checkpoint.json`` in
    ``state_dir`` records (else ``DEFAULT_COMMISSION``); passing a
    different one raises ``ValueError``.

    Markets must be registered by name (``register_market``) before
    sessions reference them — inline ``data=`` panels are an
    in-process-only convenience the process boundary does not carry.
    """

    def __init__(
        self,
        state_dir: PathLike,
        workers: int = 2,
        registry=None,
        commission: Optional[float] = None,
        execution=None,
        risk=None,
        resilience: Optional[ServingResilience] = None,
        faults=None,
        max_resident: Optional[int] = None,
        max_pending: Optional[int] = None,
        heartbeat_interval: float = 1.0,
        worker_timeout: Optional[float] = None,
        crash_retries: int = 3,
        obs=None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1 (or None for unbounded)")
        if crash_retries < 1:
            raise ValueError("crash_retries must be >= 1")
        injector = injector_from(faults)
        self._fault_plan = injector.plan if injector is not None else None
        self.store = SessionStateStore(state_dir)
        # A state dir holding checkpoint.json (drained, or written by
        # save_checkpoint) fixes the commission its sessions run at.
        committed = self.store.committed_commission()
        if commission is None:
            commission = DEFAULT_COMMISSION if committed is None else committed
        elif committed is not None and float(commission) != committed:
            raise ValueError(
                f"commission {commission} differs from the {committed} "
                f"recorded in {self.store.root / 'checkpoint.json'}"
            )
        self.registry = registry if registry is not None else DEFAULT_REGISTRY
        self.commission = float(commission)
        self.max_pending = max_pending
        self.worker_timeout = worker_timeout
        self.crash_retries = int(crash_retries)
        self.heartbeat_interval = float(heartbeat_interval)
        self._started = time.monotonic()
        self._obs = obs if obs is not None else get_obs()
        self._metrics = counting_registry(self._obs)
        self._counts = StatsSeries(SupervisorStats, self._metrics)
        m = self._metrics
        self._m_inflight = m.gauge(
            "repro_supervisor_inflight", help="front in-flight requests"
        )
        self._m_workers = m.gauge(
            "repro_supervisor_workers", help="worker processes supervised"
        )
        self._m_workers.set(workers)
        if self._obs.enabled:
            self._m_dispatch = self._obs.histogram(
                "repro_rebalance_latency_seconds",
                help="rebalance_many wall-clock per call",
                component="supervisor",
            )

        # Journals left by a supervisor that stopped without draining
        # (under any worker count) become snapshots before any worker
        # claims a journal index.
        self.store.compact_journals()
        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork") if "fork" in methods else mp.get_context()
        base = _WorkerConfig(
            index=0,
            state_dir=str(state_dir),
            commission=self.commission,
            registry=registry,
            execution=execution,
            risk=risk,
            resilience=resilience,
            fault_plan=self._fault_plan,
            max_resident=max_resident,
            blas_threads=worker_budget(workers),
        )
        self._workers = [
            _Worker(ctx, replace(base, index=i)) for i in range(workers)
        ]

        # Routing: market → worker is a pure hash; session → worker is
        # the table below, rebuilt from the store on construction so a
        # restarted supervisor resumes every persisted session.
        self._route_lock = threading.Lock()
        self._session_worker: Dict[str, int] = {}
        self._known_markets = set(self.store.market_names())
        for session_id in self.store.session_ids():
            record = self.store.load_session_record(session_id)
            self._session_worker[session_id] = self.worker_of_market(
                record["market"]
            )

        # Front admission state (load shedding + drain barrier).
        self._cond = threading.Condition()
        self._inflight = 0
        self._inflight_priorities: List[int] = []
        self._draining = False
        self._drain_report: Optional[Dict[str, Any]] = None

        self._failover_reports: List[Dict[str, Any]] = []
        self._stop = threading.Event()
        self._monitor = threading.Thread(
            target=self._monitor_loop, daemon=True, name="serving-heartbeat"
        )
        self._monitor.start()

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "ServingSupervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Terminate without draining (tests, error paths).  Committed
        state survives in the store; use :meth:`drain` for a clean stop."""
        self._stop.set()
        for worker in self._workers:
            worker.close()
            if worker.alive:
                worker.process.terminate()
        for worker in self._workers:
            if worker.process is not None:
                worker.process.join(timeout=2.0)

    # -- heartbeat -----------------------------------------------------
    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            if self._draining:
                continue
            self.check_workers()

    def check_workers(self) -> List[int]:
        """One heartbeat sweep: restart any worker that died idle.

        The dispatch path heals crashes it observes itself; this
        catches workers that die *between* batches.  Returns the worker
        indices restarted (used by deterministic tests; the monitor
        thread discards it).
        """
        restarted: List[int] = []
        for worker in self._workers:
            if self._draining or self._stop.is_set():
                break
            # Never fight a dispatcher mid-conversation: it will see
            # the death itself and fail over with replay.
            if not worker.lock.acquire(timeout=0.1):
                continue
            try:
                if not worker.alive:
                    self._restart(worker)
                    restarted.append(worker.index)
            finally:
                worker.lock.release()
        return restarted

    def _restart(self, worker: _Worker) -> None:
        """Replace a dead worker's process (caller holds its lock)."""
        worker.close()
        worker.spawn()
        worker.restarts += 1
        self._counts.worker_restarts.inc()
        if self._obs.enabled:
            self._obs.event(
                "worker_restart",
                level="warn",
                worker=worker.index,
                restarts=worker.restarts,
            )

    def _note_failover(
        self, worker: _Worker, requests: Sequence[RebalanceRequest]
    ) -> None:
        """Record the per-session impact of a crash observed in
        dispatch, then restart.  At most one round (the replayed one)
        was in flight per session; everything committed is in the store."""
        in_flight = {request.session_id for request in requests}
        with self._route_lock:
            affected = sorted(
                session_id
                for session_id, index in self._session_worker.items()
                if index == worker.index
            )
        self._restart(worker)
        self._counts.failovers.inc()
        if self._obs.enabled:
            self._obs.event(
                "failover",
                level="warn",
                worker=worker.index,
                replayed_requests=len(requests),
                sessions=len(affected),
            )
        report = {
            "worker": worker.index,
            "restart": worker.restarts,
            "replayed_requests": len(requests),
            "sessions": [
                {
                    "session_id": session_id,
                    "round_in_flight": session_id in in_flight,
                }
                for session_id in affected
            ],
        }
        self._failover_reports.append(report)
        del self._failover_reports[:-16]  # keep the last 16

    # -- routing -------------------------------------------------------
    def worker_of_market(self, name: str) -> int:
        """The worker index a market's sessions land on (pure hash of
        the name, stable across restarts)."""
        return stable_hash(name) % len(self._workers)

    def register_market(self, name: str, data) -> str:
        """Persist a panel to the store under an immutable name.

        Workers pull it from the store lazily (on create or
        rehydration), so registration itself never touches a worker."""
        self.store.save_market(name, data)
        self._known_markets.add(name)
        return name

    def market_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._known_markets))

    def session_ids(self) -> Tuple[str, ...]:
        with self._route_lock:
            return tuple(sorted(self._session_worker))

    # -- sessions ------------------------------------------------------
    def create_session(
        self,
        session_id: str,
        strategy: str = "sdp",
        params: Optional[Dict[str, Any]] = None,
        market: Optional[str] = None,
        observation=None,
        start: Optional[int] = None,
    ) -> SessionInfo:
        """Open a session on the worker owning ``market``'s panel.

        Requires a registered market name; the worker persists the
        fresh session before replying, so a crash immediately after a
        successful create can never lose it (create is retried
        at-least-once on worker death — the worker treats a stored
        session as the truth).
        """
        if market is None:
            raise ValueError(
                "supervisor sessions require market= (a name registered "
                "with register_market); inline data= panels do not cross "
                "the process boundary"
            )
        with self._cond:
            if self._draining:
                raise Draining("supervisor is draining; no new sessions")
        if market not in self._known_markets:
            raise KeyError(
                f"unknown market {market!r}; registered: "
                f"{', '.join(self.market_names()) or '(none)'}"
            )
        worker = self._workers[self.worker_of_market(market)]
        with self._route_lock:
            if session_id in self._session_worker:
                raise ValueError(f"session {session_id!r} already exists")
            self._session_worker[session_id] = worker.index  # reserve
        kwargs = {
            "session_id": session_id,
            "strategy": strategy,
            "params": dict(params or {}),
            "market": market,
            "observation": observation,
            "start": start,
        }
        try:
            with worker.lock:
                attempts = 0
                while True:
                    try:
                        return worker.request(
                            ("create", kwargs), timeout=self.worker_timeout
                        )
                    except WorkerDied:
                        attempts += 1
                        self._restart(worker)
                        if attempts >= self.crash_retries:
                            raise RuntimeError(
                                f"worker {worker.index} died {attempts} "
                                f"times creating session {session_id!r}"
                            ) from None
        except BaseException:
            with self._route_lock:
                if self._session_worker.get(session_id) == worker.index:
                    # Only roll back if the store never committed it
                    # (an at-least-once retry may have landed it).
                    if not self.store.has_session(session_id):
                        del self._session_worker[session_id]
            raise

    def describe_sessions(self) -> Tuple[SessionInfo, ...]:
        """Every session, resident or not: live workers report what
        they hold in memory, the store fills in the evicted rest."""
        infos: Dict[str, SessionInfo] = {}
        for worker in self._workers:
            with worker.lock:
                if not worker.alive:
                    continue
                try:
                    for info in worker.request(
                        ("describe",), timeout=self.worker_timeout
                    ):
                        infos[info.session_id] = info
                except WorkerDied:
                    continue  # the heartbeat heals it; store covers its sessions
        with self._route_lock:
            missing = [sid for sid in self._session_worker if sid not in infos]
        # A dead worker's sessions may be newer in its journal than in
        # their snapshots.
        journaled = self.store.journaled_records() if missing else {}
        for session_id in missing:
            record = journaled.get(session_id)
            if record is None:
                if not self.store.has_session(session_id):
                    continue
                record = self.store.load_session_record(session_id)
            state = record["state"]
            infos[session_id] = SessionInfo(
                session_id=session_id,
                strategy=record["spec"]["strategy"],
                market=record["market"],
                n_assets=int(
                    state.get("n_assets", max(len(state["w_prev"]) - 1, 0))
                ),
                next_t=int(state["next_t"]),
                last_t=int(state.get("last_t", -1)),
                decisions=int(state["decisions"]),
                shared_agent=bool(record["shared"]),
            )
        return tuple(infos[sid] for sid in sorted(infos))

    # -- serving -------------------------------------------------------
    def rebalance(
        self, request: Union[RebalanceRequest, str]
    ) -> RebalanceResponse:
        if isinstance(request, str):
            request = RebalanceRequest(session_id=request)
        return self.rebalance_many([request])[0]

    def rebalance_many(
        self, requests: Sequence[RebalanceRequest]
    ) -> List[RebalanceResponse]:
        """Serve a batch across workers, healing crashes on the way.

        Requests are split into per-worker sub-batches (arrival order
        preserved within each) and dispatched concurrently; each
        sub-batch is transactional within its worker exactly like the
        in-process service — but sub-batches on *different* workers
        commit independently, so a multi-worker batch is not
        all-or-nothing across shards.
        """
        if not requests:
            return []
        obs_on = self._obs.enabled
        if obs_on:
            t0 = time.perf_counter()
        token = self._admit(requests)
        try:
            by_worker: Dict[int, List[Tuple[int, RebalanceRequest]]] = {}
            for position, request in enumerate(requests):
                with self._route_lock:
                    index = self._session_worker.get(request.session_id)
                if index is None:
                    raise KeyError(
                        f"unknown session {request.session_id!r}"
                    )
                by_worker.setdefault(index, []).append((position, request))

            responses: List[Optional[RebalanceResponse]] = [None] * len(requests)
            errors: List[BaseException] = []

            def run(index: int, items: List[Tuple[int, RebalanceRequest]]) -> None:
                try:
                    served = self._dispatch(
                        self._workers[index], [request for _, request in items]
                    )
                    for (position, _), response in zip(items, served):
                        responses[position] = response
                except BaseException as exc:
                    errors.append(exc)

            groups = sorted(by_worker.items())
            if len(groups) == 1:
                run(*groups[0])
            else:
                threads = [
                    threading.Thread(target=run, args=group, daemon=True)
                    for group in groups
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            if errors:
                raise errors[0]
            self._counts.requests_served.inc(len(requests))
            if obs_on:
                self._m_dispatch.observe(time.perf_counter() - t0)
            return responses  # type: ignore[return-value]
        finally:
            self._release(token)

    def _dispatch(
        self, worker: _Worker, requests: List[RebalanceRequest]
    ) -> List[RebalanceResponse]:
        """One sub-batch conversation, with crash failover + replay."""
        obs_on = self._obs.enabled
        with worker.lock:
            attempts = 0
            # Every replay carries the first attempt's id, so a worker
            # whose predecessor journaled the batch answers it from the
            # journal rather than applying it again.
            origin = None
            while True:
                batch_id = worker.next_batch_id()
                if origin is None:
                    origin = batch_id
                self._counts.batches_dispatched.inc()
                try:
                    if obs_on:
                        t0 = time.perf_counter()
                    served = worker.request(
                        ("rebalance", batch_id, origin, list(requests)),
                        timeout=self.worker_timeout,
                    )
                    if obs_on:
                        self._obs.histogram(
                            "repro_worker_dispatch_seconds",
                            help="per-worker sub-batch round-trip",
                            worker=str(worker.index),
                        ).observe(time.perf_counter() - t0)
                    return served
                except WorkerDied:
                    attempts += 1
                    self._note_failover(worker, requests)
                    if attempts >= self.crash_retries:
                        raise RuntimeError(
                            f"worker {worker.index} died {attempts} times "
                            "replaying one batch; giving up (sessions are "
                            "safe in the store)"
                        ) from None

    # -- admission (load shedding + drain barrier) ---------------------
    def _admit(self, requests: Sequence[RebalanceRequest]) -> Tuple[int, int]:
        with self._cond:
            if self._draining:
                raise Draining(
                    "supervisor is draining; no new requests admitted"
                )
            count = len(requests)
            priority = max(
                int(getattr(request, "priority", 0)) for request in requests
            )
            if (
                self.max_pending is not None
                and self._inflight_priorities
                and self._inflight + count > self.max_pending
                and priority <= max(self._inflight_priorities)
            ):
                # Shed: the front is saturated and nothing in this
                # batch outranks the work already admitted.  (An idle
                # front always admits — even an oversized batch — so
                # shedding can never deadlock the system.)
                self._counts.shed_requests.inc(count)
                if self._obs.enabled:
                    self._obs.event(
                        "load_shed",
                        level="warn",
                        count=count,
                        priority=priority,
                        inflight=self._inflight,
                    )
                raise LoadShed(
                    f"supervisor front at capacity ({self._inflight} "
                    f"requests in flight, max_pending={self.max_pending}); "
                    f"shed priority-{priority} request(s) — retry with "
                    "backoff or raise priority"
                )
            self._inflight += count
            self._inflight_priorities.append(priority)
            self._m_inflight.set(self._inflight)
            return (count, priority)

    def _release(self, token: Tuple[int, int]) -> None:
        count, priority = token
        with self._cond:
            self._inflight -= count
            self._inflight_priorities.remove(priority)
            self._m_inflight.set(self._inflight)
            self._cond.notify_all()

    @property
    def inflight(self) -> int:
        with self._cond:
            return self._inflight

    @property
    def obs(self):
        """The observability handle this supervisor records into."""
        return self._obs

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry holding this supervisor's front counters."""
        return self._metrics

    @property
    def stats(self) -> SupervisorStats:
        """The counters in :attr:`metrics`, read as one snapshot."""
        return self._counts.read()

    def uptime_seconds(self) -> float:
        """Seconds since this supervisor was constructed."""
        return time.monotonic() - self._started

    # -- observability -------------------------------------------------
    def worker_health(self) -> List[WorkerHealth]:
        """Liveness snapshot per worker — supervisor-side state only,
        so it never blocks behind a busy or dead worker."""
        with self._route_lock:
            routed: Dict[int, int] = {}
            for index in self._session_worker.values():
                routed[index] = routed.get(index, 0) + 1
        return [
            WorkerHealth(
                index=worker.index,
                alive=worker.alive,
                pid=(
                    worker.process.pid
                    if worker.process is not None
                    else None
                ),
                restarts=worker.restarts,
                routed_sessions=routed.get(worker.index, 0),
                blas_threads=worker.blas_threads,
            )
            for worker in self._workers
        ]

    def stats_dict(self) -> Dict[str, Any]:
        """The ``/stats`` payload: front counters, failover reports,
        and per-worker detail (skipping workers too busy to answer)."""
        workers: List[Dict[str, Any]] = []
        for health in self.worker_health():
            entry = health.to_json_dict()
            worker = self._workers[health.index]
            detail = None
            if health.alive and worker.lock.acquire(timeout=0.5):
                try:
                    detail = worker.request(("stats",), timeout=5.0)
                except WorkerDied:
                    detail = None
                finally:
                    worker.lock.release()
            entry["detail"] = detail
            workers.append(entry)
        with self._cond:
            front = {
                **self.stats.to_json_dict(),
                "draining": self._draining,
                "inflight": int(self._m_inflight.value),
                "workers": int(self._m_workers.value),
            }
        return {
            "supervisor": front,
            "workers": workers,
            "failovers": list(self._failover_reports),
        }

    # -- drain ---------------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Graceful stop: refuse new work, flush in-flight batches,
        have every worker compact its journal into snapshots and exit
        with code 0, then commit the state dir as a checkpoint
        (``checkpoint.json``).

        Idempotent — a second call returns the first report.  Raises
        ``TimeoutError`` if in-flight work does not flush within
        ``timeout`` (the drain stays armed; call again to finish).
        """
        with self._cond:
            if self._drain_report is not None:
                return self._drain_report
            self._draining = True
            deadline = None if timeout is None else time.monotonic() + timeout
            while self._inflight > 0:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    raise TimeoutError(
                        f"drain timed out with {self._inflight} requests "
                        "in flight"
                    )
                self._cond.wait(remaining if remaining is not None else 1.0)
        self._stop.set()

        workers_report: List[Dict[str, Any]] = []
        checkpointed = 0
        for worker in self._workers:
            with worker.lock:
                entry: Dict[str, Any] = {
                    "worker": worker.index,
                    "checkpointed": 0,
                    "exit_code": None,
                }
                if worker.alive:
                    try:
                        payload = worker.request(("drain",), timeout=60.0)
                        entry["checkpointed"] = payload["checkpointed"]
                    except WorkerDied:
                        pass  # its committed state is already in the store
                if worker.process is not None:
                    worker.process.join(timeout=10.0)
                    entry["exit_code"] = worker.process.exitcode
                worker.close()
                checkpointed += entry["checkpointed"]
                workers_report.append(entry)
        # Every worker has exited; one that died before it compacted
        # left its last committed state in its journal.
        self.store.compact_journals()
        checkpoint = self.store.write_checkpoint(
            self.commission, self.store.market_names(), self.store.session_ids()
        )
        report = {
            "sessions": len(self.session_ids()),
            "sessions_checkpointed": checkpointed,
            "checkpoint": str(checkpoint),
            "workers": workers_report,
        }
        with self._cond:
            self._drain_report = report
        return report
