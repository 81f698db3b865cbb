"""Span tracing from outside the program: wrappers, cross-process merge,
and the per-layer table.

The benchmark never edits ``src/``.  It replaces a layer's public method
with a wrapper that records one span per call (name, start, end, the
caller's span, and an optional value such as the rows of a batch), and
puts the original back afterwards.  Wrappers installed before the
serving supervisor forks its workers run inside the workers too; each
worker keeps its spans in memory and writes them to
``spans-<pid>.json`` in the run's directory when it exits, and the
parent merges them with its own.

Spans carry ``time.perf_counter()`` stamps, a system-wide monotonic
clock on Linux, so spans from different processes share one time axis.
A span whose caller is unknown (the first span on a thread, or in a
worker) is attached to the innermost span that encloses it in time on
another thread of its own process, else in the parent process.  That
is how a worker's persistence spans become children of the
supervisor's dispatch span, and how the HTTP handler's dispatch becomes
a child of the client's request span.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import multiprocessing.util
import os
import threading
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

# One recorded call: (thread id, span id, caller span id or 0, layer
# name, start, end, value).  Plain tuples keep the wrapper cheap.
Record = Tuple[int, int, int, str, float, float, float]


class Tracer:
    """Records spans for the methods it wraps, in this process and in
    processes forked after :meth:`collect_children`."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.records: List[Record] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: List[Tuple[type, str, object, bool]] = []
        self._dump_dir: Optional[Path] = None

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner: type,
        attr: str,
        name: str,
        value: Optional[Callable[[tuple, object], float]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``value(args, result)`` gives the span's value, e.g. the rows of
        a batch or whether a constraint bound.
        """
        original = getattr(owner, attr)
        records = self.records
        ids = self._ids
        stack_of = self._stack
        clock = time.perf_counter
        thread_id = threading.get_ident

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else 0
            sid = next(ids)
            stack.append(sid)
            measured = 0.0
            t0 = clock()
            try:
                result = original(*args, **kwargs)
                if value is not None:
                    measured = float(value(args, result))
                return result
            finally:
                t1 = clock()
                stack.pop()
                records.append((thread_id(), sid, parent, name, t0, t1, measured))

        self._patches.append((owner, attr, original, attr in owner.__dict__))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        """Put every wrapped method back as it was."""
        for owner, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        stack = self._stack()
        parent = stack[-1] if stack else 0
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.records.append(
                (threading.get_ident(), sid, parent, name, t0, t1, 0.0)
            )

    # -- forked children -----------------------------------------------
    def collect_children(self, directory: Path) -> None:
        """Have every process forked from now on start with no spans and
        write its spans to ``directory`` when it exits normally."""
        self._dump_dir = Path(directory)
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.records.clear()
        self._local = threading.local()
        multiprocessing.util.Finalize(self, self._dump, exitpriority=10)

    def _dump(self) -> None:
        path = self._dump_dir / f"spans-{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"pid": self.pid, "records": self.records}))
        os.replace(tmp, path)


def load_child_records(directory: Path) -> Dict[int, List[Record]]:
    """Span records written by forked children, by pid."""
    found: Dict[int, List[Record]] = {}
    for path in sorted(Path(directory).glob("spans-*.json")):
        payload = json.loads(path.read_text())
        found[int(payload["pid"])] = [tuple(r) for r in payload["records"]]
    return found


# -- analysis ----------------------------------------------------------
@dataclass(eq=False)
class Span:
    pid: int
    tid: int
    sid: int
    name: str
    t0: float
    t1: float
    value: float
    parent: Optional["Span"] = None
    children: List["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def encloses(self, other: "Span") -> bool:
        return (
            self.t0 <= other.t0
            and other.t1 <= self.t1
            and (self.t0, self.t1) != (other.t0, other.t1)
        )


class _Enclosing:
    """Finds the innermost span of a set that encloses a given span."""

    def __init__(self, spans: Sequence[Span]):
        self.spans = sorted(spans, key=lambda s: s.t0)
        self.starts = [s.t0 for s in self.spans]
        self.reach = list(itertools.accumulate((s.t1 for s in self.spans), max))

    def innermost(self, span: Span, skip_tid: Optional[int] = None) -> Optional[Span]:
        # Walking back from the latest start, the first enclosing span
        # is the innermost; once no earlier span reaches past the end
        # of ``span``, none can enclose it.
        j = bisect_right(self.starts, span.t0) - 1
        while j >= 0 and self.reach[j] >= span.t1:
            candidate = self.spans[j]
            if candidate.tid != skip_tid and candidate.encloses(span):
                return candidate
            j -= 1
        return None


def merge(
    front_pid: int,
    records: Dict[int, Sequence[Record]],
    window: Tuple[float, float] = (float("-inf"), float("inf")),
) -> List[Span]:
    """Link the spans of several processes into one forest.

    ``records`` maps pid to that process's records; ``front_pid`` is the
    process that forked the others.  Only spans lying wholly inside
    ``window`` are kept.
    """
    lo, hi = window
    spans: List[Span] = []
    by_key: Dict[Tuple[int, int], Span] = {}
    callers: Dict[Span, int] = {}
    for pid, recs in records.items():
        for tid, sid, parent, name, t0, t1, value in recs:
            if t0 < lo or t1 > hi:
                continue
            span = Span(pid, tid, sid, name, t0, t1, value)
            spans.append(span)
            by_key[(pid, sid)] = span
            callers[span] = parent

    by_pid: Dict[int, List[Span]] = {}
    for span in spans:
        by_pid.setdefault(span.pid, []).append(span)
    indexes = {pid: _Enclosing(group) for pid, group in by_pid.items()}
    front = indexes.get(front_pid)

    for span in spans:
        parent = by_key.get((span.pid, callers[span]))
        if parent is None:
            parent = indexes[span.pid].innermost(span, skip_tid=span.tid)
        if parent is None and span.pid != front_pid and front is not None:
            parent = front.innermost(span)
        if parent is not None:
            span.parent = parent
            parent.children.append(span)
    return spans


def self_time(span: Span) -> float:
    """The span's duration less the part of it its children cover
    (overlapping children are counted once)."""
    covered = 0.0
    end = span.t0
    for child in sorted(span.children, key=lambda c: c.t0):
        start = max(child.t0, end)
        stop = min(child.t1, span.t1)
        if stop > start:
            covered += stop - start
            end = stop
    return span.duration - covered


@dataclass
class LayerStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    value_sum: float = 0.0


def layer_table(spans: Sequence[Span]) -> Dict[str, LayerStats]:
    """Per layer: calls, busy time (summed over calls, a recursive call
    counted once), self time and the sum of span values."""
    table: Dict[str, LayerStats] = {}
    for span in spans:
        stats = table.setdefault(span.name, LayerStats())
        stats.calls += 1
        stats.self_s += self_time(span)
        stats.value_sum += span.value
        ancestor = span.parent
        while ancestor is not None and ancestor.name != span.name:
            ancestor = ancestor.parent
        if ancestor is None:
            stats.busy_s += span.duration
    return table
