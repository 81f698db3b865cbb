"""The ``Obs`` handle: one object that owns metrics + events + spans.

Design contract (the crown-jewel invariant depends on it):

* The process-global default is :data:`NULL_OBS`, a **true null
  object** — every method is a no-op returning a shared singleton, so
  an uninstrumented process allocates nothing, touches no RNG, and an
  instrumented hot path pays exactly one attribute check
  (``if obs.enabled:``) before skipping all observability work.
* A real :class:`Obs` bundles a :class:`~repro.obs.metrics.
  MetricsRegistry`, an :class:`~repro.obs.events.EventLog`, and
  nestable :meth:`Obs.span` timers whose nesting stack is
  *thread-local* — the ``MicroBatcher`` leader thread and supervisor
  dispatch threads each get their own stack, so span paths never
  interleave across threads.
* Instrumentation must never perturb numerics: handles only read
  clocks and write metric/event sinks.  ``tests/test_obs.py`` gates
  bit-parity of training/backtest/serving outputs with obs enabled
  vs. disabled.

Spans emit a single ``span`` event on exit (``span`` = the ``/``-joined
nesting path, ``seconds`` = duration) and feed a per-leaf-name
``repro_span_seconds`` histogram, so exits are recorded in completion
(LIFO) order per thread — deterministic for a fixed workload.
"""

from __future__ import annotations

import contextlib
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

from .events import EventLog
from .metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "NULL_OBS",
    "NullObs",
    "Obs",
    "Span",
    "configure",
    "get_obs",
    "set_obs",
    "use_obs",
]


class _NullMetric:
    """Shared no-op stand-in for Counter/Gauge/Histogram."""

    __slots__ = ()
    value = 0.0
    count = 0
    sum = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_METRIC = _NullMetric()


class _NullSpan:
    """Shared no-op context manager; ``elapsed`` is always 0.0."""

    __slots__ = ()
    elapsed = 0.0
    path = ""

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullObs:
    """The disabled observability handle — allocates nothing, ever."""

    __slots__ = ()
    enabled = False

    def counter(self, name: str, help: str = "", **labels) -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str, help: str = "", **labels) -> _NullMetric:
        return _NULL_METRIC

    def histogram(self, name: str, help: str = "", window: int = 0, **labels) -> _NullMetric:
        return _NULL_METRIC

    def event(self, kind: str, level: str = "info", **fields) -> None:
        pass

    def span(self, name: str, level: str = "debug", **fields) -> _NullSpan:
        return _NULL_SPAN

    def snapshot(self) -> Dict[str, Any]:
        return {}

    def close(self) -> None:
        pass


#: The process-global default handle.
NULL_OBS = NullObs()


class Span:
    """Nestable timing scope; records on exit.

    ``path`` is the ``/``-joined chain of enclosing span names on the
    *current thread* (stacks are thread-local).  On exit it emits one
    ``span`` event and observes ``repro_span_seconds{span=<leaf>}``.
    """

    __slots__ = ("_obs", "name", "level", "fields", "path", "elapsed", "_t0")

    def __init__(self, obs: "Obs", name: str, level: str, fields: Dict[str, Any]):
        self._obs = obs
        self.name = name
        self.level = level
        self.fields = fields
        self.path = name
        self.elapsed = 0.0
        self._t0 = 0.0

    def __enter__(self) -> "Span":
        stack = self._obs._span_stack()
        stack.append(self.name)
        self.path = "/".join(stack)
        self._t0 = self._obs._timer()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.elapsed = self._obs._timer() - self._t0
        stack = self._obs._span_stack()
        if stack and stack[-1] == self.name:
            stack.pop()
        fields = dict(self.fields)
        if exc_type is not None:
            fields["error"] = exc_type.__name__
        self._obs.events.emit(
            "span", level=self.level, span=self.path,
            seconds=round(self.elapsed, 9), **fields,
        )
        self._obs.metrics.histogram(
            "repro_span_seconds", help="span durations by leaf name", span=self.name
        ).observe(self.elapsed)
        return False


class Obs:
    """An enabled observability handle (metrics + events + spans)."""

    enabled = True

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        events: Optional[EventLog] = None,
        timer: Callable[[], float] = time.perf_counter,
    ):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.events = events if events is not None else EventLog()
        self._timer = timer
        self._local = threading.local()

    # -- metrics --------------------------------------------------------
    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self.metrics.counter(name, help=help, **labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self.metrics.gauge(name, help=help, **labels)

    def histogram(self, name: str, help: str = "", window: int = 512, **labels) -> Histogram:
        return self.metrics.histogram(name, help=help, window=window, **labels)

    # -- events ---------------------------------------------------------
    def event(self, kind: str, level: str = "info", **fields) -> None:
        self.events.emit(kind, level=level, **fields)

    # -- spans ----------------------------------------------------------
    def _span_stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def span(self, name: str, level: str = "debug", **fields) -> Span:
        return Span(self, name, level, fields)

    # -- lifecycle ------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Plain-JSON state: the metric registry snapshot + event count."""
        snap = self.metrics.snapshot()
        snap["events_seen"] = len(self.events.records)
        return snap

    def close(self) -> None:
        self.events.close()


# ---------------------------------------------------------------------
# Process-global handle.
# ---------------------------------------------------------------------
_GLOBAL: Union[Obs, NullObs] = NULL_OBS
_GLOBAL_LOCK = threading.Lock()


def get_obs() -> Union[Obs, NullObs]:
    """The process-global observability handle (default: :data:`NULL_OBS`)."""
    return _GLOBAL


def set_obs(obs: Optional[Union[Obs, NullObs]]) -> Union[Obs, NullObs]:
    """Install ``obs`` (``None`` → null) globally; returns the previous handle."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        previous = _GLOBAL
        _GLOBAL = obs if obs is not None else NULL_OBS
    return previous


@contextlib.contextmanager
def use_obs(obs: Optional[Union[Obs, NullObs]]) -> Iterator[Union[Obs, NullObs]]:
    """Scoped :func:`set_obs` — restores the previous handle on exit."""
    previous = set_obs(obs)
    try:
        yield get_obs()
    finally:
        set_obs(previous)


def configure(
    obs_dir: Optional[Union[str, Path]] = None,
    level: str = "info",
    events_name: str = "events.jsonl",
    install: bool = True,
) -> Obs:
    """Build an enabled :class:`Obs` and (by default) install it globally.

    With ``obs_dir`` set, events append to ``<obs_dir>/<events_name>``;
    without it the log is memory-only (metrics still record).
    """
    path = None
    if obs_dir is not None:
        path = Path(obs_dir) / events_name
    obs = Obs(events=EventLog(path=path, level=level))
    if install:
        set_obs(obs)
    return obs
