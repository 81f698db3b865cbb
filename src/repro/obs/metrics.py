"""Metric primitives: counters, gauges, ring-buffer histograms.

Everything here is dependency-free (numpy + stdlib) and cheap enough
to live on serving hot paths: a :class:`Counter` increment is one lock
acquisition and an integer add, a :class:`Histogram` observation is a
ring-buffer write.  Quantiles use the *nearest-rank* method — for
``n`` retained samples sorted ascending, ``q`` maps to element
``max(1, ceil(q * n)) - 1`` — which is exact, deterministic, and easy
to verify on small inputs.

The :class:`MetricsRegistry` keys metrics by ``(name, labels)`` so the
same series can be split per route / per worker / per component, and
renders the whole family in the Prometheus text exposition format
(counters and gauges as-is, histograms as ``summary`` metrics with
p50/p95/p99 quantile samples plus ``_sum``/``_count``).

Snapshots are plain-JSON dicts.  Histogram snapshots carry the retained
ring-buffer samples, so merging two snapshots (sweep resume, per-shard
aggregation) reconstructs quantiles exactly over the union of retained
windows while keeping the *total* count/sum/min/max lossless.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "nearest_rank_quantile",
    "render_prometheus",
]

#: Default ring-buffer window for histograms.
DEFAULT_WINDOW = 512

#: Quantiles exported by snapshots and the Prometheus renderer.
QUANTILES = (0.5, 0.95, 0.99)


def nearest_rank_quantile(sorted_samples: Sequence[float], q: float) -> float:
    """Exact nearest-rank quantile of an ascending-sorted sequence."""
    n = len(sorted_samples)
    if n == 0:
        return float("nan")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    rank = max(1, math.ceil(q * n))
    return float(sorted_samples[rank - 1])


class Counter:
    """Monotonic counter."""

    __slots__ = ("name", "labels", "help", "_value", "_lock")

    def __init__(self, name: str, labels: Mapping[str, str], help: str = ""):
        self.name = name
        self.labels = dict(labels)
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """Point-in-time value (queue depth, inflight requests, ...)."""

    __slots__ = ("name", "labels", "help", "_value", "_lock")

    def __init__(self, name: str, labels: Mapping[str, str], help: str = ""):
        self.name = name
        self.labels = dict(labels)
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    def set_max(self, value: float) -> None:
        """Raise the gauge to ``value`` if it is higher (a high-water mark)."""
        with self._lock:
            self._value = max(self._value, float(value))

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Ring-buffer histogram with exact quantiles over a sliding window.

    Keeps the last ``window`` observations (default 512) for quantile
    computation plus lossless lifetime ``count``/``sum``/``min``/``max``.
    """

    __slots__ = ("name", "labels", "help", "window", "_buf", "_count", "_sum", "_min", "_max", "_lock")

    def __init__(
        self,
        name: str,
        labels: Mapping[str, str],
        help: str = "",
        window: int = DEFAULT_WINDOW,
    ):
        if window <= 0:
            raise ValueError("window must be positive")
        self.name = name
        self.labels = dict(labels)
        self.help = help
        self.window = window
        self._buf: List[float] = []
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            if len(self._buf) < self.window:
                self._buf.append(value)
            else:
                self._buf[self._count % self.window] = value
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float:
        with self._lock:
            samples = sorted(self._buf)
        return nearest_rank_quantile(samples, q)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            retained = list(self._buf)
            count, total = self._count, self._sum
            lo, hi = self._min, self._max
        ordered = sorted(retained)
        snap: Dict[str, Any] = {
            "count": count,
            "sum": total,
            "min": lo if count else None,
            "max": hi if count else None,
            "samples": retained,
        }
        for q in QUANTILES:
            snap[f"p{int(q * 100)}"] = (
                nearest_rank_quantile(ordered, q) if ordered else None
            )
        return snap

    def absorb(self, snap: Mapping[str, Any]) -> None:
        """Merge a :meth:`snapshot` into this histogram.

        Retained samples re-enter the ring buffer; count/sum/min/max
        absorb the snapshot's lossless totals (including observations
        the snapshot's own window had already evicted).
        """
        samples = list(snap.get("samples", ()))
        for value in samples:
            self.observe(value)
        extra = int(snap.get("count", len(samples))) - len(samples)
        with self._lock:
            if extra > 0:
                self._count += extra
                self._sum += float(snap.get("sum", 0.0)) - sum(samples)
            if snap.get("min") is not None:
                self._min = min(self._min, float(snap["min"]))
            if snap.get("max") is not None:
                self._max = max(self._max, float(snap["max"]))


def _series_key(name: str, labels: Mapping[str, str]) -> str:
    """Canonical ``name{k="v",...}`` series key (also the snapshot key)."""
    if not labels:
        return name
    body = ",".join(f'{k}="{_escape(str(v))}"' for k, v in sorted(labels.items()))
    return f"{name}{{{body}}}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _parse_series_key(key: str) -> Tuple[str, Dict[str, str]]:
    if "{" not in key:
        return key, {}
    name, _, rest = key.partition("{")
    labels: Dict[str, str] = {}
    for part in rest.rstrip("}").split('",'):
        if not part:
            continue
        k, _, v = part.partition('="')
        labels[k.strip(",")] = v.rstrip('"').replace('\\"', '"').replace("\\\\", "\\")
    return name, labels


class MetricsRegistry:
    """Process-wide family of named, labelled metric series."""

    def __init__(self):
        self._lock = threading.Lock()
        self._series: Dict[str, Any] = {}

    # -- constructors ---------------------------------------------------
    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get(Counter, name, labels, help)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get(Gauge, name, labels, help)

    def histogram(
        self, name: str, help: str = "", window: int = DEFAULT_WINDOW, **labels: str
    ) -> Histogram:
        key = _series_key(name, labels)
        with self._lock:
            metric = self._series.get(key)
            if metric is None:
                metric = Histogram(name, labels, help=help, window=window)
                self._series[key] = metric
            elif not isinstance(metric, Histogram):
                raise TypeError(f"metric {key!r} already registered as {type(metric).__name__}")
        return metric

    def _get(self, cls, name: str, labels: Mapping[str, str], help: str):
        key = _series_key(name, labels)
        with self._lock:
            metric = self._series.get(key)
            if metric is None:
                metric = cls(name, labels, help=help)
                self._series[key] = metric
            elif not isinstance(metric, cls):
                raise TypeError(f"metric {key!r} already registered as {type(metric).__name__}")
        return metric

    # -- introspection --------------------------------------------------
    def series(self) -> Dict[str, Any]:
        with self._lock:
            return dict(self._series)

    def snapshot(self) -> Dict[str, Any]:
        """Plain-JSON snapshot: ``{"counters": ..., "gauges": ..., "histograms": ...}``."""
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Any] = {}
        for key, metric in self.series().items():
            if isinstance(metric, Counter):
                counters[key] = metric.value
            elif isinstance(metric, Gauge):
                gauges[key] = metric.value
            elif isinstance(metric, Histogram):
                histograms[key] = metric.snapshot()
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def merge_snapshot(self, snap: Optional[Mapping[str, Any]]) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Counters add, gauges take the incoming value (last writer wins),
        histograms :meth:`Histogram.absorb` — the rule used when a sweep
        aggregates per-shard snapshots, fresh or reloaded on resume.
        """
        if not snap:
            return
        for key, value in snap.get("counters", {}).items():
            name, labels = _parse_series_key(key)
            self.counter(name, **labels).inc(value)
        for key, value in snap.get("gauges", {}).items():
            name, labels = _parse_series_key(key)
            self.gauge(name, **labels).set(value)
        for key, hsnap in snap.get("histograms", {}).items():
            name, labels = _parse_series_key(key)
            self.histogram(name, **labels).absorb(hsnap)


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format.

    Counters and gauges emit one sample per label set; histograms emit
    as ``summary`` metrics (p50/p95/p99 ``quantile`` samples plus
    ``_sum`` and ``_count``).  Families are grouped under one
    ``# HELP``/``# TYPE`` header each, as the format requires.
    """
    families: Dict[str, List[Any]] = {}
    for metric in registry.series().values():
        families.setdefault(metric.name, []).append(metric)

    lines: List[str] = []
    for name in sorted(families):
        metrics = families[name]
        first = metrics[0]
        kind = (
            "counter"
            if isinstance(first, Counter)
            else "gauge" if isinstance(first, Gauge) else "summary"
        )
        help_text = next((m.help for m in metrics if m.help), "")
        if help_text:
            lines.append(f"# HELP {name} {_escape(help_text)}")
        lines.append(f"# TYPE {name} {kind}")
        for metric in sorted(metrics, key=lambda m: sorted(m.labels.items())):
            if isinstance(metric, Histogram):
                for q in QUANTILES:
                    labels = dict(metric.labels)
                    labels["quantile"] = str(q)
                    value = metric.quantile(q) if metric.count else float("nan")
                    lines.append(f"{_series_key(name, labels)} {_format_value(value)}")
                lines.append(
                    f"{_series_key(name + '_sum', metric.labels)} "
                    f"{_format_value(metric.sum)}"
                )
                lines.append(
                    f"{_series_key(name + '_count', metric.labels)} {metric.count}"
                )
            else:
                lines.append(
                    f"{_series_key(name, metric.labels)} {_format_value(metric.value)}"
                )
    return "\n".join(lines) + "\n" if lines else "\n"
