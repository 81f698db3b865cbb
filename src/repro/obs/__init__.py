"""repro.obs — unified metrics, structured events, and span tracing.

A dependency-free observability layer threaded through every tier of
the repo: trainers emit per-step loss/grad-norm/duration series, the
sweep engine wraps shard execution in spans and persists per-shard
snapshots into the :class:`~repro.experiments.artifacts.ArtifactStore`,
and the serving stack records per-route latency histograms, queue
depth gauges, and shed/degrade/failover counters — all exposed over
``GET /metrics`` (Prometheus text format) and JSONL event logs that
``python -m repro obs summarize`` renders as tables.

Three primitives behind one handle:

* :class:`MetricsRegistry` — counters, gauges, and ring-buffer
  histograms with exact nearest-rank p50/p95/p99 quantiles;
* :class:`EventLog` — leveled, schema-tagged JSONL records with an
  injectable clock;
* :meth:`Obs.span` — nestable, thread-local tracing timers.

The process-global default (:func:`get_obs`) is :data:`NULL_OBS`, a
true null object: with obs disabled every instrumented path pays one
attribute check and stays bit-identical to the unobserved code
(``tests/test_obs.py`` gates this).
"""

from .core import (
    NULL_OBS,
    NullObs,
    Obs,
    Span,
    configure,
    get_obs,
    set_obs,
    use_obs,
)
from .events import LEVELS, EventLog, read_events
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    nearest_rank_quantile,
    render_prometheus,
)
from .summarize import summarize_events, summarize_records

__all__ = [
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "LEVELS",
    "MetricsRegistry",
    "NULL_OBS",
    "NullObs",
    "Obs",
    "Span",
    "configure",
    "get_obs",
    "nearest_rank_quantile",
    "read_events",
    "render_prometheus",
    "set_obs",
    "summarize_events",
    "summarize_records",
    "use_obs",
]
