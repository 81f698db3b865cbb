"""Inference-service layer: serve rebalance decisions from any
registry-constructed strategy.

:class:`PortfolioService` keeps per-session state (strategy, market
panel, previous weights, decision cursor), shares one instance of each
stateless strategy across sessions, and micro-batches concurrent
rebalance requests into single ``decide_batch`` forward passes.
:class:`MicroBatcher` adds the cross-thread request coalescing, and
:mod:`repro.serving.http` exposes the whole thing as a stdlib JSON
HTTP endpoint (see ``examples/serving_demo.py``).

Resilience: :class:`ServingResilience` arms a per-session circuit
breaker (degraded hold-previous-weights responses instead of repeated
failures), the micro-batcher takes admission/queue-deadline bounds
(:class:`QueueFull` → HTTP 429, :class:`DeadlineExceeded` → HTTP 504),
and corrupt checkpoints load as :class:`CheckpointCorrupt` naming the
damaged file.  All off by default — the unhardened paths are
bit-identical.

Scale: :class:`ServingSupervisor` runs N worker processes (one
:class:`PortfolioService` shard each, sessions routed by market panel)
over a journaled :class:`SessionStateStore` — crash failover with
at-most-one-round replay, lazy session rehydration with LRU residency,
heartbeat health checks, graceful drain (:class:`Draining` → HTTP 503),
and priority load shedding (:class:`LoadShed` → HTTP 429).  With one
worker and no fault plan it is bit-identical to the in-process service.
"""

from .service import (
    BatcherStats,
    DeadlineExceeded,
    Draining,
    InvalidStrategyOutput,
    MicroBatcher,
    PortfolioService,
    QueueFull,
    RebalanceRequest,
    RebalanceResponse,
    ServiceStats,
    ServingResilience,
    SessionInfo,
)
from .store import CheckpointCorrupt, SessionStateStore
from .supervisor import (
    LoadShed,
    ServingSupervisor,
    SupervisorStats,
    WorkerHealth,
)

__all__ = [
    "BatcherStats",
    "CheckpointCorrupt",
    "DeadlineExceeded",
    "Draining",
    "InvalidStrategyOutput",
    "LoadShed",
    "MicroBatcher",
    "PortfolioService",
    "QueueFull",
    "RebalanceRequest",
    "RebalanceResponse",
    "ServiceStats",
    "ServingResilience",
    "SessionInfo",
    "SessionStateStore",
    "ServingSupervisor",
    "SupervisorStats",
    "WorkerHealth",
]
