"""Deterministic fault injection and fault tolerance.

The robustness substrate under the sweep engine, the serving layer, and
the data plane: :class:`FaultPlan`/:class:`FaultInjector` arm named
seams with *seeded, replayable* faults (chaos tests that cannot flake),
and :class:`RetryPolicy`/:func:`call_with_retry` give every consumer
the same bounded capped-exponential-backoff retry shape with
deterministic jitter.

The contract that keeps the parity crown jewel safe: a ``None`` or
empty plan and all-healthy inputs take exactly the unhardened code
paths — bit-identical results, gated by ``tests/test_resilience.py``.
"""

from .faults import (
    DataFaults,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    ServingFaults,
    SweepFaults,
    corrupt_panel,
    injector_from,
)
from .retry import RetriesExhausted, RetryPolicy, call_with_retry

__all__ = [
    "DataFaults",
    "FaultInjector",
    "FaultPlan",
    "InjectedFault",
    "RetriesExhausted",
    "RetryPolicy",
    "ServingFaults",
    "SweepFaults",
    "call_with_retry",
    "corrupt_panel",
    "injector_from",
]
