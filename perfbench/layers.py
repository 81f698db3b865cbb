"""Which public methods of ``src/`` the traced run wraps, and how the
per-layer metrics are computed from the merged spans.

Each layer metric is named ``<layer>.<stat>``.  ``calls``, ``busy_s``
and ``self_s`` come straight from the layer table; the rest are ratios
or counts defined in ``DERIVED`` and ``RUN_EXTRAS``.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, Iterable, Optional, Tuple

from .trace import LayerStats, Tracer


def _rows(args: tuple, result: object) -> float:
    return float(len(args[1]))


def _binding(args: tuple, result: object) -> float:
    report = result[0]
    return 1.0 if report.violated else 0.0


def _distinct_sessions(args: tuple, result: object) -> float:
    return float(len({request.session_id for request in args[1]}))


# (layer, module, class, method, span value)
WRAPPED: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("agents.prepare_states", "repro.agents.sdp", "SDPAgent", "prepare_states", None),
    ("snn.decide_batch", "repro.agents.sdp", "SDPAgent", "decide_batch", _rows),
    ("envs.backtester.run_many", "repro.envs.backtester", "Backtester", "run_many", None),
    ("envs.step", "repro.envs.portfolio", "PortfolioEnv", "step", None),
    ("risk.step", "repro.risk.engine", "RiskEngine", "step", _binding),
    ("execution.execute", "repro.execution.engine", "ExecutionEngine", "execute", None),
    ("envs.sampler.sample", "repro.envs.sampling", "GeometricBatchSampler", "sample", None),
    ("envs.pvm.write", "repro.envs.pvm", "PortfolioVectorMemory", "write", None),
    ("snn.policy_forward_fused", "repro.snn.network", "SharedSDPNetwork", "policy_forward_fused", None),
    ("snn.policy_backward_fused", "repro.snn.network", "SharedSDPNetwork", "policy_backward_fused", None),
    ("autograd.optim.step", "repro.autograd.optim", "Optimizer", "step", None),
    ("agents.trainer.train_step", "repro.agents.trainer", "PolicyTrainer", "train_step", None),
    ("snn.bank.forward", "repro.snn.banked", "SharedSDPBank", "forward", None),
    ("snn.bank.backward", "repro.snn.banked", "SharedSDPBank", "backward", None),
    ("agents.multiseed.train_step", "repro.agents.multiseed", "MultiSeedTrainer", "train_step", None),
    ("serving.store.save_session", "repro.serving.store", "SessionStateStore", "save_session", None),
    ("serving.store.load_session", "repro.serving.store", "SessionStateStore", "load_session", None),
    ("serving.service.export_session", "repro.serving.service", "PortfolioService", "export_session", None),
    ("serving.service.import_session", "repro.serving.service", "PortfolioService", "import_session", None),
    ("serving.service.rebalance_many", "repro.serving.service", "PortfolioService", "rebalance_many", _distinct_sessions),
    ("serving.supervisor.rebalance_many", "repro.serving.supervisor", "ServingSupervisor", "rebalance_many", None),
)

# The benchmark's closed-loop client wraps each HTTP round in this span.
HTTP_ROUND = "serving.http"

# Per-layer metrics a workload reports itself, outside the span table.
RUN_EXTRAS = (
    "serving.supervisor.worker_restarts",
    "agents.trainer.steps_per_s",
    "agents.multiseed.seed_steps_per_s",
    "trace.overhead_share",
)


def install(tracer: Tracer) -> None:
    """Wrap every layer method in ``WRAPPED``."""
    for layer, module, cls, method, value in WRAPPED:
        owner = getattr(importlib.import_module(module), cls)
        tracer.wrap(owner, method, layer, value)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean_value(layer: str) -> Callable[[Dict[str, LayerStats]], float]:
    def compute(table: Dict[str, LayerStats]) -> float:
        stats = table.get(layer, LayerStats())
        return _ratio(stats.value_sum, stats.calls)

    return compute


def _resident_hit_share(table: Dict[str, LayerStats]) -> float:
    # Every session a worker batch touches is either resident or loaded
    # from the store; the span value of the worker's rebalance_many is
    # the number of distinct sessions it served.
    touched = table.get("serving.service.rebalance_many", LayerStats()).value_sum
    loaded = table.get("serving.store.load_session", LayerStats()).calls
    return 1.0 - _ratio(loaded, touched) if touched else 0.0


DERIVED: Dict[str, Callable[[Dict[str, LayerStats]], float]] = {
    "snn.decide_batch.rows_per_call": _mean_value("snn.decide_batch"),
    "risk.step.binding_share": _mean_value("risk.step"),
    "serving.store.resident_hit_share": _resident_hit_share,
}


def per_layer_metrics(
    names: Iterable[str],
    table: Dict[str, LayerStats],
    extras: Dict[str, float],
) -> Dict[str, float]:
    """Every named per-layer metric; a layer that never ran reads 0."""
    out: Dict[str, float] = {}
    for name in names:
        if name in RUN_EXTRAS:
            out[name] = float(extras.get(name, 0.0))
        elif name in DERIVED:
            out[name] = DERIVED[name](table)
        else:
            layer, stat = name.rsplit(".", 1)
            out[name] = float(getattr(table.get(layer, LayerStats()), stat))
    return out
