"""The Strategy protocol shared by every policy in the repo.

Every policy — spiking, deep, or classical — implements :class:`Agent`:
single-step :meth:`~Agent.act` for sequential loops, plus the public
batched-inference methods :meth:`~Agent.prepare_states` (one panel),
:meth:`~Agent.prepare_rows` (rows drawn from several panels) and
:meth:`~Agent.decide_batch` that vectorised engines
(:class:`~repro.envs.backtester.Backtester`,
:class:`~repro.serving.PortfolioService`) use to evaluate many decision
points in one forward pass.  :func:`run_backtest` is the
backward-compatible entry point; the engine itself lives in
:mod:`repro.envs.backtester`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..data.market import MarketData
from ..envs.backtester import Backtester, BacktestResult, concat_states, take_states
from ..envs.costs import DEFAULT_COMMISSION
from ..envs.observations import ObservationConfig

__all__ = [
    "Agent",
    "BacktestResult",
    "concat_states",
    "run_backtest",
]


class Agent(ABC):
    """A policy mapping market history to portfolio weights.

    Subclasses must implement :meth:`act`; vectorised policies should
    additionally override :meth:`prepare_states` / :meth:`decide_batch`
    (the defaults fall back to looping :meth:`act`), may override
    :meth:`prepare_rows` (the default calls :meth:`prepare_states` once
    per distinct panel), and declare
    ``stateless = True`` when inference is a pure function of its
    inputs, which lets engines share one instance across concurrent
    sessions and micro-batch their decisions.
    """

    #: Human-readable name used in result tables.
    name: str = "agent"

    #: True when ``act``/``decide_batch`` keep no per-run mutable state,
    #: so one instance can serve many concurrent back-tests/sessions and
    #: batched inference across them is sound.
    stateless: bool = False

    @abstractmethod
    def act(self, data: MarketData, t: int, w_prev: np.ndarray) -> np.ndarray:
        """Portfolio weights (cash first) for decision index ``t``.

        Implementations may look at panel data up to and including
        period ``t`` only; ``w_prev`` is the previously chosen target
        weight vector.
        """

    def begin_backtest(self, data: MarketData) -> None:
        """Hook called once before a back-test starts (stateful agents)."""

    # -- batched inference (the serving/profiling fast path) -----------
    def prepare_states(
        self, data: MarketData, indices: np.ndarray, w_prev: np.ndarray
    ) -> object:
        """Inference states for a batch of decision points.

        ``indices`` has shape ``(batch,)`` and ``w_prev`` shape
        ``(batch, N)``.  The return value is an opaque batch consumed by
        :meth:`decide_batch`; allowed containers are a batch-first numpy
        array, a dict of such containers, or a plain list of per-row
        items (so :func:`concat_states` can merge batches from
        different panels).  The default keeps per-row tuples and gets no
        speed-up; vectorised agents return array batches.
        """
        indices = np.asarray(indices, dtype=np.int64)
        w_prev = np.asarray(w_prev, dtype=np.float64)
        if w_prev.ndim != 2 or w_prev.shape[0] != indices.shape[0]:
            raise ValueError(
                f"w_prev must have shape (batch, N) matching {indices.shape[0]} "
                f"indices, got {w_prev.shape}"
            )
        return [(data, int(t), w_prev[i]) for i, t in enumerate(indices)]

    def prepare_rows(
        self,
        panels: Sequence[MarketData],
        which: np.ndarray,
        indices: np.ndarray,
        w_prev: np.ndarray,
    ) -> object:
        """Inference states for ``(panel, t, w_prev)`` rows drawn from
        several panels: row ``k`` is ``panels[which[k]]`` at decision
        index ``indices[k]`` with previous weights ``w_prev[k]``.

        Rows come back in the caller's order, in the container
        :meth:`prepare_states` returns.  The default calls
        :meth:`prepare_states` once per distinct panel and puts the rows
        back in order; the built-in agents gather every row's features
        in one vectorised pass.
        """
        which = np.asarray(which, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        w_prev = np.asarray(w_prev, dtype=np.float64)
        if which.shape != indices.shape or w_prev.shape[:1] != indices.shape:
            raise ValueError(
                f"which, indices and w_prev must agree on the batch, got "
                f"shapes {which.shape}, {indices.shape} and {w_prev.shape}"
            )
        distinct = np.unique(which)
        if len(distinct) == 1:
            return self.prepare_states(panels[distinct[0]], indices, w_prev)
        rows = [np.flatnonzero(which == p) for p in distinct]
        parts = [
            self.prepare_states(panels[p], indices[r], w_prev[r])
            for p, r in zip(distinct, rows)
        ]
        return take_states(concat_states(parts), np.argsort(np.concatenate(rows)))

    def decide_batch(self, states: object) -> np.ndarray:
        """Portfolio weights ``(batch, N)`` for a prepared state batch.

        The default loops :meth:`act` row by row; vectorised agents
        override it with one batched network forward.
        """
        return np.stack([self.act(data, t, w) for data, t, w in states])

    @property
    def action_noise(self) -> float:
        """Optional exploration noise level (0 for deterministic)."""
        return 0.0


def run_backtest(
    agent: Agent,
    data: MarketData,
    observation: Optional[ObservationConfig] = None,
    commission: float = DEFAULT_COMMISSION,
    initial_value: float = 1.0,
    execution=None,
    risk=None,
) -> BacktestResult:
    """Back-test ``agent`` over ``data`` and compute Table 3 metrics.

    Thin wrapper over :class:`~repro.envs.backtester.Backtester` kept
    for backward compatibility (and convenience).  ``execution`` is an
    optional :class:`~repro.execution.ExecutionEngine`; when set the
    result's ``extra`` carries implementation-shortfall metrics.
    ``risk`` is an optional :class:`~repro.risk.RiskEngine`; when set
    every decision is projected onto its constraint set before
    execution and ``extra["risk"]`` carries the enforcement report.
    """
    engine = Backtester(
        observation=observation,
        commission=commission,
        initial_value=initial_value,
        execution=execution,
        risk=risk,
    )
    return engine.run(agent, data)
