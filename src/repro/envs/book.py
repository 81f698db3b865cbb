"""The portfolio-book recurrence, one vectorized step over ``(batch, N)`` rows.

A *book* is one portfolio's value, drifted weights and drawdown-guard
state.  Every decision the repository prices steps its book through
:func:`step_book`, the recurrence of Jiang et al. (2017) that the paper
adopts:

1. validate and renormalise the strategy's weights
   (:func:`normalize_actions`);
2. project them onto the risk engine's constraint set, advancing each
   row's drawdown guard (:meth:`~repro.risk.RiskEngine.step_batch`);
3. fill them through the execution engine
   (:meth:`~repro.execution.ExecutionEngine.execute_batch`), or charge
   the exact commission remainder μ when there is none;
4. grow the book by the holding period's price relatives: log-reward,
   value, ideal value (with an engine) and drifted weights.

Three callers run it: :meth:`PortfolioEnv.step
<repro.envs.portfolio.PortfolioEnv.step>` at batch 1,
:meth:`Backtester.run_many <repro.envs.backtester.Backtester.run_many>`
once per period over the live panels, and the serving guardrail's paper
book once per round of sessions.  Rows never mix — every reduction runs
along a row — so a row's result is the same bits at any batch size,
which is what keeps lockstep back-tests, sequential back-tests and
served paper books identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Union

import numpy as np

from .costs import drifted_weights, transaction_remainders_exact

if TYPE_CHECKING:  # execution imports envs.costs; keep the cycle type-only
    from ..execution import ExecutionEngine, FillRound
    from ..risk import LockoutState, RiskEngine, RiskRound


class InvalidAction(ValueError):
    """Strategy weights that are not a legal action."""


def normalize_actions(
    actions: np.ndarray,
    action_dim: int,
    labels: Optional[Sequence[str]] = None,
) -> np.ndarray:
    """Validate a ``(batch, action_dim)`` stack of weight rows and
    return it renormalised.

    The single definition of what a legal action is: each row finite,
    non-negative (within -1e-9) and summing to 1 (within 1e-6); then
    clipped to ``[0, ∞)`` and renormalised.  The first offending row
    raises :class:`InvalidAction`, named by ``labels[row]`` (default
    ``"action"``).
    """
    actions = np.asarray(actions, dtype=np.float64)
    if actions.ndim != 2 or actions.shape[1] != action_dim:
        name = labels[0] if labels else "action"
        raise InvalidAction(
            f"{name} must have shape ({action_dim},), got {actions.shape[1:]}"
        )
    rows = zip(actions.sum(axis=1).tolist(), actions.min(axis=1).tolist())
    for row, (total, low) in enumerate(rows):
        # One reduction covers the finiteness check: any non-finite
        # entry makes the sum non-finite (inf propagates; inf − inf and
        # nan both yield nan), and the sum is needed anyway.
        if not math.isfinite(total):
            problem = "must be finite"
        elif low < -1e-9:
            problem = "weights must be non-negative"
        elif abs(total - 1.0) > 1e-6:
            problem = f"must sum to 1, sums to {total:.8f}"
        else:
            continue
        raise InvalidAction(f"{labels[row] if labels else 'action'} {problem}")
    actions = np.maximum(actions, 0.0)
    return actions / actions.sum(axis=1, keepdims=True)


@dataclass
class BookStep:
    """One step of ``batch`` books; row ``i`` of every array is book ``i``.

    ``weights`` are the executed weights, ``value``/``w_drifted`` the
    books after the holding period.  ``risk`` and ``fill`` carry the
    engines' per-row reports when those engines ran; ``ideal_growth``
    is the factor the commission-only full-fill benchmark compounds by
    (execution engine only).
    """

    weights: np.ndarray
    mu: np.ndarray
    growth: np.ndarray
    reward: np.ndarray
    value: np.ndarray
    w_drifted: np.ndarray
    risk: Optional["RiskRound"] = None
    fill: Optional["FillRound"] = None
    ideal_growth: Optional[np.ndarray] = None


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # A stacked (B,1,N) @ (B,N,1) matmul is one dot per row — the same
    # bits as the 1-D ``a @ b``, which an elementwise product summed
    # along the row is not once N reaches numpy's pairwise block.
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def step_book(
    w_drifted: np.ndarray,
    actions: np.ndarray,
    y: np.ndarray,
    value: np.ndarray,
    commission: float,
    labels: Optional[Sequence[str]] = None,
    risk: Optional["RiskEngine"] = None,
    t: Union[int, np.ndarray] = 0,
    lockout: Optional[List[Optional["LockoutState"]]] = None,
    execution: Optional["ExecutionEngine"] = None,
    volume: Optional[np.ndarray] = None,
) -> BookStep:
    """Rebalance ``batch`` books to ``actions`` and grow them one period.

    ``w_drifted`` are the books' pre-trade weights and ``value`` their
    values; ``actions`` the raw strategy weights (validated here, rows
    named by ``labels`` in errors); ``y`` the holding period's price
    relatives (cash first).  ``risk`` projects each row at decision
    offset ``t`` against guard states ``lockout``; ``execution`` fills
    each row against ``volume`` (per-asset tradable volume) — without
    it, μ is the commission-only fixed point at rate ``commission``.
    """
    target = normalize_actions(actions, w_drifted.shape[1], labels)
    report = None
    if risk is not None:
        # Risk limits bound what the book *asks for*, before any
        # execution pricing.  A null engine passes the array through.
        report = risk.step_batch(w_drifted, target, t, values=value, states=lockout)
        target = report.weights
    fill = None
    if execution is None:
        executed = target
        mu = transaction_remainders_exact(w_drifted, target, commission, commission)
    else:
        fill = execution.execute_batch(w_drifted, target, value, volume)
        executed = fill.weights
        mu = fill.mu
    growth = _dot_rows(y, executed)
    factor = mu * growth
    ideal_growth = None
    if fill is not None:
        # The commission-only benchmark compounds the *requested* trade
        # frictionlessly beyond commission — Perold's paper portfolio.
        ideal_growth = fill.ideal_mu * (
            growth if executed is target else _dot_rows(y, target)
        )
    return BookStep(
        weights=executed,
        mu=mu,
        growth=growth,
        reward=np.log(factor),
        value=value * factor,
        w_drifted=drifted_weights(executed, y),
        risk=report,
        fill=fill,
        ideal_growth=ideal_growth,
    )
