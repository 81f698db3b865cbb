"""The risk engine: target weights → constrained weights.

:class:`RiskEngine` composes a set of :mod:`~repro.risk.limits` into
one deterministic weight-projection step applied between a strategy's
``decide_batch`` and execution — the same projection in back-test,
walk-forward, and serving, so constrained trajectories stay
bit-comparable across all three.

Projection semantics (single closed-form pass, in order):

1. **Lockout** — a locked portfolio is flattened to cash outright; no
   other constraint is consulted.
2. **Per-asset caps** — asset weights clip to the elementwise minimum
   of every :class:`~repro.risk.limits.PositionCap`.
3. **Gross exposure** — the asset sum is scaled down (greedy
   renormalize; scaling preserves the caps) onto the tightest of the
   :class:`~repro.risk.limits.LeverageSchedule` gross in force at ``t``
   and ``1 − cash floor``; cash absorbs the residual, keeping the
   vector on the simplex.
4. **Turnover budget** — if the capped trade still exceeds the L1
   budget against the drifted weights ``w'``, the whole vector moves to
   ``w' + θ·(w − w')`` with ``θ = budget / ‖w − w'‖₁``, which realizes
   the budget *exactly* (L1 distance is homogeneous along the segment)
   and stays on the simplex (convex combination).

The projection is idempotent whenever the drifted weights themselves
satisfy the caps: a projected vector clips to itself, its gross is
within bounds, and its turnover is within budget.  (When drift has
pushed a holding above its cap *and* the budget rations the sell-down,
the residual breach is corrected over subsequent decisions — exactly
the behaviour a real desk's limits have.)

An engine with no limits is *null*: :meth:`RiskEngine.step` returns the
target untouched (the identical array, so the no-engine path stays
bit-identical — the invariant ``tests/test_risk.py`` gates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .limits import (
    CashFloor,
    DrawdownLockout,
    LeverageSchedule,
    LockoutState,
    PositionCap,
    RiskLimit,
    TurnoverBudget,
)

__all__ = ["CONSTRAINT_NAMES", "RiskEngine", "RiskReport", "RiskRound"]

#: Binding-mask order, everywhere a mask or report names constraints.
CONSTRAINT_NAMES: Tuple[str, ...] = (
    "position_cap",
    "cash_floor",
    "leverage",
    "turnover",
    "lockout",
)

# Caps are "respected" up to float epsilon; the binding mask uses the
# same tolerance so a bit-exact re-projection never reads as a breach.
_EPS = 1e-12


@dataclass
class RiskReport:
    """Outcome of projecting one decision.

    ``weights`` is the constrained target actually forwarded to
    execution; ``binding`` maps each constraint name to whether it bound
    (changed the weights) this decision; ``pre_turnover`` is the L1
    trade the strategy asked for, ``post_turnover`` the trade after
    projection; ``locked`` mirrors ``binding["lockout"]``.
    """

    weights: np.ndarray
    binding: Dict[str, bool]
    pre_turnover: float
    post_turnover: float
    locked: bool

    @property
    def violated(self) -> bool:
        """True when any constraint bound this decision."""
        return any(self.binding.values())

    def binding_names(self) -> List[str]:
        return [name for name in CONSTRAINT_NAMES if self.binding.get(name)]


@dataclass
class RiskRound:
    """Outcome of projecting a ``(batch, N)`` round of decisions.

    Row ``i`` of every array is what :class:`RiskReport` says about
    decision ``i``; ``states[i]`` is that portfolio's new guard state.
    """

    weights: np.ndarray
    binding: Dict[str, np.ndarray]
    pre_turnover: np.ndarray
    post_turnover: np.ndarray
    locked: np.ndarray
    states: List[Optional[LockoutState]]

    def binding_row(self, row: int) -> Dict[str, bool]:
        return {name: bool(mask[row]) for name, mask in self.binding.items()}


class RiskEngine:
    """Composes risk limits into one deterministic projection step.

    Parameters
    ----------
    limits:
        Any mix of :class:`PositionCap`, :class:`CashFloor`,
        :class:`TurnoverBudget`, :class:`LeverageSchedule`, and at most
        one :class:`DrawdownLockout`.  The constructor folds the zoo
        into scalars/arrays once, so the per-decision projection is a
        handful of vectorized ops — cheap enough for the serving hot
        path.

    The engine itself is stateless: the lockout guard's
    :class:`~repro.risk.limits.LockoutState` is created by
    :meth:`initial_state` and threaded through :meth:`step` by the
    caller (the environment per episode, the serving layer per
    session), so one engine instance can guard any number of portfolios
    concurrently.
    """

    def __init__(self, limits: Sequence[RiskLimit] = ()):
        self.limits: Tuple[RiskLimit, ...] = tuple(limits)
        caps: List[PositionCap] = []
        cash_floor = 0.0
        turnover: Optional[float] = None
        schedules: List[LeverageSchedule] = []
        lockout: Optional[DrawdownLockout] = None
        for limit in self.limits:
            if isinstance(limit, PositionCap):
                caps.append(limit)
            elif isinstance(limit, CashFloor):
                cash_floor = max(cash_floor, limit.min_cash)
            elif isinstance(limit, TurnoverBudget):
                turnover = (
                    limit.max_turnover
                    if turnover is None
                    else min(turnover, limit.max_turnover)
                )
            elif isinstance(limit, LeverageSchedule):
                schedules.append(limit)
            elif isinstance(limit, DrawdownLockout):
                if lockout is not None:
                    raise ValueError("at most one DrawdownLockout per engine")
                lockout = limit
            else:
                raise TypeError(
                    f"unknown risk limit {type(limit).__name__}; expected one "
                    "of PositionCap, CashFloor, TurnoverBudget, "
                    "LeverageSchedule, DrawdownLockout"
                )
        self._caps = caps
        self._cash_floor = cash_floor
        self._turnover = turnover
        self._schedules = schedules
        self._lockout = lockout

    # ------------------------------------------------------------------
    @property
    def is_null(self) -> bool:
        """True when this engine provably never alters a decision —
        the hook the fast paths (serving, sweep ``none`` regime) key on."""
        return (
            not self._caps
            and self._cash_floor == 0.0
            and self._turnover is None
            and not self._schedules
            and self._lockout is None
        )

    @property
    def has_lockout(self) -> bool:
        return self._lockout is not None

    @property
    def lockout(self) -> Optional[DrawdownLockout]:
        return self._lockout

    def initial_state(self, value: float = 1.0) -> Optional[LockoutState]:
        """Fresh guard state for a portfolio starting at ``value``
        (``None`` when the engine carries no drawdown lockout)."""
        if self._lockout is None:
            return None
        return self._lockout.initial_state(value)

    # ------------------------------------------------------------------
    def asset_caps(self, n_assets: int) -> Optional[np.ndarray]:
        """Elementwise-min per-asset cap vector, or ``None`` if uncapped."""
        if not self._caps:
            return None
        cap = self._caps[0].caps(n_assets)
        for limit in self._caps[1:]:
            cap = np.minimum(cap, limit.caps(n_assets))
        return cap

    def gross_cap(self, t: Union[int, np.ndarray]) -> np.ndarray:
        """Tightest gross-exposure bound in force at ``t`` (cash floor
        folded in), broadcast over ``t``."""
        t = np.asarray(t, dtype=np.int64)
        gross = np.full(t.shape, 1.0 - self._cash_floor)
        for schedule in self._schedules:
            gross = np.minimum(gross, schedule.gross_at(t))
        return gross

    # ------------------------------------------------------------------
    def project_batch(
        self,
        w_drifted: np.ndarray,
        w_target: np.ndarray,
        t: Union[int, np.ndarray] = 0,
        locked: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, Dict[str, np.ndarray], np.ndarray, np.ndarray]:
        """Vectorized projection of a ``(batch, N)`` decision round.

        ``w_drifted``/``w_target`` are simplex weight matrices (cash
        first); ``t`` the per-row decision indices (or one shared
        index); ``locked`` an optional per-row bool mask of portfolios
        in drawdown lockout (those rows flatten to cash).  Returns
        ``(weights, binding, pre_turnover, post_turnover)`` where
        ``binding`` maps each of :data:`CONSTRAINT_NAMES` to a per-row
        bool array.
        """
        w_prime = np.atleast_2d(np.asarray(w_drifted, dtype=np.float64))
        target = np.atleast_2d(np.asarray(w_target, dtype=np.float64))
        if w_prime.shape != target.shape:
            raise ValueError(
                f"w_drifted {w_prime.shape} and w_target {target.shape} must align"
            )
        batch, n = target.shape
        pre_turnover = np.abs(target - w_prime).sum(axis=1)

        assets = target[:, 1:]
        cap = self.asset_caps(n - 1)
        if cap is not None:
            clipped = np.minimum(assets, cap)
            cap_binding = (assets - clipped).sum(axis=1) > _EPS
            assets = clipped
        else:
            cap_binding = np.zeros(batch, dtype=bool)

        gross = np.broadcast_to(self.gross_cap(t), (batch,))
        asset_sum = assets.sum(axis=1)
        over = asset_sum > gross + _EPS
        scale = np.where(over, gross / np.maximum(asset_sum, _EPS), 1.0)
        assets = assets * scale[:, None]
        floor_binding = over & (asset_sum > 1.0 - self._cash_floor + _EPS) \
            if self._cash_floor > 0.0 else np.zeros(batch, dtype=bool)
        if self._schedules:
            sched = np.full(batch, 1.0)
            for schedule in self._schedules:
                sched = np.minimum(sched, np.broadcast_to(schedule.gross_at(t), (batch,)))
            leverage_binding = over & (asset_sum > sched + _EPS)
        else:
            leverage_binding = np.zeros(batch, dtype=bool)

        weights = np.empty_like(target)
        weights[:, 1:] = assets
        weights[:, 0] = 1.0 - assets.sum(axis=1)

        if self._turnover is not None:
            trade = np.abs(weights - w_prime).sum(axis=1)
            turnover_binding = trade > self._turnover + _EPS
            theta = np.where(
                turnover_binding, self._turnover / np.maximum(trade, _EPS), 1.0
            )
            weights = w_prime + theta[:, None] * (weights - w_prime)
        else:
            turnover_binding = np.zeros(batch, dtype=bool)

        if locked is None:
            locked = np.zeros(batch, dtype=bool)
        else:
            locked = np.asarray(locked, dtype=bool)
            if np.any(locked):
                weights = weights.copy() if weights is target else weights
                weights[locked] = 0.0
                weights[locked, 0] = 1.0
        binding = {
            "position_cap": cap_binding & ~locked,
            "cash_floor": floor_binding & ~locked,
            "leverage": leverage_binding & ~locked,
            "turnover": turnover_binding & ~locked,
            "lockout": locked,
        }
        post_turnover = np.abs(weights - w_prime).sum(axis=1)
        return weights, binding, pre_turnover, post_turnover

    # ------------------------------------------------------------------
    def step(
        self,
        w_drifted: np.ndarray,
        w_target: np.ndarray,
        t: int = 0,
        value: Optional[float] = None,
        state: Optional[LockoutState] = None,
    ) -> Tuple[RiskReport, Optional[LockoutState]]:
        """Project one decision, advancing the lockout guard.

        ``value`` is the current portfolio value (required when the
        engine carries a drawdown lockout); ``state`` the portfolio's
        guard state from the previous decision (``None`` starts fresh).
        Returns the :class:`RiskReport` and the new guard state to
        carry forward — the input state is never mutated, so staged
        (transactional) callers can discard the result on abort.

        The batch-1 front of :meth:`step_batch`.  A null engine returns
        the target array *itself* (no copy, no arithmetic): the ``none``
        path is bit-identical to not having an engine at all.
        """
        target = np.asarray(w_target, dtype=np.float64)
        out = self.step_batch(
            np.asarray(w_drifted, dtype=np.float64)[None, :],
            target[None, :],
            t,
            values=None if value is None else np.array([float(value)]),
            states=[state],
        )
        report = RiskReport(
            weights=target if self.is_null else out.weights[0],
            binding=out.binding_row(0),
            pre_turnover=float(out.pre_turnover[0]),
            post_turnover=float(out.post_turnover[0]),
            locked=bool(out.locked[0]),
        )
        return report, out.states[0]

    def step_batch(
        self,
        w_drifted: np.ndarray,
        w_target: np.ndarray,
        t: Union[int, np.ndarray] = 0,
        values: Optional[np.ndarray] = None,
        states: Optional[Sequence[Optional[LockoutState]]] = None,
    ) -> RiskRound:
        """Project a ``(batch, N)`` round, advancing each row's guard.

        ``values`` are the rows' current portfolio values (required when
        the engine carries a drawdown lockout) and ``states`` their
        guard states (``None`` entries start fresh).  Input states are
        never mutated.  A null engine returns the target array itself,
        with every mask false and zero turnovers.
        """
        batch = np.shape(w_target)[0]
        states = list(states) if states is not None else [None] * batch
        if self.is_null:
            none = np.zeros(batch, dtype=bool)
            return RiskRound(
                weights=w_target,
                binding={name: none for name in CONSTRAINT_NAMES},
                pre_turnover=np.zeros(batch),
                post_turnover=np.zeros(batch),
                locked=none,
                states=states,
            )
        locked = np.zeros(batch, dtype=bool)
        if self._lockout is not None:
            if values is None:
                raise ValueError("a lockout-carrying engine needs value= per step")
            for row, value in enumerate(np.asarray(values).tolist()):
                state = states[row]
                if state is None:
                    state = self._lockout.initial_state(value)
                states[row] = state = self._lockout.update(state, value)
                locked[row] = state.locked
        weights, binding, pre, post = self.project_batch(
            w_drifted, w_target, t, locked=locked
        )
        return RiskRound(weights, binding, pre, post, locked, states)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        inner = ", ".join(repr(limit) for limit in self.limits)
        return f"RiskEngine([{inner}])"
