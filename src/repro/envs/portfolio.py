"""The portfolio-management environment (§II.A of the paper).

``PortfolioEnv`` steps through a :class:`~repro.data.market.MarketData`
panel: at each decision period the agent supplies portfolio weights
``w_t`` (cash first, then the M assets); the environment charges the
transaction remainder factor μ_t for rebalancing away from the drifted
previous weights, applies the next period's price relatives ``y_{t+1}``
and returns the log-return reward ``r_t = ln(μ_t · y_{t+1} · w_t)``
whose average is the objective of eq. (1).

The environment is agnostic to the agent type: the SDP agent, the Jiang
EIIE agent, and every classical baseline are all back-tested through
this same loop.  The step itself is the book recurrence of
:mod:`repro.envs.book`; :func:`step_envs` runs it over several
environments at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from ..data.market import MarketData
from ..metrics.performance import implementation_shortfall
from .book import BookStep, step_book
from .costs import DEFAULT_COMMISSION
from .observations import ObservationConfig

if TYPE_CHECKING:  # execution imports envs.costs; keep the cycle type-only
    from ..execution import ExecutionEngine
    from ..risk import LockoutState, RiskEngine


@dataclass
class StepResult:
    """Outcome of one environment step."""

    reward: float
    portfolio_value: float
    mu: float
    price_relatives: np.ndarray
    done: bool
    info: Dict[str, float] = field(default_factory=dict)


class PortfolioEnv:
    """Sequential portfolio-rebalancing environment.

    Parameters
    ----------
    data:
        OHLCV panel; asset columns are traded, plus an implicit cash
        asset at weight index 0 with constant price.
    observation:
        Window/feature configuration shared with the agents.
    commission:
        Per-side commission rate for the exact μ_t computation.
    initial_value:
        Starting portfolio value p_0.
    execution:
        Optional :class:`~repro.execution.ExecutionEngine` pricing each
        rebalance against market liquidity (impact cost, partial
        fills).  ``None`` (the default) keeps the commission-only path
        untouched; an engine with a zero-cost model is bit-identical to
        it.
    risk:
        Optional :class:`~repro.risk.RiskEngine` projecting each
        decision onto the constraint set *before* execution.  ``None``
        (the default) keeps today's unconstrained path untouched; a
        null engine (no limits) is bit-identical to it.

    Timeline
    --------
    ``reset()`` places the cursor at the first decision index with a
    full observation window.  ``step(w)`` charges costs at the cursor's
    close, applies the cursor→cursor+1 price move, advances the cursor,
    and is ``done`` when no further price relative exists.
    """

    def __init__(
        self,
        data: MarketData,
        observation: Optional[ObservationConfig] = None,
        commission: float = DEFAULT_COMMISSION,
        initial_value: float = 1.0,
        execution: Optional["ExecutionEngine"] = None,
        risk: Optional["RiskEngine"] = None,
    ):
        if initial_value <= 0:
            raise ValueError("initial_value must be positive")
        self.data = data
        self.observation = observation if observation is not None else ObservationConfig()
        self.commission = float(commission)
        self.initial_value = float(initial_value)
        if execution is not None and execution.commission != self.commission:
            # With an engine, μ_t comes from the engine's fixed point —
            # a silently different rate there would desync fAPV from
            # the engine-less run of the same configuration.
            raise ValueError(
                f"execution engine charges commission "
                f"{execution.commission}, environment expects "
                f"{self.commission}; build the engine with the same rate"
            )
        self.execution = execution
        self.risk = risk
        first = self.observation.first_decision_index()
        if first >= data.n_periods - 1:
            raise ValueError(
                f"panel too short: {data.n_periods} periods for window "
                f"{self.observation.window}"
            )
        self._first_decision = first
        # Per-panel tables the book gathers its rows from: y_{t+1}
        # (cash first) and the floored tradable volume.
        self._y = data.price_relatives(include_cash=True)
        self._volume = (
            execution.tradable_volume(data, np.arange(data.n_periods))
            if execution is not None
            else None
        )
        self.reset()

    # ------------------------------------------------------------------
    @property
    def n_assets(self) -> int:
        return self.data.n_assets

    @property
    def action_dim(self) -> int:
        """N = M + 1: cash plus assets."""
        return self.data.n_assets + 1

    @property
    def t(self) -> int:
        """Current decision index into the panel."""
        return self._t

    @property
    def done(self) -> bool:
        """True once no further price relative exists."""
        return self._t + 1 >= self.data.n_periods

    @property
    def num_decisions(self) -> int:
        """Total decision steps in one episode over this panel."""
        return (self.data.n_periods - 1) - self._first_decision

    def uniform_weights(self) -> np.ndarray:
        return np.full(self.action_dim, 1.0 / self.action_dim)

    def cash_weights(self) -> np.ndarray:
        w = np.zeros(self.action_dim)
        w[0] = 1.0
        return w

    # ------------------------------------------------------------------
    def reset(self) -> int:
        """Start a new episode; returns the first decision index."""
        self._t = self._first_decision
        self._value = self.initial_value
        self._ideal_value = self.initial_value
        self._w_drifted = self.cash_weights()  # start fully in cash
        self._w_prev_target = self.cash_weights()
        self.value_history: List[float] = [self._value]
        self.reward_history: List[float] = []
        self.weight_history: List[np.ndarray] = []
        self.mu_history: List[float] = []
        # Execution-layer trajectories; stay empty without an engine.
        self.ideal_value_history: List[float] = [self._ideal_value]
        self.fill_ratio_history: List[float] = []
        self.slippage_history: List[float] = []
        # Risk-layer trajectories; stay empty without an engine.
        self.risk_binding_history: List[Dict[str, bool]] = []
        self.lockout_history: List[bool] = []
        self.pre_turnover_history: List[float] = []
        self.post_turnover_history: List[float] = []
        self._risk_state: Optional["LockoutState"] = (
            self.risk.initial_state(self._value) if self.risk is not None else None
        )
        return self._t

    # ------------------------------------------------------------------
    def price_relative(self, t: int) -> np.ndarray:
        """y_{t+1} including the cash component (index 0, always 1)."""
        if t + 1 >= self.data.n_periods:
            raise IndexError(f"no price relative beyond period {t}")
        return self._y[t].copy()

    @property
    def previous_weights(self) -> np.ndarray:
        """w_{t−1}: the target weights chosen at the previous decision."""
        return self._w_prev_target.copy()

    @property
    def drifted_weights(self) -> np.ndarray:
        """w'_t: previous target drifted by realised price moves."""
        return self._w_drifted.copy()

    @property
    def portfolio_value(self) -> float:
        return self._value

    # ------------------------------------------------------------------
    def step(self, action: np.ndarray) -> StepResult:
        """Rebalance to ``action`` and advance one period.

        ``action`` must be a length-``action_dim`` vector on the
        probability simplex (cash first).
        """
        t = self._t
        pre_trade = self._w_drifted
        book = step_envs([self], np.asarray(action, dtype=np.float64)[None, :])
        executed = book.weights[0]
        # The executed trade: distance from the pre-trade drifted
        # weights (the same w'_t that mu was charged on).
        info = {
            "growth": float(book.growth[0]),
            "turnover": float(np.abs(executed - pre_trade).sum()),
        }
        if book.risk is not None:
            info["risk_violated"] = float(any(self.risk_binding_history[-1].values()))
            info["risk_locked"] = float(self.lockout_history[-1])
        if book.fill is not None:
            info["fill_ratio"] = self.fill_ratio_history[-1]
            info["slippage_cost"] = self.slippage_history[-1]
            info["commission_mu"] = float(book.fill.commission_mu[0])
        return StepResult(
            reward=self.reward_history[-1],
            portfolio_value=self._value,
            mu=self.mu_history[-1],
            price_relatives=self._y[t].copy(),
            done=self.done,
            info=info,
        )

    def _record(self, book: BookStep, row: int) -> None:
        """Advance this environment by row ``row`` of a book step."""
        if book.risk is not None:
            self._risk_state = book.risk.states[row]
            self.risk_binding_history.append(book.risk.binding_row(row))
            self.lockout_history.append(bool(book.risk.locked[row]))
            self.pre_turnover_history.append(float(book.risk.pre_turnover[row]))
            self.post_turnover_history.append(float(book.risk.post_turnover[row]))
        if book.fill is not None:
            self._ideal_value *= float(book.ideal_growth[row])
            self.fill_ratio_history.append(float(book.fill.fill_ratio[row]))
            self.slippage_history.append(float(book.fill.slippage_cost[row]))
            self.ideal_value_history.append(self._ideal_value)
        executed = book.weights[row].copy()
        self._value = float(book.value[row])
        self._w_drifted = book.w_drifted[row]
        self._w_prev_target = executed
        self._t += 1
        self.value_history.append(self._value)
        self.reward_history.append(float(book.reward[row]))
        self.weight_history.append(executed)
        self.mu_history.append(float(book.mu[row]))

    # ------------------------------------------------------------------
    def execution_summary(self) -> Dict[str, float]:
        """Implementation-shortfall report of the episode so far.

        Empty without an execution engine (the commission-only path has
        nothing to report).  ``implementation_shortfall`` is the
        fraction of terminal wealth lost versus the commission-only
        full-fill benchmark of the same decision stream.
        """
        if self.execution is None or not self.slippage_history:
            return {}
        return {
            "implementation_shortfall": implementation_shortfall(
                self.value_history, self.ideal_value_history
            ),
            "mean_fill_ratio": float(np.mean(self.fill_ratio_history)),
            "mean_slippage_cost": float(np.mean(self.slippage_history)),
        }

    # ------------------------------------------------------------------
    def risk_summary(self) -> Dict[str, object]:
        """Constraint-enforcement report of the episode so far.

        Empty without a risk engine (the unconstrained path has nothing
        to report).  ``violation_rate`` is the fraction of decisions on
        which at least one constraint bound; ``binding_counts`` the
        per-constraint attribution of those decisions.
        """
        if self.risk is None or not self.risk_binding_history:
            return {}
        n = len(self.risk_binding_history)
        counts: Dict[str, int] = {}
        violated = 0
        for binding in self.risk_binding_history:
            hit = False
            for name, bound in binding.items():
                if bound:
                    counts[name] = counts.get(name, 0) + 1
                    hit = True
            violated += int(hit)
        summary: Dict[str, object] = {
            "violation_rate": violated / n,
            "lockout_rate": sum(self.lockout_history) / n,
            "mean_pre_turnover": float(np.mean(self.pre_turnover_history)),
            "mean_post_turnover": float(np.mean(self.post_turnover_history)),
            "binding_counts": counts,
            "n_decisions": n,
        }
        if self.risk.has_lockout and self._risk_state is not None:
            summary["lockout_triggers"] = int(self._risk_state.triggers)
        return summary

    # ------------------------------------------------------------------
    def average_log_return(self) -> float:
        """The objective of eq. (1): R = (1/t_f) Σ r_t."""
        if not self.reward_history:
            return 0.0
        return float(np.mean(self.reward_history))

    def periodic_returns(self) -> np.ndarray:
        """Simple per-period portfolio returns (for Sharpe, eq. (16))."""
        values = np.asarray(self.value_history)
        return values[1:] / values[:-1] - 1.0


def _rows(rows: List[np.ndarray]) -> np.ndarray:
    # np.stack's generality costs more than the whole gather at batch 1.
    return rows[0][None, :] if len(rows) == 1 else np.stack(rows)


def step_envs(
    envs: Sequence[PortfolioEnv],
    actions: np.ndarray,
    labels: Optional[Sequence[str]] = None,
) -> BookStep:
    """Step several environments through one vectorized book pass.

    Row ``i`` of ``actions`` is ``envs[i]``'s action, named by
    ``labels[i]`` in validation errors.  The environments must share
    their commission, risk and execution engines (every environment one
    :class:`~repro.envs.backtester.Backtester` makes does).  Each one
    advances and records exactly what its own :meth:`PortfolioEnv.step`
    would.
    """
    first = envs[0]
    for env in envs:
        if env.done:
            raise RuntimeError("episode finished; call reset()")
    book = step_book(
        _rows([env._w_drifted for env in envs]),
        actions,
        _rows([env._y[env._t] for env in envs]),
        np.array([env._value for env in envs]),
        first.commission,
        labels=labels,
        risk=first.risk,
        t=np.array([env._t - env._first_decision for env in envs]),
        lockout=[env._risk_state for env in envs],
        execution=first.execution,
        volume=(
            None
            if first.execution is None
            else _rows([env._volume[env._t] for env in envs])
        ),
    )
    for row, env in enumerate(envs):
        env._record(book, row)
    return book
