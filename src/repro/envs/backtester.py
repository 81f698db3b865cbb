"""The back-testing engine behind :func:`repro.agents.run_backtest`.

``Backtester`` holds the evaluation configuration (observation window,
commission, initial value) once and drives any object implementing the
:class:`~repro.agents.base.Agent` protocol through
:class:`~repro.envs.portfolio.PortfolioEnv`.  Two execution modes:

* :meth:`Backtester.run` — the classical sequential loop: one ``act``
  per decision period.  Every agent supports it.
* :meth:`Backtester.run_many` — back-test one *stateless* agent over
  several panels in lockstep.  At each step every live panel's decision
  row is built by one ``prepare_rows`` call and decided by one
  ``decide_batch`` call, so feature gathering and the policy network
  each run once per period instead of once per panel, and every live
  panel's book steps in one vectorized pass
  (:func:`~repro.envs.portfolio.step_envs`).  Stateful agents
  transparently fall back to sequential per-panel runs.

The lockstep mode is the same mechanism :class:`repro.serving`
uses to micro-batch concurrent rebalance requests across sessions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..autograd import no_grad
from ..data.market import MarketData
from ..data.splits import ExperimentWindow
from ..metrics import BacktestMetrics, evaluate_backtest
from .costs import DEFAULT_COMMISSION
from .observations import ObservationConfig
from .portfolio import PortfolioEnv, step_envs

if TYPE_CHECKING:  # avoid a circular import; agents.base imports this module
    from ..agents.base import Agent


@dataclass
class BacktestResult:
    """Trajectory and metrics of one back-test run."""

    agent_name: str
    values: np.ndarray
    weights: np.ndarray
    rewards: np.ndarray
    mus: np.ndarray
    metrics: BacktestMetrics
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def fapv(self) -> float:
        return self.metrics.fapv

    @property
    def sharpe(self) -> float:
        return self.metrics.sharpe

    @property
    def mdd(self) -> float:
        return self.metrics.mdd


def concat_states(parts: Sequence) -> object:
    """Concatenate prepared state batches along the batch axis.

    Understands the three state containers the agent protocol allows:
    numpy arrays (batch-first), dicts of containers (keys must agree),
    and plain lists (the default per-row representation).
    """
    if not parts:
        raise ValueError("concat_states needs at least one state batch")
    first = parts[0]
    if len(parts) == 1:
        return first
    if isinstance(first, np.ndarray):
        return np.concatenate(parts, axis=0)
    if isinstance(first, dict):
        keys = set(first)
        for p in parts[1:]:
            if set(p) != keys:
                raise ValueError(
                    f"state batches disagree on dict keys: {sorted(keys)} "
                    f"vs {sorted(p)}"
                )
        return {key: concat_states([p[key] for p in parts]) for key in first}
    if isinstance(first, list):
        merged: List = []
        for p in parts:
            merged.extend(p)
        return merged
    raise TypeError(
        f"cannot concatenate state batches of type {type(first).__name__}; "
        "prepare_states must return an ndarray, dict, or list"
    )


def take_states(states: object, order: np.ndarray) -> object:
    """Rows ``order`` of a prepared state batch, in any container
    :func:`concat_states` understands."""
    if isinstance(states, np.ndarray):
        return states[order]
    if isinstance(states, dict):
        return {key: take_states(value, order) for key, value in states.items()}
    if isinstance(states, list):
        return [states[i] for i in order]
    raise TypeError(
        f"cannot take rows of a state batch of type {type(states).__name__}; "
        "prepare_states must return an ndarray, dict, or list"
    )


class Backtester:
    """Reusable back-test engine over :class:`PortfolioEnv`.

    Parameters
    ----------
    observation:
        Window/feature configuration shared with the agents.
    commission:
        Per-side commission rate for the exact μ_t computation.
    initial_value:
        Starting portfolio value p_0.
    execution:
        Optional :class:`~repro.execution.ExecutionEngine`; when set,
        every environment this engine builds prices rebalances against
        market liquidity and results carry implementation-shortfall
        metrics in :attr:`BacktestResult.extra`.
    risk:
        Optional :class:`~repro.risk.RiskEngine`; when set, every
        decision is projected onto the constraint set before execution
        and results carry a constraint-enforcement report under
        ``extra["risk"]``.
    """

    def __init__(
        self,
        observation: Optional[ObservationConfig] = None,
        commission: float = DEFAULT_COMMISSION,
        initial_value: float = 1.0,
        execution=None,
        risk=None,
    ):
        self.observation = observation if observation is not None else ObservationConfig()
        self.commission = float(commission)
        self.initial_value = float(initial_value)
        self.execution = execution
        self.risk = risk

    # ------------------------------------------------------------------
    def make_env(self, data: MarketData) -> PortfolioEnv:
        """A fresh environment over ``data`` with this engine's settings."""
        return PortfolioEnv(
            data,
            observation=self.observation,
            commission=self.commission,
            initial_value=self.initial_value,
            execution=self.execution,
            risk=self.risk,
        )

    def _result(self, agent_name: str, env: PortfolioEnv, data: MarketData) -> BacktestResult:
        metrics = evaluate_backtest(env.value_history, data.period_seconds)
        # Execution keys stay flat (historical shape callers key on);
        # the risk report nests under its own key so the two layers
        # can never collide.
        extra: Dict[str, float] = env.execution_summary()
        risk_summary = env.risk_summary()
        if risk_summary:
            extra["risk"] = risk_summary
        return BacktestResult(
            agent_name=agent_name,
            values=np.asarray(env.value_history),
            weights=np.asarray(env.weight_history),
            rewards=np.asarray(env.reward_history),
            mus=np.asarray(env.mu_history),
            metrics=metrics,
            extra=extra,
        )

    # ------------------------------------------------------------------
    def run(self, agent: "Agent", data: MarketData) -> BacktestResult:
        """Sequential back-test of ``agent`` over ``data``.

        ``act`` runs in whatever grad mode is ambient: the built-in
        agents route their own inference through graph-free kernels,
        while user strategies that adapt online (backprop inside
        ``act``) keep working.
        """
        env = self.make_env(data)
        agent.begin_backtest(data)
        done = False
        while not done:
            action = agent.act(data, env.t, env.previous_weights)
            done = env.step(action).done
        return self._result(agent.name, env, data)

    def run_window(
        self, agent: "Agent", data: MarketData, window: ExperimentWindow
    ) -> Tuple[BacktestResult, MarketData]:
        """Back-test ``agent`` on the *test* slice of ``window``.

        The fold-sliced entry point walk-forward evaluation uses: the
        panel is split with the Table 1 machinery (the test slice keeps
        its one-period anchor so the first decision has a previous
        close) and the agent runs over the test slice only.  Returns the
        result together with the test sub-panel, whose timestamps are
        what per-regime attribution labels.
        """
        _, test = window.split(data)
        return self.run(agent, test), test

    def run_many(
        self,
        agent: "Agent",
        panels: Sequence[MarketData],
    ) -> List[BacktestResult]:
        """Back-test one agent over several panels, batching decisions.

        For a stateless agent the panels advance in lockstep: each
        period's decisions come from a single ``decide_batch`` forward
        over all still-running panels, and their books step together.
        An invalid action raises naming its panel.  Stateful agents (whose
        ``begin_backtest``/``act`` carry per-run state) fall back to
        sequential :meth:`run` calls — same results, no batching.
        """
        panels = list(panels)
        if not getattr(agent, "stateless", False) or len(panels) <= 1:
            return [self.run(agent, panel) for panel in panels]

        envs = [self.make_env(panel) for panel in panels]
        labels = [f"panel {i}: action" for i in range(len(envs))]
        live = list(range(len(envs)))
        while live:
            # One feature gather for every live panel's decision row.
            states = agent.prepare_rows(
                panels,
                np.array(live),
                np.array([envs[i].t for i in live]),
                np.stack([envs[i].previous_weights for i in live]),
            )
            # decide_batch is pure inference on a stateless agent (the
            # stateless contract: no mutable state, no backprop), so
            # graph construction can be disabled outright.
            with no_grad():
                actions = np.asarray(agent.decide_batch(states))
            if actions.ndim != 2 or actions.shape[0] != len(live):
                raise ValueError(
                    f"{agent.name}: decide_batch returned shape "
                    f"{actions.shape} for a batch of {len(live)} states"
                )
            step_envs([envs[i] for i in live], actions, [labels[i] for i in live])
            live = [i for i in live if not envs[i].done]
        return [
            self._result(agent.name, env, panel)
            for env, panel in zip(envs, panels)
        ]
