"""The vectorized portfolio-book kernel against a frozen copy of the
per-row recurrence it replaced.

``run_many`` and ``run`` now share one kernel, so comparing them with
each other would compare the kernel with itself.  The reference below
is the recurrence as it stood before the kernel existed —
``PortfolioEnv.step``, ``ExecutionEngine.execute``/``_partial_fill``,
``RiskEngine.step`` and the scalar cost helpers — kept verbatim so the
kernel is checked bit for bit against an independent implementation.
"""

import numpy as np
import pytest

from repro.agents import Agent
from repro.baselines import UCRP
from repro.data import MarketGenerator
from repro.envs import Backtester, InvalidAction, ObservationConfig, step_envs
from repro.execution import (
    DepthLimited,
    ExecutionEngine,
    LinearImpact,
    SquareRootImpact,
    ZeroSlippage,
)
from repro.experiments import risk_regime_preset
from repro.metrics.performance import implementation_shortfall
from repro.registry import StrategyRegistry
from repro.risk import (
    CONSTRAINT_NAMES,
    DrawdownLockout,
    LeverageSchedule,
    PositionCap,
    RiskEngine,
    TurnoverBudget,
)
from repro.serving import InvalidStrategyOutput, PortfolioService, RebalanceRequest

OBS = ObservationConfig(window=6, stride=1, momentum_horizons=(1, 3, 6))
COMMISSION = 0.0025


# ----------------------------------------------------------------------
# Frozen reference recurrence.
def _ref_check_weights(w, name):
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {w.shape}")
    if w.min() < -1e-9:
        raise ValueError(f"{name} has negative entries")
    if abs(w.sum() - 1.0) > 1e-6:
        raise ValueError(f"{name} must sum to 1, sums to {w.sum():.8f}")
    return np.maximum(w, 0.0)


def ref_mu(w_drifted, w_target, cp, cs):
    w_prime = _ref_check_weights(w_drifted, "w_drifted")
    w = _ref_check_weights(w_target, "w_target")
    if cp == 0.0 and cs == 0.0:
        return 1.0
    wp = w_prime.tolist()
    wt = w.tolist()
    wp0, wt0 = wp[0], wt[0]
    wp_assets, wt_assets = wp[1:], wt[1:]
    combined = cs + cp - cs * cp
    sell = 0.0
    for a, b in zip(wp_assets, wt_assets):
        d = a - b
        if d > 0.0:
            sell += d
    mu = 1.0 - cp * wt0 - combined * sell
    mu = min(max(mu, 0.0), 1.0)
    denom = 1.0 - cp * wt0
    for _ in range(64):
        sell = 0.0
        for a, b in zip(wp_assets, wt_assets):
            d = a - mu * b
            if d > 0.0:
                sell += d
        mu_next = (1.0 - cp * wp0 - combined * sell) / denom
        mu_next = min(max(mu_next, 0.0), 1.0)
        if abs(mu_next - mu) < 1e-12:
            return mu_next
        mu = mu_next
    return mu


def ref_drift(w_prev, y):
    growth = y * w_prev
    total = growth.sum()
    if total <= 0:
        raise ValueError("portfolio value collapsed to zero")
    return growth / total


def ref_normalize(action, action_dim):
    action = np.asarray(action, dtype=np.float64)
    if action.shape != (action_dim,):
        raise ValueError(f"action must have shape ({action_dim},), got {action.shape}")
    total = float(action.sum())
    if not np.isfinite(total):
        raise ValueError("action must be finite")
    if float(action.min()) < -1e-9:
        raise ValueError("action weights must be non-negative")
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"action must sum to 1, sums to {total:.8f}")
    action = np.maximum(action, 0.0)
    return action / action.sum()


def ref_risk_step(engine, w_drifted, w_target, t, value, state):
    target = np.asarray(w_target, dtype=np.float64)
    if engine.is_null:
        binding = {name: False for name in CONSTRAINT_NAMES}
        return target, binding, 0.0, 0.0, False, state
    locked = False
    if engine.lockout is not None:
        if state is None:
            state = engine.lockout.initial_state(value)
        state = engine.lockout.update(state, value)
        locked = state.locked
    weights, binding, pre, post = engine.project_batch(
        w_drifted[None, :], target[None, :], t, locked=np.array([locked])
    )
    return (
        weights[0],
        {name: bool(mask[0]) for name, mask in binding.items()},
        float(pre[0]),
        float(post[0]),
        locked,
        state,
    )


def ref_partial_fill(w_prime, target, notional, volume, cap):
    wp = w_prime[1:]
    wt = target[1:]
    cap_frac = (cap * volume) / notional
    delta = wt - wp
    sells = np.minimum(np.maximum(-delta, 0.0), cap_frac)
    buys = np.minimum(np.maximum(delta, 0.0), cap_frac)
    budget = float(w_prime[0]) + float(sells.sum())
    total_buys = float(buys.sum())
    short = total_buys > budget
    if short:
        buys = buys * (budget / total_buys)
    assets = wp - sells + buys
    cash = max(1.0 - float(assets.sum()), 0.0)
    executed = np.empty(w_prime.shape[0])
    executed[0] = cash
    executed[1:] = assets
    desired = float(np.abs(delta).sum())
    done = float(sells.sum() + buys.sum())
    fill_ratio = 1.0 if desired <= 0.0 else min(done / desired, 1.0)
    return executed, fill_ratio, short


def ref_execute(engine, w_prime, target, value, volume, counters):
    volume = np.maximum(volume, 1e-12)
    notional = float(value) * engine.portfolio_notional
    cap = engine.model.participation_cap
    if cap is None:
        executed = target
        fill_ratio = 1.0
    else:
        executed, fill_ratio, short = ref_partial_fill(
            w_prime, target, notional, volume, cap
        )
        counters["short_budget"] += short
    commission_mu = ref_mu(w_prime, executed, engine.commission, engine.commission)
    if executed is target:
        ideal_mu = commission_mu
    else:
        ideal_mu = ref_mu(w_prime, target, engine.commission, engine.commission)
    trade = np.abs(executed[1:] - w_prime[1:])
    participation = trade * (notional / volume)
    rates = np.asarray(engine.model.cost_rates(participation), dtype=np.float64)
    slippage = float((trade * rates).sum())
    if slippage != 0.0:
        mu = min(max(commission_mu * (1.0 - slippage), 1e-12), 1.0)
    else:
        mu = commission_mu
    return executed, mu, ideal_mu, slippage, fill_ratio


class ReferenceBook:
    """One panel's book, stepped by the frozen per-row recurrence."""

    def __init__(self, data, backtester):
        self.data = data
        self.commission = backtester.commission
        self.execution = backtester.execution
        self.risk = backtester.risk
        self.first = backtester.observation.first_decision_index()
        self.t = self.first
        n = data.n_assets + 1
        self.value = self.ideal_value = backtester.initial_value
        self.w_drifted = np.eye(n)[0]
        self.w_prev = np.eye(n)[0]
        self.value_history = [self.value]
        self.ideal_value_history = [self.ideal_value]
        self.reward_history, self.weight_history, self.mu_history = [], [], []
        self.fill_ratio_history, self.slippage_history = [], []
        self.risk_binding_history, self.lockout_history = [], []
        self.pre_turnover_history, self.post_turnover_history = [], []
        self.risk_state = (
            self.risk.initial_state(self.value) if self.risk is not None else None
        )
        self.counters = {"short_budget": 0}

    def step(self, action):
        action = ref_normalize(action, self.data.n_assets + 1)
        if self.risk is not None:
            action, binding, pre, post, locked, self.risk_state = ref_risk_step(
                self.risk,
                self.w_drifted,
                action,
                self.t - self.first,
                self.value,
                self.risk_state,
            )
            self.risk_binding_history.append(binding)
            self.lockout_history.append(locked)
            self.pre_turnover_history.append(pre)
            self.post_turnover_history.append(post)
        rel = self.data.close[self.t + 1] / self.data.close[self.t]
        y = np.empty(rel.shape[0] + 1)
        y[0] = 1.0
        y[1:] = rel
        if self.execution is None:
            executed = action
            mu = ref_mu(self.w_drifted, action, self.commission, self.commission)
        else:
            engine = self.execution
            window = max(int(engine.adv_window_days * 86_400 / self.data.period_seconds), 1)
            volume = np.maximum(self.data.adv_panel(window)[self.t], 1e-12)
            executed, mu, ideal_mu, slippage, fill_ratio = ref_execute(
                engine, self.w_drifted, action, self.value, volume, self.counters
            )
            self.ideal_value *= ideal_mu * float(y @ action)
            self.fill_ratio_history.append(fill_ratio)
            self.slippage_history.append(slippage)
            self.ideal_value_history.append(self.ideal_value)
        growth = float(y @ executed)
        self.reward_history.append(float(np.log(mu * growth)))
        self.value *= mu * growth
        self.w_drifted = ref_drift(executed, y)
        self.w_prev = executed.copy()
        self.t += 1
        self.value_history.append(self.value)
        self.weight_history.append(executed.copy())
        self.mu_history.append(mu)
        return self.t + 1 >= self.data.n_periods

    def execution_summary(self):
        if self.execution is None or not self.slippage_history:
            return {}
        return {
            "implementation_shortfall": implementation_shortfall(
                self.value_history, self.ideal_value_history
            ),
            "mean_fill_ratio": float(np.mean(self.fill_ratio_history)),
            "mean_slippage_cost": float(np.mean(self.slippage_history)),
        }

    def risk_summary(self):
        if self.risk is None or not self.risk_binding_history:
            return {}
        n = len(self.risk_binding_history)
        counts, violated = {}, 0
        for binding in self.risk_binding_history:
            hit = False
            for name, bound in binding.items():
                if bound:
                    counts[name] = counts.get(name, 0) + 1
                    hit = True
            violated += int(hit)
        summary = {
            "violation_rate": violated / n,
            "lockout_rate": sum(self.lockout_history) / n,
            "mean_pre_turnover": float(np.mean(self.pre_turnover_history)),
            "mean_post_turnover": float(np.mean(self.post_turnover_history)),
            "binding_counts": counts,
            "n_decisions": n,
        }
        if self.risk.has_lockout and self.risk_state is not None:
            summary["lockout_triggers"] = int(self.risk_state.triggers)
        return summary

    def extra(self):
        extra = self.execution_summary()
        if self.risk_summary():
            extra["risk"] = self.risk_summary()
        return extra


def reference_run(agent, data, backtester):
    book = ReferenceBook(data, backtester)
    done = False
    while not done:
        done = book.step(agent.act(data, book.t, book.w_prev.copy()))
    return book


# ----------------------------------------------------------------------
class SoftmaxAgent(Agent):
    """A stateless strategy whose rows do not depend on the batch: a
    per-row softmax of 3-period momentum and the previous weights, sharp
    enough to swing the book (caps bind, lockouts fire, fills cap)."""

    name = "Softmax"
    stateless = True

    def prepare_states(self, data, indices, w_prev):
        indices = np.asarray(indices, dtype=np.int64)
        z = np.zeros((indices.shape[0], data.n_assets + 1))
        z[:, 1:] = 40.0 * np.log(data.close[indices] / data.close[indices - 3])
        return z + 2.0 * np.asarray(w_prev, dtype=np.float64)

    def decide_batch(self, states):
        z = states - states.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    def act(self, data, t, w_prev):
        return self.decide_batch(self.prepare_states(data, [t], w_prev[None, :]))[0]


def _panels(n_assets):
    # Unequal lengths: the lockstep loop drops panels as they finish.
    ends = ("2019/01/05", "2019/01/08", "2019/01/07")
    return [
        MarketGenerator(seed=40 + i)
        .generate("2019/01/01", end, 7200)
        .select_assets(list(range(n_assets)))
        for i, end in enumerate(ends)
    ]


PANELS = {n: _panels(n) for n in (4, 11)}

HAIR_TRIGGER = RiskEngine([DrawdownLockout(0.001, 3)])
RISKS = {
    "no_engine": None,
    "null": RiskEngine(()),
    **{
        name: risk_regime_preset(name).build_engine()
        for name in ("caps", "turnover", "lockout", "tight")
    },
    "hair_trigger": HAIR_TRIGGER,
    # Decision offsets only matter to a time-indexed limit.
    "schedule": RiskEngine([LeverageSchedule(0.9, steps=[(8, 0.5), (20, 0.8)])]),
}
EXECUTIONS = {
    "no_engine": lambda: None,
    "zero": lambda: ExecutionEngine(ZeroSlippage(), commission=COMMISSION),
    "linear": lambda: ExecutionEngine(LinearImpact(10.0), commission=COMMISSION),
    "sqrt": lambda: ExecutionEngine(SquareRootImpact(0.5), commission=COMMISSION),
    "depth": lambda: ExecutionEngine(
        DepthLimited(0.02, impact_coefficient=0.5),
        commission=COMMISSION,
        portfolio_notional=3e6,
    ),
}


def _assert_same_env(env, ref):
    assert env.value_history == ref.value_history
    assert env.reward_history == ref.reward_history
    assert env.mu_history == ref.mu_history
    assert np.array_equal(np.asarray(env.weight_history), np.asarray(ref.weight_history))
    assert np.array_equal(env.drifted_weights, ref.w_drifted)
    assert env.ideal_value_history == ref.ideal_value_history
    assert env.fill_ratio_history == ref.fill_ratio_history
    assert env.slippage_history == ref.slippage_history
    assert env.risk_binding_history == ref.risk_binding_history
    assert env.lockout_history == ref.lockout_history
    assert env.pre_turnover_history == ref.pre_turnover_history
    assert env.post_turnover_history == ref.post_turnover_history
    assert env._risk_state == ref.risk_state
    assert env.execution_summary() == ref.execution_summary()
    assert env.risk_summary() == ref.risk_summary()


def _assert_same_result(result, ref):
    assert np.array_equal(result.values, np.asarray(ref.value_history))
    assert np.array_equal(result.weights, np.asarray(ref.weight_history))
    assert np.array_equal(result.rewards, np.asarray(ref.reward_history))
    assert np.array_equal(result.mus, np.asarray(ref.mu_history))
    assert result.extra == ref.extra()


@pytest.mark.parametrize("n_assets", (4, 11))
@pytest.mark.parametrize("execution", EXECUTIONS, ids=str)
@pytest.mark.parametrize("risk", RISKS, ids=str)
def test_kernel_bit_identical_to_frozen_recurrence(risk, execution, n_assets):
    agent = SoftmaxAgent()
    backtester = Backtester(
        observation=OBS,
        commission=COMMISSION,
        execution=EXECUTIONS[execution](),
        risk=RISKS[risk],
    )
    panels = PANELS[n_assets]
    refs = [reference_run(agent, panel, backtester) for panel in panels]

    # Batch 1: the environment's own step, and the Backtester.run front.
    for panel, ref in zip(panels, refs):
        env = backtester.make_env(panel)
        while not env.step(agent.act(panel, env.t, env.previous_weights)).done:
            pass
        _assert_same_env(env, ref)
        _assert_same_result(backtester.run(agent, panel), ref)

    # Batch P: lockstep over panels of unequal length.
    envs = [backtester.make_env(panel) for panel in panels]
    live = list(range(len(envs)))
    while live:
        states = np.concatenate(
            [
                agent.prepare_states(
                    panels[i], [envs[i].t], envs[i].previous_weights[None, :]
                )
                for i in live
            ]
        )
        step_envs([envs[i] for i in live], agent.decide_batch(states))
        live = [i for i in live if not envs[i].done]
    for env, ref in zip(envs, refs):
        _assert_same_env(env, ref)
    for result, ref in zip(backtester.run_many(agent, panels), refs):
        _assert_same_result(result, ref)


def test_grid_exercises_every_branch():
    # The grid above is only as strong as the branches it reaches.
    agent = SoftmaxAgent()
    for n_assets in (4, 11):
        panels = PANELS[n_assets]
        hair = [
            reference_run(agent, p, Backtester(observation=OBS, risk=HAIR_TRIGGER))
            for p in panels
        ]
        assert all(ref.risk_state.triggers > 0 for ref in hair)
        capped = [
            reference_run(agent, p, Backtester(observation=OBS, risk=RISKS[name]))
            for p in panels
            for name in ("caps", "tight")
        ]
        for name in ("position_cap", "cash_floor", "turnover"):
            assert any(
                b[name] for ref in capped for b in ref.risk_binding_history
            ), name
        depth = [
            reference_run(
                agent, p, Backtester(observation=OBS, execution=EXECUTIONS["depth"]())
            )
            for p in panels
        ]
        assert any(min(ref.fill_ratio_history) < 1.0 for ref in depth)
        assert sum(ref.counters["short_budget"] for ref in depth) > 0


# ----------------------------------------------------------------------
class _NaNForPanel(Agent):
    """Uniform weights, except NaN for one chosen panel."""

    name = "NaNForPanel"
    stateless = True

    def __init__(self, bad):
        self.bad = bad

    def prepare_states(self, data, indices, w_prev):
        return [data] * len(indices)

    def decide_batch(self, states):
        out = np.full((len(states), states[0].n_assets + 1), 1.0 / (states[0].n_assets + 1))
        out[[data is self.bad for data in states]] = np.nan
        return out

    def act(self, data, t, w_prev):
        return self.decide_batch([data])[0]


@pytest.mark.parametrize("risk", (None, HAIR_TRIGGER), ids=("no_risk", "risk"))
def test_run_many_names_the_panel_with_an_invalid_action(risk):
    panels = PANELS[4]
    backtester = Backtester(observation=OBS, risk=risk)
    with pytest.raises(InvalidAction, match=r"^panel 1: action must be finite$"):
        backtester.run_many(_NaNForPanel(panels[1]), panels)


@pytest.mark.parametrize("risk", (None, HAIR_TRIGGER), ids=("no_risk", "risk"))
def test_serving_names_the_session_with_an_invalid_action(risk):
    panel = PANELS[4][0]
    reg = StrategyRegistry()
    reg.register("nan_for_panel", lambda: _NaNForPanel(panel))
    service = PortfolioService(registry=reg, risk=risk)
    service.register_market("good", PANELS[4][1])
    service.register_market("bad", panel)
    service.create_session("a", "nan_for_panel", market="good", observation=OBS)
    service.create_session("b", "nan_for_panel", market="bad", observation=OBS)
    with pytest.raises(
        InvalidStrategyOutput, match=r"^session 'b': strategy weights must be finite$"
    ):
        service.rebalance_many([RebalanceRequest("a"), RebalanceRequest("b")])
    assert service.describe_session("a").decisions == 0


# ----------------------------------------------------------------------
def test_serving_paper_book_equals_backtest_book():
    """Served guardrail responses step the back-test's book: weights and
    paper-book values bit-identical to ``Backtester.run`` under the same
    engine, on the stateless group path and the stateful single path."""
    engine = RiskEngine(
        [
            PositionCap(0.3),
            TurnoverBudget(0.5),
            DrawdownLockout(0.001, 3),
            LeverageSchedule(1.0, steps=[(10, 0.6)]),
        ]
    )
    panel = PANELS[4][1]
    reg = StrategyRegistry()
    reg.register("softmax", SoftmaxAgent)
    reg.register("ucrp", UCRP)
    service = PortfolioService(registry=reg, commission=COMMISSION, risk=engine)
    service.register_market("m", panel)
    sessions = {"g0": "softmax", "g1": "softmax", "u0": "ucrp"}
    for sid, strategy in sessions.items():
        service.create_session(sid, strategy, market="m", observation=OBS)

    rounds = 25
    served = {sid: [] for sid in sessions}
    for _ in range(rounds):
        for resp in service.rebalance_many([RebalanceRequest(s) for s in sessions]):
            served[resp.session_id].append(resp)
    assert service.stats.batched_forwards == rounds  # g0 + g1 grouped

    backtester = Backtester(observation=OBS, commission=COMMISSION, risk=engine)
    locked = 0
    for sid, strategy in sessions.items():
        agent = reg.create(strategy)
        agent.begin_backtest(panel)
        env = backtester.make_env(panel)
        for _ in range(rounds):
            env.step(agent.act(panel, env.t, env.previous_weights))
        responses = served[sid]
        assert np.array_equal(
            np.asarray([r.weights for r in responses]), np.asarray(env.weight_history)
        )
        assert [r.risk["value"] for r in responses] == env.value_history[1:]
        assert [r.risk["locked"] for r in responses] == env.lockout_history
        session = service._sessions[sid]
        assert np.array_equal(session.risk_w_drifted, env.drifted_weights)
        assert session.lockout == env._risk_state
        locked += sum(env.lockout_history)
    assert locked  # the lockout path was exercised
