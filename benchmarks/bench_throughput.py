"""Inference + training throughput benchmark: graph vs fused paths.

Measures decisions/sec and per-forward p50/p99 latency for the two
serving-relevant workloads plus the training loop:

* **backtest** — the SharedSDP agent back-tested over ``--panels``
  synthetic market panels, three ways: the seed's graph path (sequential
  ``Backtester.run`` with autograd-graph forwards), the fused sequential
  path, and the fused lockstep-batched path (``Backtester.run_many``).
* **serving** — a :class:`~repro.serving.PortfolioService` with
  ``--sessions`` concurrent sessions on one shared panel, decided per
  round through ``rebalance_many`` (micro-batched, panel-grouped
  ``prepare_states``) and, for contrast, one-by-one ``rebalance`` calls.
* **execution** — the fused batched back-test run through the
  execution layer: no engine (today's default), a ``ZeroSlippage``
  engine (must be bit-identical — the layer's zero-cost invariant),
  and the linear / square-root / depth-limited impact models, so the
  per-decision cost of liquidity-aware execution is on the perf
  trajectory.
* **risk** — the fused batched back-test run through the risk
  projection layer: no engine, a null engine (must be bit-identical —
  the layer's zero-constraint invariant), and the ``caps`` /
  ``lockout`` presets, so the per-decision cost of constraint
  projection is on the perf trajectory too.
* **resilience** — the fault-injection layer's no-plan invariant: an
  empty :class:`~repro.resilience.FaultPlan` over healthy inputs must
  be bit-identical to the unhardened code across the data plane, the
  sweep engine (manifest equality), and serving (decision JSON), and
  the hardened serving dispatch must cost ≤ 1.1x the plain path.
* **load** — the supervised multi-worker serving tier: session-creation
  ramp and sustained ``rebalance_many`` rounds against a 2-worker
  :class:`~repro.serving.ServingSupervisor` (two markets, one per
  worker), a single-worker run that must be bit-identical to the plain
  in-process service, and a chaos leg where a fault plan kills one
  worker mid-run — the run must complete with ≥1 restart, zero lost
  sessions, and responses identical to the healthy run.
* **training** — ``PolicyTrainer`` minibatch steps on a SharedSDP agent
  three ways: the *seed* path (closure-graph forward/backward plus the
  seed's allocating prologue — ``select_assets`` with full-panel
  re-validation, O(n) ``rng.choice`` start sampling, out-of-place
  optimizer updates), the current closure-graph reference path, and the
  fused STBP fast path (analytic kernels on a static tape).

Every fused run is checked bit-identical to the graph run — portfolio
weight trajectories for inference, *network weight trajectories and PVM
contents after the full run* for training; ``--check`` exits non-zero on
any mismatch so CI can gate on parity.  Results are written to
``BENCH_throughput.json`` at the repo root so future PRs have a perf
trajectory.

Run: ``PYTHONPATH=src python benchmarks/bench_throughput.py``
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from repro.agents import MultiSeedTrainer, PolicyTrainer, SDPAgent, TrainConfig
from repro.autograd import Tensor, enable_grad
from repro.autograd.optim import SGD
from repro.data import MarketGenerator
from repro.envs import Backtester, ObservationConfig
from repro.envs.costs import transaction_remainder_approx
from repro.envs.pvm import PortfolioVectorMemory
from repro.envs.sampling import GeometricBatchSampler
from repro.serving import PortfolioService, RebalanceRequest
from repro.utils.rng import make_rng

REPO_ROOT = Path(__file__).resolve().parent.parent

OBSERVATION = ObservationConfig(window=6, stride=1, momentum_horizons=(1, 3, 6))
AGENT_PARAMS = dict(
    hidden_sizes=(128, 128),
    timesteps=5,
    encoder_pop_size=10,
    decoder_pop_size=10,
    seed=0,
)

# Training bench: the experiment grid's test-scale network (quick-profile
# sizing) on an experiment-length panel — the paper's training loop runs
# thousands of minibatch steps over year-scale 30-minute candles, so the
# panel must be long enough that per-step panel handling (the seed
# re-validated and re-logged the whole panel on every permuted step)
# shows up the way it does in the real grid.  SGD is Table 2's
# optimizer.  The full three-path parity run stays CI-friendly.
TRAIN_AGENT_PARAMS = dict(
    hidden_sizes=(32, 32),
    timesteps=5,
    encoder_pop_size=4,
    decoder_pop_size=4,
    surrogate_amplifier=5.0,
    seed=0,
)
TRAIN_BATCH = 32
TRAIN_LR = 1e-5
TRAIN_PANEL_SPAN = ("2018/01/01", "2019/01/01")
TRAIN_PANEL_PERIOD = 1800  # 30-minute candles (Table 1) -> ~17.5k periods


class _TimedDecide:
    """Wrap an agent's ``decide_batch``, recording per-call latency."""

    def __init__(self, agent: SDPAgent, fn: Callable):
        self.agent = agent
        self.fn = fn
        self.latencies: List[float] = []

    def __enter__(self):
        self._orig = self.agent.decide_batch

        def timed(states):
            t0 = time.perf_counter()
            out = self.fn(states)
            self.latencies.append(time.perf_counter() - t0)
            return out

        self.agent.decide_batch = timed
        return self

    def __exit__(self, *exc):
        self.agent.decide_batch = self._orig


def _stats(name: str, decisions: int, seconds: float, latencies: List[float]) -> Dict:
    lat = np.asarray(latencies) * 1e3
    return {
        "name": name,
        "decisions": int(decisions),
        "seconds": round(seconds, 4),
        "decisions_per_sec": round(decisions / seconds, 1),
        "forward_calls": len(latencies),
        "p50_ms": round(float(np.percentile(lat, 50)), 4),
        "p99_ms": round(float(np.percentile(lat, 99)), 4),
    }


def make_panels(n_panels: int, n_assets: int):
    return [
        MarketGenerator(seed=100 + i)
        .generate("2019/01/01", "2019/02/01", 7200)
        .select_assets(list(range(n_assets)))
        for i in range(n_panels)
    ]


def bench_backtest(panels, n_assets: int) -> Dict:
    agent = SDPAgent(n_assets, observation=OBSERVATION, **AGENT_PARAMS)
    engine = Backtester(observation=OBSERVATION)

    # Seed graph path: sequential back-tests, autograd-graph forwards.
    # Pin grad mode on so the baseline always measures real graph
    # construction, whatever mode the surrounding engine runs in.
    def graph_decide(states):
        with enable_grad():
            return agent.network.forward(states).data

    with _TimedDecide(agent, graph_decide) as timer:
        t0 = time.perf_counter()
        graph_results = [engine.run(agent, p) for p in panels]
        graph_s = time.perf_counter() - t0
        graph_lat = timer.latencies

    # Fused sequential: same loop, graph-free kernels.
    with _TimedDecide(agent, agent.network.forward_inference) as timer:
        t0 = time.perf_counter()
        fused_seq_results = [engine.run(agent, p) for p in panels]
        fused_seq_s = time.perf_counter() - t0
        fused_seq_lat = timer.latencies

    # Fused batched: lockstep run_many, one fused forward per period.
    with _TimedDecide(agent, agent.network.forward_inference) as timer:
        t0 = time.perf_counter()
        fused_batched_results = engine.run_many(agent, panels)
        fused_batched_s = time.perf_counter() - t0
        fused_batched_lat = timer.latencies

    decisions = sum(len(r.weights) for r in graph_results)
    identical = all(
        np.array_equal(g.weights, a.weights) and np.array_equal(g.weights, b.weights)
        for g, a, b in zip(graph_results, fused_seq_results, fused_batched_results)
    )
    graph = _stats("backtest_graph_sequential", decisions, graph_s, graph_lat)
    fused_seq = _stats("backtest_fused_sequential", decisions, fused_seq_s, fused_seq_lat)
    fused_batched = _stats(
        "backtest_fused_batched", decisions, fused_batched_s, fused_batched_lat
    )
    return {
        "paths": [graph, fused_seq, fused_batched],
        "weights_bit_identical": bool(identical),
        "speedup_fused_batched_vs_graph": round(graph_s / fused_batched_s, 2),
        "speedup_fused_sequential_vs_graph": round(graph_s / fused_seq_s, 2),
    }


# ----------------------------------------------------------------------
# Seed-faithful training baseline: reproduces the training loop exactly
# as it stood before the fused STBP PR, value-for-value (bit-identical
# weight trajectories) but with the seed's costs — so the trajectory
# entry measures what the PR actually bought end to end.
# ----------------------------------------------------------------------
class _SeedSGD(SGD):
    """SGD with the seed's out-of-place updates (fresh arrays per step)."""

    def step(self):
        self._step_count += 1
        for index, param in enumerate(self.params):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                self._velocity[index] = self.momentum * self._velocity[index] + grad
                grad = self._velocity[index]
            param.data = param.data - self.lr * grad


class _SeedSampler(GeometricBatchSampler):
    """Start sampling via ``rng.choice`` (O(n) per call, same indices)."""

    def sample(self):
        start = self.first_index + self._rng.choice(
            self._probabilities.shape[0], p=self._probabilities
        )
        return np.arange(start, start + self.batch_size, dtype=np.int64)


class _SeedTrainer:
    """The seed's training loop, self-contained: ``rng.choice`` start
    sampling, a chained-fancy-indexing prologue, a ``select_assets``
    panel (full-panel re-validation) on every permuted step, and the
    closure-graph step.  It consumes the trainers' RNG streams (sampler
    ``make_rng(seed)``, permutations ``make_rng(seed + 1)``), so it must
    end bit-identical to them."""

    def __init__(self, policy, data, optimizer, observation, config, seed=0):
        self.policy = policy
        self.data = data
        self.optimizer = optimizer
        self.config = config
        n = data.n_periods
        self.sampler = _SeedSampler(
            max(observation.first_decision_index(), 1),
            n - 2,
            config.batch_size,
            bias=config.geometric_bias,
            rng=make_rng(seed),
        )
        self.perm_rng = make_rng(seed + 1)
        self.pvm = PortfolioVectorMemory(n, data.n_assets)
        rel = data.close[1:] / data.close[:-1]
        self.relatives = np.concatenate([np.ones((n - 1, 1)), rel], axis=1)

    def train_step(self) -> None:
        indices = self.sampler.sample()
        m = self.data.n_assets
        if self.config.permute_assets:
            perm = self.perm_rng.permutation(m)
            view = self.data.select_assets(list(perm))
        else:
            perm = np.arange(m)
            view = self.data
        action_perm = np.concatenate([[0], 1 + perm])
        w_prev = self.pvm.read(indices - 1)[:, action_perm]
        growth = w_prev * self.relatives[indices - 1][:, action_perm]
        w_drifted = growth / growth.sum(axis=1, keepdims=True)
        y_next = self.relatives[indices][:, action_perm]

        actions = self.policy.policy_forward(view, indices, w_prev)
        mu = transaction_remainder_approx(
            Tensor(w_drifted), actions, self.config.commission
        )
        log_return = (mu * (actions * Tensor(y_next)).sum(axis=1)).log()
        loss = -log_return.mean()
        self.optimizer.zero_grad()
        loss.backward()
        self.optimizer.step()

        unpermuted = np.empty_like(actions.data)
        unpermuted[:, action_perm] = actions.data
        self.pvm.write(indices, unpermuted)


def make_training_panel(n_assets: int):
    """Experiment-length panel: a year of 30-minute candles (Table 1)."""
    return (
        MarketGenerator(seed=7)
        .generate(*TRAIN_PANEL_SPAN, TRAIN_PANEL_PERIOD)
        .select_assets(list(range(n_assets)))
    )


def bench_training(panel, n_steps: int) -> Dict:
    """Train-steps/sec for the seed, graph-reference, and fused paths.

    All three runs start from identical weights and consume identical
    RNG streams; the fused path must end with bit-identical network
    weights and PVM contents.
    """
    n_assets = panel.n_assets
    config = TrainConfig(
        steps=n_steps, batch_size=TRAIN_BATCH, permute_assets=True
    )

    def build(trainer_cls, use_fused):
        agent = SDPAgent(n_assets, observation=OBSERVATION, **TRAIN_AGENT_PARAMS)
        kwargs = {} if trainer_cls is _SeedTrainer else {"use_fused": use_fused}
        optimizer_cls = _SeedSGD if trainer_cls is _SeedTrainer else SGD
        trainer = trainer_cls(
            agent,
            panel,
            optimizer_cls(agent.parameters(), TRAIN_LR),
            observation=OBSERVATION,
            config=config,
            seed=0,
            **kwargs,
        )
        return agent, trainer

    def run(trainer_cls, use_fused):
        agent, trainer = build(trainer_cls, use_fused)
        latencies: List[float] = []
        t0 = time.perf_counter()
        for _ in range(n_steps):
            s0 = time.perf_counter()
            trainer.train_step()
            latencies.append(time.perf_counter() - s0)
        seconds = time.perf_counter() - t0
        return agent, trainer, seconds, latencies

    seed_agent, seed_tr, seed_s, seed_lat = run(_SeedTrainer, False)
    graph_agent, graph_tr, graph_s, graph_lat = run(PolicyTrainer, False)
    fused_agent, fused_tr, fused_s, fused_lat = run(PolicyTrainer, True)

    seed_w = seed_agent.network.state_dict()
    graph_w = graph_agent.network.state_dict()
    fused_w = fused_agent.network.state_dict()
    identical = (
        all(np.array_equal(graph_w[k], fused_w[k]) for k in graph_w)
        and all(np.array_equal(seed_w[k], fused_w[k]) for k in seed_w)
        and np.array_equal(graph_tr.pvm.snapshot(), fused_tr.pvm.snapshot())
        and np.array_equal(seed_tr.pvm.snapshot(), fused_tr.pvm.snapshot())
    )

    def stats(name, seconds, latencies):
        lat = np.asarray(latencies) * 1e3
        return {
            "name": name,
            "train_steps": n_steps,
            "seconds": round(seconds, 4),
            "steps_per_sec": round(n_steps / seconds, 1),
            "p50_ms": round(float(np.percentile(lat, 50)), 4),
            "p99_ms": round(float(np.percentile(lat, 99)), 4),
        }

    return {
        "batch_size": TRAIN_BATCH,
        "network": f"SharedSDP {TRAIN_AGENT_PARAMS['hidden_sizes']}, T=5",
        "panel_periods": panel.n_periods,
        "permute_assets": True,
        "optimizer": f"SGD lr={TRAIN_LR}",
        "paths": [
            stats("training_seed_graph", seed_s, seed_lat),
            stats("training_graph", graph_s, graph_lat),
            stats("training_fused", fused_s, fused_lat),
        ],
        "weights_bit_identical": bool(identical),
        "speedup_fused_vs_seed": round(seed_s / fused_s, 2),
        "speedup_fused_vs_graph": round(graph_s / fused_s, 2),
    }


MULTISEED_COUNTS = (1, 4, 10)
FAST_WEIGHT_TOLERANCE = 1e-6  # documented float32 drift bound at 200 steps


def bench_training_multiseed(panel, n_steps: int) -> Dict:
    """Seed-steps/sec of the stacked multi-seed tape vs serial runs.

    The serial baseline is S independent fused ``PolicyTrainer`` runs
    (seeds 0..S-1) — exactly what a seed sweep executes shard by shard.
    The reference-backend ``MultiSeedTrainer`` must end every seed with
    weights and PVM contents bit-identical to its serial twin; that is
    the ``--check`` parity gate.  The fast (float32) tier is reported
    for its throughput and measured weight deviation only — it never
    participates in any parity gate.

    Speedups are honest single-core numbers: with the per-step Python
    dispatch already amortised by the fused serial path, stacking buys
    back the remaining per-seed overhead (sampler/permutation/launch
    costs and GEMM batching) but cannot beat the serial path's raw
    ufunc arithmetic, which dominates once S is large.
    """
    n_assets = panel.n_assets
    s_max = max(MULTISEED_COUNTS)
    config = TrainConfig(
        steps=n_steps, batch_size=TRAIN_BATCH, permute_assets=True
    )

    def make_agent(seed: int) -> SDPAgent:
        params = dict(TRAIN_AGENT_PARAMS, seed=seed)
        return SDPAgent(n_assets, observation=OBSERVATION, **params)

    # Serial baseline: S independent fused runs, per-seed agent init
    # and trainer streams — the sweep engine's per-shard behaviour.
    serial_states, serial_pvms = [], []
    t0 = time.perf_counter()
    for seed in range(s_max):
        agent = make_agent(seed)
        trainer = PolicyTrainer(
            agent,
            panel,
            SGD(agent.parameters(), TRAIN_LR),
            observation=OBSERVATION,
            config=config,
            seed=seed,
            use_fused=True,
        )
        for _ in range(n_steps):
            trainer.train_step()
        serial_states.append(agent.network.state_dict())
        serial_pvms.append(trainer.pvm.snapshot())
    serial_s = time.perf_counter() - t0

    def run_multiseed(n_seeds: int, backend):
        agents = [make_agent(seed) for seed in range(n_seeds)]
        trainer = MultiSeedTrainer(
            agents,
            panel,
            [SGD(agent.parameters(), TRAIN_LR) for agent in agents],
            observation=OBSERVATION,
            config=config,
            seeds=list(range(n_seeds)),
            backend=backend,
        )
        t0 = time.perf_counter()
        trainer.train(n_steps)
        return agents, trainer, time.perf_counter() - t0

    def stats(name: str, n_seeds: int, seconds: float) -> Dict:
        # Pro-rata serial cost for the same S seeds.
        serial_equiv = serial_s * n_seeds / s_max
        return {
            "name": name,
            "seeds": n_seeds,
            "train_steps": n_steps,
            "seconds": round(seconds, 4),
            "seed_steps_per_sec": round(n_seeds * n_steps / seconds, 1),
            "speedup_vs_serial": round(serial_equiv / seconds, 2),
        }

    serial_path = stats("training_serial_fused", s_max, serial_s)
    paths = [serial_path]
    identical = True
    for n_seeds in MULTISEED_COUNTS:
        agents, trainer, seconds = run_multiseed(n_seeds, None)
        paths.append(stats(f"training_multiseed_s{n_seeds}", n_seeds, seconds))
        for s, agent in enumerate(agents):
            w = agent.network.state_dict()
            identical = identical and all(
                np.array_equal(w[k], serial_states[s][k]) for k in w
            )
            identical = identical and np.array_equal(
                trainer.pvms[s].snapshot(), serial_pvms[s]
            )

    # Fast tier: float32 tapes + float32 GEMM banks, S = s_max.
    fast_agents, _, fast_seconds = run_multiseed(s_max, "fast")
    max_dev = 0.0
    for s, agent in enumerate(fast_agents):
        w = agent.network.state_dict()
        for k in w:
            dev = float(np.max(np.abs(w[k] - serial_states[s][k])))
            max_dev = max(max_dev, dev)
    fast_path = stats(f"training_multiseed_fast_s{s_max}", s_max, fast_seconds)

    return {
        "batch_size": TRAIN_BATCH,
        "network": f"SharedSDP {TRAIN_AGENT_PARAMS['hidden_sizes']}, T=5",
        "panel_periods": panel.n_periods,
        "optimizer": f"SGD lr={TRAIN_LR}",
        "seed_counts": list(MULTISEED_COUNTS),
        "paths": paths,
        "weights_bit_identical": bool(identical),
        "speedup_reference_max_seeds": paths[-1]["speedup_vs_serial"],
        "backend": {
            "paths": [fast_path],
            "max_abs_weight_deviation": max_dev,
            "tolerance": FAST_WEIGHT_TOLERANCE,
            "within_tolerance": bool(max_dev <= FAST_WEIGHT_TOLERANCE),
            "in_parity_gate": False,  # float32 never gates parity
        },
    }


def bench_execution(panels, n_assets: int) -> Dict:
    """Decisions/sec of the batched back-test across execution regimes.

    The ``zero`` path is the parity gate: an explicit ``ZeroSlippage``
    engine must reproduce the no-engine run bit for bit (values,
    weights, and μ trajectories).
    """
    from repro.execution import (
        DepthLimited,
        ExecutionEngine,
        LinearImpact,
        SquareRootImpact,
        ZeroSlippage,
    )

    agent = SDPAgent(n_assets, observation=OBSERVATION, **AGENT_PARAMS)
    engines = [
        ("execution_none", None),
        ("execution_zero", ExecutionEngine(ZeroSlippage())),
        (
            "execution_linear",
            ExecutionEngine(LinearImpact(10.0), portfolio_notional=1e6),
        ),
        (
            "execution_sqrt",
            ExecutionEngine(SquareRootImpact(1.0), portfolio_notional=1e6),
        ),
        (
            "execution_depth",
            ExecutionEngine(DepthLimited(0.01, 10.0), portfolio_notional=1e7),
        ),
    ]
    paths = []
    results = {}
    for name, engine in engines:
        backtester = Backtester(observation=OBSERVATION, execution=engine)
        with _TimedDecide(agent, agent.network.forward_inference) as timer:
            t0 = time.perf_counter()
            results[name] = backtester.run_many(agent, panels)
            seconds = time.perf_counter() - t0
            latencies = timer.latencies
        decisions = sum(len(r.weights) for r in results[name])
        paths.append(_stats(name, decisions, seconds, latencies))

    identical = all(
        np.array_equal(a.values, b.values)
        and np.array_equal(a.weights, b.weights)
        and np.array_equal(a.mus, b.mus)
        for a, b in zip(results["execution_none"], results["execution_zero"])
    )
    none_s = paths[0]["seconds"]
    return {
        "models": {
            "linear": "LinearImpact(10.0) @ notional 1e6",
            "sqrt": "SquareRootImpact(1.0) @ notional 1e6",
            "depth": "DepthLimited(0.01, 10.0) @ notional 1e7",
        },
        "paths": paths,
        "zero_bit_identical": bool(identical),
        "overhead_zero_vs_none": round(paths[1]["seconds"] / none_s, 2),
        "overhead_linear_vs_none": round(paths[2]["seconds"] / none_s, 2),
        "overhead_depth_vs_none": round(paths[4]["seconds"] / none_s, 2),
        "mean_shortfall": {
            name: round(
                float(
                    np.mean(
                        [
                            r.extra.get("implementation_shortfall", 0.0)
                            for r in results[name]
                        ]
                    )
                ),
                6,
            )
            for name in ("execution_linear", "execution_sqrt", "execution_depth")
        },
    }


def bench_risk(panels, n_assets: int) -> Dict:
    """Decisions/sec of the batched back-test across risk regimes.

    The ``none`` path is the parity gate: an explicit null
    :class:`~repro.risk.RiskEngine` (no limits) must reproduce the
    no-engine run bit for bit (values, weights, and μ trajectories) —
    the projection layer's zero-constraint invariant, mirroring the
    execution section's ``ZeroSlippage`` gate.
    """
    from repro.experiments import risk_regime_preset
    from repro.risk import RiskEngine

    agent = SDPAgent(n_assets, observation=OBSERVATION, **AGENT_PARAMS)
    engines = [
        ("risk_no_engine", None),
        ("risk_none", RiskEngine(())),
        ("risk_caps", risk_regime_preset("caps").build_engine()),
        ("risk_lockout", risk_regime_preset("lockout").build_engine()),
    ]
    paths = []
    results = {}
    for name, engine in engines:
        backtester = Backtester(observation=OBSERVATION, risk=engine)
        with _TimedDecide(agent, agent.network.forward_inference) as timer:
            t0 = time.perf_counter()
            results[name] = backtester.run_many(agent, panels)
            seconds = time.perf_counter() - t0
            latencies = timer.latencies
        decisions = sum(len(r.weights) for r in results[name])
        paths.append(_stats(name, decisions, seconds, latencies))

    identical = all(
        np.array_equal(a.values, b.values)
        and np.array_equal(a.weights, b.weights)
        and np.array_equal(a.mus, b.mus)
        for a, b in zip(results["risk_no_engine"], results["risk_none"])
    )
    none_s = paths[0]["seconds"]
    return {
        "regimes": {
            "caps": "PositionCap(0.35) + CashFloor(0.05)",
            "lockout": "DrawdownLockout(0.15, 10)",
        },
        "paths": paths,
        "none_bit_identical": bool(identical),
        "overhead_none_vs_no_engine": round(paths[1]["seconds"] / none_s, 2),
        "overhead_caps_vs_no_engine": round(paths[2]["seconds"] / none_s, 2),
        "overhead_lockout_vs_no_engine": round(paths[3]["seconds"] / none_s, 2),
        "mean_violation_rate": {
            name: round(
                float(
                    np.mean(
                        [
                            r.extra.get("risk", {}).get("violation_rate", 0.0)
                            for r in results[name]
                        ]
                    )
                ),
                6,
            )
            for name in ("risk_caps", "risk_lockout")
        },
    }


def bench_resilience(n_assets: int, n_sessions: int, n_rounds: int) -> Dict:
    """No-plan parity + hardened-path overhead for the resilience layer.

    The layer's core invariant, on the perf trajectory: a ``None`` (or
    empty) fault plan over all-healthy inputs must be *bit-identical* to
    the unhardened code across the data plane (generator → back-test),
    the sweep engine (manifests), and serving (decision JSON) — and the
    hardened serving dispatch (circuit breaker accounting + per-request
    isolation) must cost no more than ~1.1x the plain transactional
    path.  ``--check`` gates on both.
    """
    import tempfile

    from repro.envs import Backtester
    from repro.experiments import ExperimentSpec, SweepRunner
    from repro.registry import create as create_strategy
    from repro.resilience import FaultPlan
    from repro.serving import ServingResilience

    empty_plan = FaultPlan(seed=0)  # no rates armed — normalizes to None

    # -- data plane + backtest: empty plan / no repair touches no byte.
    span = ("2019/01/01", "2019/02/01", 7200)
    assets = list(range(n_assets))
    plain_panel = MarketGenerator(seed=321).generate(*span).select_assets(assets)
    armed_panel = (
        MarketGenerator(seed=321)
        .generate(*span, faults=empty_plan, repair=None)
        .select_assets(assets)
    )
    panel_identical = all(
        np.array_equal(getattr(plain_panel, f), getattr(armed_panel, f))
        for f in ("timestamps", "open", "high", "low", "close", "volume")
    )
    engine = Backtester(observation=OBSERVATION)
    bt_plain = engine.run(create_strategy("ucrp"), plain_panel)
    bt_armed = engine.run(create_strategy("ucrp"), armed_panel)
    backtest_identical = (
        panel_identical
        and np.array_equal(bt_plain.values, bt_armed.values)
        and np.array_equal(bt_plain.weights, bt_armed.weights)
    )

    # -- sweep engine: retry-enabled runner with an empty plan writes a
    # manifest equal to the plain runner's, shard for shard.
    spec = ExperimentSpec(
        name="bench-resilience",
        profile="quick",
        experiments=(1,),
        strategies=("ucrp",),
        seeds=(0,),
    )
    with tempfile.TemporaryDirectory() as tmp:
        plain_runner = SweepRunner(spec, Path(tmp) / "plain")
        plain_runner.run(parallel=False)
        armed_runner = SweepRunner(
            spec, Path(tmp) / "armed", fault_plan=empty_plan
        )
        armed_runner.run(parallel=False)
        sweep_identical = (
            plain_runner.store.read_manifest() == armed_runner.store.read_manifest()
        )

    # -- serving: resilience-enabled service must answer byte-identically
    # to the plain one while healthy.  ucrp keeps the forward cheap so
    # the dispatch overhead itself is what gets measured.
    def build(resilience):
        service = PortfolioService(resilience=resilience)
        service.register_market("bench", plain_panel)
        for i in range(n_sessions):
            service.create_session(f"s{i}", strategy="ucrp", market="bench")
        return service

    requests = [RebalanceRequest(f"s{i}") for i in range(n_sessions)]

    def run_rounds(service):
        responses = []
        t0 = time.perf_counter()
        for _ in range(n_rounds):
            responses.extend(service.rebalance_many(requests))
        return responses, time.perf_counter() - t0

    # Min-of-3 to keep the overhead gate out of timing-noise territory.
    plain_s = resilient_s = float("inf")
    for _ in range(3):
        plain_responses, s = run_rounds(build(None))
        plain_s = min(plain_s, s)
        resilient_responses, s = run_rounds(build(ServingResilience()))
        resilient_s = min(resilient_s, s)
    serving_identical = all(
        a.t == b.t
        and not b.degraded
        and np.array_equal(a.weights, b.weights)
        and a.to_json_dict() == b.to_json_dict()
        for a, b in zip(plain_responses, resilient_responses)
    )

    decisions = n_sessions * n_rounds
    overhead = round(resilient_s / plain_s, 3)
    return {
        "sessions": n_sessions,
        "rounds": n_rounds,
        "paths": [
            {
                "name": "serving_plain_dispatch",
                "decisions": decisions,
                "seconds": round(plain_s, 4),
                "decisions_per_sec": round(decisions / plain_s, 1),
            },
            {
                "name": "serving_resilient_dispatch",
                "decisions": decisions,
                "seconds": round(resilient_s, 4),
                "decisions_per_sec": round(decisions / resilient_s, 1),
            },
        ],
        "no_plan_bit_identical": {
            "backtest": bool(backtest_identical),
            "sweep": bool(sweep_identical),
            "serving": bool(serving_identical),
        },
        "overhead_resilient_vs_plain": overhead,
        "overhead_budget": 1.1,
    }


def bench_observability(n_assets: int, n_sessions: int, n_rounds: int) -> Dict:
    """Crown-jewel gates for the observability layer.

    Two invariants, both ``--check``-gated: with obs *disabled* (the
    default null handle) every numeric output — sweep artifacts
    (training + backtest), serving decision JSON — is bit-identical to
    the obs-*enabled* run, i.e. recording metrics never perturbs the
    science; and the obs-enabled serving dispatch costs no more than
    ~1.1x the disabled path.  A third, structural check hits a live
    ``GET /metrics`` and validates the Prometheus exposition plus the
    presence of the acceptance-critical families (rebalance latency,
    failover/shed counters).
    """
    import re
    import tempfile
    import threading
    import urllib.request

    from repro.experiments import ExperimentSpec, SweepRunner
    from repro.obs import NULL_OBS, EventLog, Obs, use_obs
    from repro.serving.http import serve
    from repro.serving.supervisor import ServingSupervisor

    span = ("2019/01/01", "2019/02/01", 7200)
    assets = list(range(n_assets))
    panel = MarketGenerator(seed=321).generate(*span).select_assets(assets)

    # -- sweep engine (training + backtest): an observed run writes the
    # same series/weights bytes as a dark one, artifact for artifact.
    spec = ExperimentSpec(
        name="bench-obs",
        profile="quick",
        experiments=(1,),
        strategies=("ucrp", "sdp"),
        seeds=(0,),
        overrides=(("train_steps", 8),),
    )
    with tempfile.TemporaryDirectory() as tmp:
        with use_obs(NULL_OBS):
            dark = SweepRunner(spec, Path(tmp) / "dark")
            dark.run(parallel=False)
        with use_obs(Obs(events=EventLog(level="debug"))):
            lit = SweepRunner(spec, Path(tmp) / "lit")
            lit.run(parallel=False)
        sweep_identical = True
        for shard_dir in sorted((Path(tmp) / "dark" / "shards").iterdir()):
            for name in ("series.npz", "weights.npz"):
                a = shard_dir / name
                b = Path(tmp) / "lit" / "shards" / shard_dir.name / name
                if a.exists() != b.exists():
                    sweep_identical = False
                elif a.exists() and a.read_bytes() != b.read_bytes():
                    sweep_identical = False

    # -- serving: obs-on responses must match obs-off byte for byte,
    # and the instrumented dispatch must stay inside the budget.
    def build(obs):
        service = PortfolioService(obs=obs)
        service.register_market("bench", panel)
        for i in range(n_sessions):
            service.create_session(f"s{i}", strategy="ucrp", market="bench")
        return service

    requests = [RebalanceRequest(f"s{i}") for i in range(n_sessions)]

    def run_rounds(service):
        responses = []
        t0 = time.perf_counter()
        for _ in range(n_rounds):
            responses.extend(service.rebalance_many(requests))
        return responses, time.perf_counter() - t0

    # Min-of-3 to keep the overhead gate out of timing-noise territory.
    dark_s = lit_s = float("inf")
    for _ in range(3):
        dark_responses, s = run_rounds(build(None))
        dark_s = min(dark_s, s)
        lit_responses, s = run_rounds(build(Obs()))
        lit_s = min(lit_s, s)
    serving_identical = all(
        a.t == b.t
        and np.array_equal(a.weights, b.weights)
        and a.to_json_dict() == b.to_json_dict()
        for a, b in zip(dark_responses, lit_responses)
    )

    # -- GET /metrics over a 1-worker supervisor: valid Prometheus text
    # exposing rebalance latency and the failover/shed counters.
    sample_re = re.compile(
        r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
        r'(\{[a-zA-Z0-9_]+="[^"]*"(,[a-zA-Z0-9_]+="[^"]*")*\})?'
        r" [-+]?([0-9.eE+-]+|nan|inf)$"
    )
    with tempfile.TemporaryDirectory() as tmp:
        with ServingSupervisor(Path(tmp) / "state", workers=1) as sup:
            sup.register_market("bench", panel)
            sup.create_session("m0", strategy="ucrp", market="bench")
            server = serve(sup, port=0)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            try:
                host, port = server.server_address[:2]
                base = f"http://{host}:{port}"
                with urllib.request.urlopen(f"{base}/metrics") as rsp:
                    first_page = rsp.read().decode()
                post = urllib.request.Request(
                    f"{base}/rebalance",
                    data=json.dumps({"session_id": "m0"}).encode(),
                    headers={"Content-Type": "application/json"},
                )
                urllib.request.urlopen(post).read()
                with urllib.request.urlopen(f"{base}/metrics") as rsp:
                    page = rsp.read().decode()
            finally:
                server.shutdown()
                server.server_close()
    lines = [line for line in page.splitlines() if line]
    wellformed = all(
        line.startswith("# ") or sample_re.match(line) for line in lines
    )
    required = (
        "repro_rebalance_latency_seconds",
        "repro_stats_supervisor_failovers",
        "repro_stats_supervisor_shed_requests",
        "repro_uptime_seconds",
    )
    required_present = all(name in page for name in required)

    decisions = n_sessions * n_rounds
    overhead = round(lit_s / dark_s, 3)
    return {
        "sessions": n_sessions,
        "rounds": n_rounds,
        "paths": [
            {
                "name": "serving_obs_disabled_dispatch",
                "decisions": decisions,
                "seconds": round(dark_s, 4),
                "decisions_per_sec": round(decisions / dark_s, 1),
            },
            {
                "name": "serving_obs_enabled_dispatch",
                "decisions": decisions,
                "seconds": round(lit_s, 4),
                "decisions_per_sec": round(decisions / lit_s, 1),
            },
        ],
        "disabled_bit_identical": {
            "sweep": bool(sweep_identical),
            "serving": bool(serving_identical),
        },
        "overhead_enabled_vs_disabled": overhead,
        "overhead_budget": 1.1,
        "metrics_endpoint": {
            "wellformed": bool(wellformed),
            "lines": len(lines),
            "required": list(required),
            "required_present": bool(required_present),
            "served_before_first_request": bool(first_page),
        },
    }


def bench_load(n_assets: int, n_sessions: int, n_rounds: int) -> Dict:
    """Supervised multi-worker serving under load: ramp, sustained
    throughput, single-worker parity, and a chaos leg.

    Four runs over the same two-market session population:

    * **two workers, healthy** — session-creation ramp (creates/sec)
      followed by sustained ``rebalance_many`` rounds (p50/p99 round
      latency, decisions/sec) against a 2-worker
      :class:`~repro.serving.ServingSupervisor`, markets chosen so each
      worker owns one panel.
    * **one worker, no fault plan** — the ISSUE's invariant, gated
      under ``--check``: responses must be bit-identical (JSON
      payloads) to a plain in-process
      :class:`~repro.serving.PortfolioService`.
    * **plain service** — the in-process reference the parity leg is
      compared against.
    * **chaos** — the same 2-worker run with a deterministic
      ``serving.worker_crash`` fault killing one worker mid-run; must
      complete with ``worker_restarts >= 1``, zero lost sessions, and
      responses bit-identical to the healthy 2-worker run, then drain
      every session cleanly.
    """
    import tempfile

    from repro.resilience import FaultPlan, ServingFaults
    from repro.serving import ServingSupervisor
    from repro.utils.rng import stable_hash

    params = {"observation": OBSERVATION, **AGENT_PARAMS}
    decisions = n_sessions * n_rounds

    # Two markets whose stable hashes route to distinct workers of a
    # 2-worker supervisor, so both shards carry load.
    names: Dict[int, str] = {}
    for i in range(64):
        candidate = f"panel-{i}"
        names.setdefault(stable_hash(candidate) % 2, candidate)
        if len(names) == 2:
            break
    markets = {
        names[owner]: MarketGenerator(seed=500 + owner)
        .generate("2019/01/01", "2019/02/01", 7200)
        .select_assets(list(range(n_assets)))
        for owner in sorted(names)
    }
    market_names = sorted(markets)

    def session_market(i: int) -> str:
        return market_names[i % len(market_names)]

    def run_supervised(workers: int, faults=None):
        """Ramp + sustained rounds through a supervisor; returns the
        response JSON payloads plus timing and failover counters."""
        with tempfile.TemporaryDirectory() as tmp:
            sup = ServingSupervisor(Path(tmp) / "state", workers=workers, faults=faults)
            try:
                for name, panel in markets.items():
                    sup.register_market(name, panel)
                t0 = time.perf_counter()
                for i in range(n_sessions):
                    sup.create_session(
                        f"s{i}", strategy="sdp", params=params,
                        market=session_market(i),
                    )
                ramp_s = time.perf_counter() - t0
                requests = [RebalanceRequest(f"s{i}") for i in range(n_sessions)]
                responses = []
                round_lat: List[float] = []
                t0 = time.perf_counter()
                for _ in range(n_rounds):
                    r0 = time.perf_counter()
                    responses.extend(
                        r.to_json_dict() for r in sup.rebalance_many(requests)
                    )
                    round_lat.append(time.perf_counter() - r0)
                sustained_s = time.perf_counter() - t0
                drain = sup.drain(timeout=60.0)
                return {
                    "responses": responses,
                    "ramp_s": ramp_s,
                    "sustained_s": sustained_s,
                    "round_lat": round_lat,
                    "restarts": sup.stats.worker_restarts,
                    "failovers": sup.stats.failovers,
                    "sessions": len(sup.session_ids()),
                    "drained": drain["sessions_checkpointed"],
                    "exit_codes": [w["exit_code"] for w in drain["workers"]],
                }
            finally:
                sup.close()

    healthy = run_supervised(workers=2)
    single = run_supervised(workers=1)

    # In-process reference for the single-worker parity gate.
    service = PortfolioService()
    for name, panel in markets.items():
        service.register_market(name, panel)
    for i in range(n_sessions):
        service.create_session(
            f"s{i}", strategy="sdp", params=params, market=session_market(i)
        )
    requests = [RebalanceRequest(f"s{i}") for i in range(n_sessions)]
    plain_responses = []
    plain_lat: List[float] = []
    t0 = time.perf_counter()
    for _ in range(n_rounds):
        r0 = time.perf_counter()
        plain_responses.extend(
            r.to_json_dict() for r in service.rebalance_many(requests)
        )
        plain_lat.append(time.perf_counter() - r0)
    plain_s = time.perf_counter() - t0
    single_identical = single["responses"] == plain_responses

    # Chaos: kill the worker owning the first market mid-run (batch ids
    # are 0-based and monotonic per worker, one batch per round here).
    crash_worker = stable_hash(market_names[0]) % 2
    crash_batch = max(1, n_rounds // 2)
    plan = FaultPlan(
        seed=0,
        serving=ServingFaults(worker_crash_batches=((crash_worker, crash_batch),)),
    )
    chaos = run_supervised(workers=2, faults=plan)
    chaos_identical = chaos["responses"] == healthy["responses"]
    lost_sessions = n_sessions - chaos["sessions"]

    return {
        "sessions": n_sessions,
        "rounds": n_rounds,
        "markets": {
            name: stable_hash(name) % 2 for name in market_names
        },
        "ramp": {
            "sessions": n_sessions,
            "seconds": round(healthy["ramp_s"], 4),
            "creates_per_sec": round(n_sessions / healthy["ramp_s"], 1),
        },
        "paths": [
            _stats(
                "load_two_workers", decisions,
                healthy["sustained_s"], healthy["round_lat"],
            ),
            _stats(
                "load_single_worker", decisions,
                single["sustained_s"], single["round_lat"],
            ),
            _stats("load_in_process", decisions, plain_s, plain_lat),
        ],
        "single_worker_bit_identical": bool(single_identical),
        "overhead_single_worker_vs_in_process": round(
            single["sustained_s"] / plain_s, 2
        ),
        "chaos": {
            "plan": (
                f"serving.worker_crash at worker {crash_worker}, "
                f"batch {crash_batch}"
            ),
            "completed": True,
            "worker_restarts": chaos["restarts"],
            "failovers": chaos["failovers"],
            "lost_sessions": int(lost_sessions),
            "responses_bit_identical": bool(chaos_identical),
            "sessions_drained": chaos["drained"],
            "worker_exit_codes": chaos["exit_codes"],
        },
    }


def bench_serving(panel, n_assets: int, n_sessions: int, n_rounds: int) -> Dict:
    params = {"observation": OBSERVATION, **AGENT_PARAMS}

    def build():
        service = PortfolioService()
        service.register_market("bench", panel)
        for i in range(n_sessions):
            service.create_session(f"s{i}", strategy="sdp", params=params, market="bench")
        return service

    # Micro-batched rounds: one panel-grouped prepare + one fused
    # forward per round for all sessions.
    service = build()
    requests = [RebalanceRequest(f"s{i}") for i in range(n_sessions)]
    round_lat: List[float] = []
    t0 = time.perf_counter()
    for _ in range(n_rounds):
        r0 = time.perf_counter()
        service.rebalance_many(requests)
        round_lat.append(time.perf_counter() - r0)
    batched_s = time.perf_counter() - t0

    # One-by-one: the same decisions as singleton batches.
    service_single = build()
    single_lat: List[float] = []
    t0 = time.perf_counter()
    single_responses = []
    for _ in range(n_rounds):
        for i in range(n_sessions):
            r0 = time.perf_counter()
            single_responses.append(service_single.rebalance(f"s{i}"))
            single_lat.append(time.perf_counter() - r0)
    single_s = time.perf_counter() - t0

    # Parity: round r, session i decisions must agree between modes
    # (replayed on a fresh service so timing noise cannot leak in).
    identical = True
    service_check = build()
    check_responses = []
    for _ in range(n_rounds):
        check_responses.extend(service_check.rebalance_many(requests))
    for a, b in zip(check_responses, single_responses):
        if a.t != b.t or not np.array_equal(a.weights, b.weights):
            identical = False
            break

    decisions = n_sessions * n_rounds
    return {
        "sessions": n_sessions,
        "rounds": n_rounds,
        "paths": [
            _stats("serving_microbatched", decisions, batched_s, round_lat),
            _stats("serving_one_by_one", decisions, single_s, single_lat),
        ],
        "weights_bit_identical": bool(identical),
        "speedup_batched_vs_one_by_one": round(single_s / batched_s, 2),
        "stats": service.stats.to_json_dict(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--panels", type=int, default=16)
    parser.add_argument("--assets", type=int, default=4)
    parser.add_argument("--sessions", type=int, default=32)
    parser.add_argument("--rounds", type=int, default=50)
    parser.add_argument(
        "--train-steps",
        type=int,
        default=200,
        help="training steps per path (>= 200 for the parity gate)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless fused and graph paths are bit-identical",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_throughput.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    panels = make_panels(args.panels, args.assets)
    backtest = bench_backtest(panels, args.assets)
    execution = bench_execution(panels, args.assets)
    risk = bench_risk(panels, args.assets)
    serving = bench_serving(panels[0], args.assets, args.sessions, args.rounds)
    resilience = bench_resilience(args.assets, args.sessions, args.rounds)
    observability = bench_observability(args.assets, args.sessions, args.rounds)
    load = bench_load(args.assets, args.sessions, args.rounds)
    train_panel = make_training_panel(args.assets)
    training = bench_training(train_panel, args.train_steps)
    multiseed = bench_training_multiseed(train_panel, args.train_steps)

    report = {
        "bench": "throughput",
        "config": {
            "panels": args.panels,
            "assets": args.assets,
            "periods_per_panel": panels[0].n_periods,
            "observation_window": OBSERVATION.window,
            "network": "SharedSDP (128, 128), T=5",
        },
        "backtest": backtest,
        "execution": execution,
        "risk": risk,
        "serving": serving,
        "resilience": resilience,
        "observability": observability,
        "load": load,
        "training": training,
        "training_multiseed": multiseed,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    for section in ("backtest", "execution", "risk", "serving", "load"):
        for path in report[section]["paths"]:
            print(
                f"{path['name']:32s} {path['decisions_per_sec']:>9.1f} dec/s   "
                f"p50 {path['p50_ms']:.3f} ms   p99 {path['p99_ms']:.3f} ms"
            )
    for path in training["paths"]:
        print(
            f"{path['name']:32s} {path['steps_per_sec']:>9.1f} steps/s  "
            f"p50 {path['p50_ms']:.3f} ms   p99 {path['p99_ms']:.3f} ms"
        )
    print(
        f"backtest speedup (fused batched vs seed graph): "
        f"{backtest['speedup_fused_batched_vs_graph']}x; "
        f"bit-identical: {backtest['weights_bit_identical']}"
    )
    print(
        f"serving speedup (micro-batched vs one-by-one): "
        f"{serving['speedup_batched_vs_one_by_one']}x; "
        f"bit-identical: {serving['weights_bit_identical']}"
    )
    print(
        f"execution overhead (zero/linear/depth vs none): "
        f"{execution['overhead_zero_vs_none']}x / "
        f"{execution['overhead_linear_vs_none']}x / "
        f"{execution['overhead_depth_vs_none']}x; "
        f"zero bit-identical: {execution['zero_bit_identical']}"
    )
    print(
        f"risk overhead (none/caps/lockout vs no engine): "
        f"{risk['overhead_none_vs_no_engine']}x / "
        f"{risk['overhead_caps_vs_no_engine']}x / "
        f"{risk['overhead_lockout_vs_no_engine']}x; "
        f"none bit-identical: {risk['none_bit_identical']}"
    )
    print(
        f"training speedup (fused vs seed): "
        f"{training['speedup_fused_vs_seed']}x "
        f"(vs current graph path: {training['speedup_fused_vs_graph']}x); "
        f"bit-identical weights+PVM after {args.train_steps} steps: "
        f"{training['weights_bit_identical']}"
    )
    for path in multiseed["paths"] + multiseed["backend"]["paths"]:
        print(
            f"{path['name']:32s} {path['seed_steps_per_sec']:>9.1f} seed-steps/s  "
            f"S={path['seeds']:<3d} {path['speedup_vs_serial']}x vs serial"
        )
    ms_backend = multiseed["backend"]
    print(
        f"multiseed training (reference, S={max(MULTISEED_COUNTS)}): "
        f"{multiseed['speedup_reference_max_seeds']}x vs serial; "
        f"per-seed weights+PVM bit-identical: "
        f"{multiseed['weights_bit_identical']}; fast tier "
        f"{ms_backend['paths'][0]['speedup_vs_serial']}x, max weight dev "
        f"{ms_backend['max_abs_weight_deviation']:.2e} "
        f"(tol {ms_backend['tolerance']:.0e}, excluded from parity gate)"
    )
    chaos = load["chaos"]
    print(
        f"load ramp: {load['ramp']['creates_per_sec']} creates/s; "
        f"single-worker bit-identical to in-process: "
        f"{load['single_worker_bit_identical']} "
        f"({load['overhead_single_worker_vs_in_process']}x overhead)"
    )
    print(
        f"load chaos ({chaos['plan']}): restarts {chaos['worker_restarts']}, "
        f"failovers {chaos['failovers']}, lost sessions "
        f"{chaos['lost_sessions']}, responses bit-identical: "
        f"{chaos['responses_bit_identical']}, drained "
        f"{chaos['sessions_drained']}/{load['sessions']}"
    )
    parity = resilience["no_plan_bit_identical"]
    print(
        f"resilience no-plan parity (backtest/sweep/serving): "
        f"{parity['backtest']} / {parity['sweep']} / {parity['serving']}; "
        f"hardened dispatch overhead: "
        f"{resilience['overhead_resilient_vs_plain']}x "
        f"(budget {resilience['overhead_budget']}x)"
    )
    obs_parity = observability["disabled_bit_identical"]
    obs_metrics = observability["metrics_endpoint"]
    print(
        f"observability disabled parity (sweep/serving): "
        f"{obs_parity['sweep']} / {obs_parity['serving']}; enabled "
        f"dispatch overhead: "
        f"{observability['overhead_enabled_vs_disabled']}x "
        f"(budget {observability['overhead_budget']}x); /metrics "
        f"wellformed: {obs_metrics['wellformed']} "
        f"({obs_metrics['lines']} lines, required families present: "
        f"{obs_metrics['required_present']})"
    )
    print(f"wrote {args.out}")

    if args.check:
        # The multiseed gate covers the reference backend only: the
        # float32 tier is benchmarked above but must never stand in
        # for the bit-identical float64 path in any parity check.
        ok = (
            backtest["weights_bit_identical"]
            and serving["weights_bit_identical"]
            and training["weights_bit_identical"]
            and multiseed["weights_bit_identical"]
            and execution["zero_bit_identical"]
            and risk["none_bit_identical"]
        )
        if not ok:
            print("PARITY MISMATCH: fused path diverged from graph path", file=sys.stderr)
            return 1
        if not all(parity.values()):
            print(
                "RESILIENCE PARITY MISMATCH: no-plan hardened path diverged "
                f"from the unhardened one ({parity})",
                file=sys.stderr,
            )
            return 1
        if resilience["overhead_resilient_vs_plain"] > resilience["overhead_budget"]:
            print(
                "RESILIENCE OVERHEAD: hardened serving dispatch cost "
                f"{resilience['overhead_resilient_vs_plain']}x the plain path "
                f"(budget {resilience['overhead_budget']}x)",
                file=sys.stderr,
            )
            return 1
        if not all(obs_parity.values()):
            print(
                "OBSERVABILITY PARITY MISMATCH: the obs-enabled run "
                f"diverged from the disabled one ({obs_parity})",
                file=sys.stderr,
            )
            return 1
        if (
            observability["overhead_enabled_vs_disabled"]
            > observability["overhead_budget"]
        ):
            print(
                "OBSERVABILITY OVERHEAD: obs-enabled serving dispatch cost "
                f"{observability['overhead_enabled_vs_disabled']}x the "
                f"disabled path (budget {observability['overhead_budget']}x)",
                file=sys.stderr,
            )
            return 1
        if not (obs_metrics["wellformed"] and obs_metrics["required_present"]):
            print(
                "OBSERVABILITY METRICS ENDPOINT: /metrics invalid or "
                f"missing required families ({obs_metrics})",
                file=sys.stderr,
            )
            return 1
        if not load["single_worker_bit_identical"]:
            print(
                "LOAD PARITY MISMATCH: single-worker supervisor diverged "
                "from the in-process service",
                file=sys.stderr,
            )
            return 1
        if not (
            chaos["responses_bit_identical"]
            and chaos["worker_restarts"] >= 1
            and chaos["lost_sessions"] == 0
            and chaos["sessions_drained"] == load["sessions"]
        ):
            print(
                "LOAD CHAOS FAILURE: crash failover lost work "
                f"({chaos})",
                file=sys.stderr,
            )
            return 1
        print("parity check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
