"""The offline workloads: ``backtest`` and ``train``.

A workload builds its inputs from the seed in ``setup``, does one unit
of client-visible work per ``round`` and returns ``(attempted, failed)``
decisions, and checks its outputs in ``check`` after the timed region.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.agents import MultiSeedTrainer, PolicyTrainer, SDPAgent, TrainConfig
from repro.autograd.optim import SGD
from repro.data import MarketGenerator
from repro.envs import Backtester, ObservationConfig
from repro.execution import ExecutionEngine, LinearImpact
from repro.experiments import risk_regime_preset

OBSERVATION = ObservationConfig(window=6, stride=1, momentum_horizons=(1, 3, 6))
N_ASSETS = 4
# The inference network of bench_throughput.py: SharedSDP (128, 128), T=5.
INFERENCE_AGENT = dict(
    hidden_sizes=(128, 128),
    timesteps=5,
    encoder_pop_size=10,
    decoder_pop_size=10,
    seed=0,
)


def make_panel(seed: int, start: str, end: str, period: int):
    return (
        MarketGenerator(seed=seed)
        .generate(start, end, period)
        .select_assets(list(range(N_ASSETS)))
    )


class Backtest:
    """``Backtester.run_many`` of one SharedSDP agent over 16 synthetic
    4-asset panels, with the ``caps`` risk preset and a ``LinearImpact``
    execution engine.  One round back-tests all 16 panels in lockstep;
    panels are three days of 2-hour candles so that a run holds enough
    rounds for its latency percentiles."""

    name = "backtest"
    warmup_rounds = 2
    trace_rounds = 20
    tracer = None
    N_PANELS = 16
    SPAN = ("2019/01/01", "2019/01/04", 7200)

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.panels = [
            make_panel(seed * 1000 + i, *self.SPAN) for i in range(self.N_PANELS)
        ]
        self.agent = SDPAgent(N_ASSETS, observation=OBSERVATION, **INFERENCE_AGENT)
        self.engine = Backtester(
            observation=OBSERVATION,
            risk=risk_regime_preset("caps").build_engine(),
            execution=ExecutionEngine(LinearImpact(10.0), portfolio_notional=1e6),
        )
        # Only the first round's outputs are kept, so that memory does
        # not grow with the number of rounds.
        self.first: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None
        self.matched = 0

    def round(self) -> Tuple[int, int]:
        """A round that differs from the first fails."""
        results = self.engine.run_many(self.agent, self.panels)
        outputs = [(r.weights, r.values) for r in results]
        decisions = sum(len(w) for w, _ in outputs)
        if self.first is None:
            self.first = outputs
        elif not all(
            np.array_equal(w, w0) and np.array_equal(v, v0)
            for (w, v), (w0, v0) in zip(outputs, self.first)
        ):
            return decisions, decisions
        self.matched += decisions
        return decisions, 0

    def start_measuring(self) -> None:
        self.matched = 0

    def check(self) -> int:
        """Failed decisions: unless the first round equals a per-panel
        ``Backtester.run`` of a sampled panel, every measured round that
        matched the first fails too."""
        pick = int(np.random.default_rng(self.seed).integers(self.N_PANELS))
        reference = self.engine.run(self.agent, self.panels[pick])
        weights, values = self.first[pick]
        if np.array_equal(reference.weights, weights) and np.array_equal(
            reference.values, values
        ):
            return 0
        return self.matched

    def worker_pids(self) -> List[int]:
        return []

    def extras(self) -> Dict[str, float]:
        return {}

    def teardown(self) -> None:
        pass


# Table 1/2 sizing: a year of 30-minute candles, batch 32, SGD at the
# paper's learning rate, SharedSDP (32, 32), asset permutation on.
TRAIN_AGENT = dict(
    hidden_sizes=(32, 32),
    timesteps=5,
    encoder_pop_size=4,
    decoder_pop_size=4,
    surrogate_amplifier=5.0,
)
TRAIN_BATCH = 32
TRAIN_LR = 1e-5
TRAIN_SEEDS = 4


class Train:
    """A serial ``PolicyTrainer`` (seed 0) beside a ``MultiSeedTrainer``
    over seeds 0..3 on the same panel.  One round is one step of each, so
    both phases take the same number of steps and the bank's seed 0 must
    end bit-identical to the serial trainer."""

    name = "train"
    warmup_rounds = 20
    trace_rounds = 300
    tracer = None

    def setup(self, seed: int) -> None:
        panel = make_panel(seed, "2018/01/01", "2019/01/01", 1800)
        config = TrainConfig(
            steps=10**9, batch_size=TRAIN_BATCH, permute_assets=True
        )

        def agent(s: int) -> SDPAgent:
            return SDPAgent(N_ASSETS, observation=OBSERVATION, seed=s, **TRAIN_AGENT)

        self.serial_agent = agent(0)
        self.serial = PolicyTrainer(
            self.serial_agent,
            panel,
            SGD(self.serial_agent.parameters(), TRAIN_LR),
            observation=OBSERVATION,
            config=config,
            seed=0,
            use_fused=True,
        )
        self.bank_agents = [agent(s) for s in range(TRAIN_SEEDS)]
        self.bank = MultiSeedTrainer(
            self.bank_agents,
            panel,
            [SGD(a.parameters(), TRAIN_LR) for a in self.bank_agents],
            observation=OBSERVATION,
            config=config,
            seeds=list(range(TRAIN_SEEDS)),
        )
        self.start_measuring()

    def start_measuring(self) -> None:
        self.steps = 0
        self.passed = 0
        self.serial_s = 0.0
        self.bank_s = 0.0

    def round(self) -> Tuple[int, int]:
        t0 = time.perf_counter()
        stats = self.serial.train_step()
        t1 = time.perf_counter()
        self.bank.train_step()
        t2 = time.perf_counter()
        self.serial_s += t1 - t0
        self.bank_s += t2 - t1
        self.steps += 1
        decisions = TRAIN_BATCH * (1 + TRAIN_SEEDS)
        if not np.isfinite(stats["loss"]):
            return decisions, decisions
        self.passed += decisions
        return decisions, 0

    def check(self) -> int:
        """Unless the bank's seed 0 ends with the serial trainer's
        weights and PVM, bit for bit, every measured decision that
        passed its round fails."""
        serial = self.serial_agent.network.state_dict()
        banked = self.bank_agents[0].network.state_dict()
        same = serial.keys() == banked.keys() and all(
            np.array_equal(serial[k], banked[k]) for k in serial
        )
        same = same and np.array_equal(
            self.serial.pvm.snapshot(), self.bank.pvms[0].snapshot()
        )
        return 0 if same else self.passed

    def worker_pids(self) -> List[int]:
        return []

    def extras(self) -> Dict[str, float]:
        return {
            "agents.trainer.steps_per_s": self.steps / self.serial_s,
            "agents.multiseed.seed_steps_per_s": TRAIN_SEEDS * self.steps / self.bank_s,
        }

    def teardown(self) -> None:
        pass
