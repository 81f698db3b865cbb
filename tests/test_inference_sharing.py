"""Inference beside training and beside other callers.

The non-recording SDP forward reads its operands off the live
parameters and allocates its buffers per call.  These tests pin the two
hazards that contract exists for:

* *shared storage* — a trainer's seed bank owns the parameters'
  storage; deciding between train steps (walk-forward back-tests do)
  must neither take that storage nor touch the training tape, so the
  trainer keeps its bank and ends bit-identical to an uninterleaved
  twin;
* *concurrency* — one stateless agent serves concurrent callers
  (serving batches share it), so every call must equal the serial one.
"""

import sys
import threading

import numpy as np
import pytest

from repro.agents import MultiSeedTrainer, PolicyTrainer, SDPAgent, TrainConfig
from repro.autograd.optim import Adam
from repro.data import MarketGenerator
from repro.envs import ObservationConfig

CFG = ObservationConfig(window=6, stride=1, momentum_horizons=(1, 3, 6))
N_ASSETS = 4
TRAIN = TrainConfig(steps=12, batch_size=8, permute_assets=True)


@pytest.fixture(scope="module")
def panel():
    return (
        MarketGenerator(seed=31)
        .generate("2019/01/01", "2019/02/01", 7200)
        .select_assets(list(range(N_ASSETS)))
    )


def _agent(seed, architecture, hidden_sizes=(8, 8), pop_size=2, timesteps=3):
    return SDPAgent(
        N_ASSETS, observation=CFG, architecture=architecture,
        hidden_sizes=hidden_sizes, timesteps=timesteps,
        encoder_pop_size=pop_size, decoder_pop_size=pop_size, seed=seed,
    )


def _states(agent, panel, batch=5, first=20):
    idx = np.arange(first, first + batch)
    w_prev = np.full((batch, N_ASSETS + 1), 1.0 / (N_ASSETS + 1))
    return agent.prepare_states(panel, idx, w_prev)


def _train(make_trainer, agents, panel, interleave):
    trainer = make_trainer(agents)
    bank = trainer._bank
    states = [_states(agent, panel) for agent in agents]
    for _ in range(TRAIN.steps):
        trainer.train_step()
        if interleave:
            for agent, s in zip(agents, states):
                decided = agent.decide_batch(s)
                # The decision reads the weights the trainer just wrote.
                assert np.array_equal(decided, agent.network.forward(s).data)
        assert trainer._bank is bank
    weights = [
        {k: v.copy() for k, v in agent.network.state_dict().items()}
        for agent in agents
    ]
    pvms = [pvm.snapshot() for pvm in trainer.pvms]
    return weights, pvms


def _multiseed(panel):
    def make(agents):
        return MultiSeedTrainer(
            agents, panel, [Adam(a.parameters(), 1e-3) for a in agents],
            observation=CFG, config=TRAIN, seeds=[3, 11],
        )
    return make, (3, 11)


def _serial(panel):
    def make(agents):
        (agent,) = agents
        return PolicyTrainer(
            agent, panel, Adam(agent.parameters(), 1e-3),
            observation=CFG, config=TRAIN, seed=3,
        )
    return make, (3,)


@pytest.mark.parametrize("front", [_multiseed, _serial])
@pytest.mark.parametrize("architecture", ["shared", "monolithic"])
def test_deciding_between_train_steps_leaves_training_untouched(
    panel, architecture, front
):
    make, seeds = front(panel)
    plain = _train(make, [_agent(s, architecture) for s in seeds], panel, False)
    mixed = _train(make, [_agent(s, architecture) for s in seeds], panel, True)
    for (w_plain, w_mixed) in zip(plain[0], mixed[0]):
        assert set(w_plain) == set(w_mixed)
        for k in w_plain:
            assert np.array_equal(w_plain[k], w_mixed[k]), k
    for p_plain, p_mixed in zip(plain[1], mixed[1]):
        assert np.array_equal(p_plain, p_mixed)


@pytest.mark.parametrize("architecture", ["shared", "monolithic"])
def test_concurrent_decide_batch_equals_serial(panel, architecture):
    # Wide enough that every row decides differently, so a call that
    # read another call's buffers cannot match by chance; long enough
    # that the threads switch inside one another's unrolls.
    agent = _agent(
        5, architecture, hidden_sizes=(64, 64), pop_size=6, timesteps=8
    )
    batches = [
        _states(agent, panel, batch, first)
        for batch, first in ((1, 20), (16, 30), (16, 60), (33, 90))
    ]
    expected = [agent.decide_batch(s) for s in batches]
    results = [[] for _ in batches]
    start = threading.Barrier(len(batches))

    def worker(i):
        start.wait()
        for _ in range(25):
            results[i].append(agent.decide_batch(batches[i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads finely
    try:
        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(len(batches))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, want in enumerate(expected):
        assert len(results[i]) == 25
        for got in results[i]:
            assert np.array_equal(got, want)
