"""Bench-scale inputs shared by the parity gates.

Most parity tests run on small networks and short panels.  The cases
built from these fixtures repeat the gates at the scale the paper's
agent runs at: for inference and serving, a SharedSDP (128, 128),
T = 5 network over 4-asset panels of a month of 2-hour candles; for
training, 200 steps of a SharedSDP (32, 32) network over a year of
30-minute candles.
"""

import pytest

from repro.agents import SDPAgent
from repro.data import MarketGenerator
from repro.envs import Backtester, ObservationConfig

BENCH_OBSERVATION = ObservationConfig(window=6, stride=1, momentum_horizons=(1, 3, 6))


@pytest.fixture(scope="session")
def bench_sdp_params():
    """Keyword arguments of the (128, 128) SDP agent, ``observation``
    included, as ``SDPAgent(4, **params)`` or a session's ``params``."""
    return dict(
        observation=BENCH_OBSERVATION,
        hidden_sizes=(128, 128),
        timesteps=5,
        encoder_pop_size=10,
        decoder_pop_size=10,
        seed=0,
    )


@pytest.fixture(scope="session")
def bench_panels():
    return [
        MarketGenerator(seed=100 + i)
        .generate("2019/01/01", "2019/02/01", 7200)
        .select_assets([0, 1, 2, 3])
        for i in range(4)
    ]


@pytest.fixture(scope="session")
def bench_backtests(bench_panels, bench_sdp_params):
    """The no-engine lockstep back-test of the bench agent over
    ``bench_panels``: the reference the execution, risk and graph-path
    gates compare against."""
    agent = SDPAgent(4, **bench_sdp_params)
    observation = bench_sdp_params["observation"]
    return Backtester(observation=observation).run_many(agent, bench_panels)


@pytest.fixture(scope="session")
def bench_train_panel():
    """A year of 30-minute candles (Table 1), so per-step panel handling
    weighs what it does in the experiment grid."""
    return (
        MarketGenerator(seed=7)
        .generate("2018/01/01", "2019/01/01", 1800)
        .select_assets([0, 1, 2, 3])
    )


@pytest.fixture(scope="session")
def bench_trainee():
    """Factory of the training gates' agent, SharedSDP (32, 32), T = 5:
    ``bench_trainee(seed)``."""

    def make(seed):
        return SDPAgent(
            4,
            observation=BENCH_OBSERVATION,
            hidden_sizes=(32, 32),
            timesteps=5,
            encoder_pop_size=4,
            decoder_pop_size=4,
            surrogate_amplifier=5.0,
            seed=seed,
        )

    return make
