"""Fig. 1 — SDP training (population encoder → LIF stack → decoder).

The paper's Fig. 1 shows the SDP architecture and its training loop.
This bench regenerates the quantitative content: the training-reward
trajectory of the STBP/eq.-(1) loop, demonstrating that the spiking
policy's average log-return improves with training (the property Fig. 1
illustrates and §I claims DNN-based policies lack).
"""

import numpy as np
from conftest import record

from repro.experiments import make_config, run_experiment
from repro.utils import format_table


def train():
    cfg = make_config(1, profile="standard", train_steps=400)
    return run_experiment(cfg, strategies=("sdp",)).sdp_history


def test_fig1_training_convergence(benchmark):
    history = benchmark.pedantic(train, rounds=1, iterations=1)

    rows = [
        (step, f"{loss:+.6f}", f"{reward:+.6f}")
        for step, loss, reward in zip(history.steps, history.loss, history.reward)
    ]
    table = format_table(
        ["Step", "Loss (−R)", "Batch reward R"],
        rows,
        title="Fig. 1 (measured) — SDP training trajectory "
        "(reward = average log-return of eq. (1))",
    )
    early = np.mean(history.reward[:2])
    late = np.mean(history.reward[-2:])
    table += f"\nEarly reward {early:+.6f} -> late reward {late:+.6f}"
    record("fig1_training_convergence", table)

    # The learning claim: reward improves over training.
    assert late > early
