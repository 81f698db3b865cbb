"""Fig. 2 — SDP deployed on the (simulated) Loihi processor.

Reproduces the §II.D deployment pipeline: eq. (14) rescaling to 8-bit
weights/thresholds, core placement, fixed-point execution, and
float-vs-chip action fidelity — "all hyperparameters are the same values
set at train time".
"""

import numpy as np
from conftest import record

from repro.experiments import make_config, run_experiment
from repro.loihi import deploy
from repro.utils import format_table


def train_and_deploy():
    cfg = make_config(1, profile="standard", train_steps=150)
    result = run_experiment(cfg, strategies=("sdp",))
    agent = result.sdp_agent

    test = result.test_data
    first = cfg.observation.first_decision_index()
    indices = np.linspace(first, test.n_periods - 2, num=48, dtype=np.int64)
    uniform = np.full((48, test.n_assets + 1), 1.0 / (test.n_assets + 1))
    states = agent.prepare_states(test, indices, uniform)

    deployment = deploy(agent.network)
    agreement = deployment.agreement(states)
    profile = deployment.profile(states)
    return deployment, agreement, profile


def test_fig2_loihi_deployment(benchmark):
    deployment, agreement, profile = benchmark.pedantic(
        train_and_deploy, rounds=1, iterations=1
    )

    q = deployment.quantized
    rows = [
        ("Quantized layers", len(q.layers)),
        ("Weight grid", "8-bit signed, step 2, |w| <= 254 (eq. 14)"),
        ("Per-layer rescale ratios",
         ", ".join(f"{l.ratio:.1f}" for l in q.layers)),
        ("Neurons on chip", q.num_neurons),
        ("Synapses on chip", q.num_synapses),
        ("Cores used", deployment.placement.cores_used),
        ("Argmax agreement (chip vs float)",
         f"{agreement.argmax_agreement:.3f}"),
        ("Mean L1 action error", f"{agreement.mean_l1_action_error:.4f}"),
        ("Energy per inference", f"{profile.nj_per_inference:.1f} nJ"),
        ("Inference rate", f"{profile.inferences_per_s:.2f} inf/s"),
    ]
    record(
        "fig2_loihi_deployment",
        format_table(["Quantity", "Value"], rows,
                     title="Fig. 2 (measured) — SDP on the simulated Loihi"),
    )

    assert deployment.placement.fits()
    assert agreement.argmax_agreement >= 0.7
    for layer in q.layers:
        assert np.all(np.abs(layer.weight) <= 254)
        assert layer.v_threshold > 0
