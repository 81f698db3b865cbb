"""§III.B ablation — the T trade-off.

"There is a trade-off for performance cost between SNN's with different
timesteps, indicating that the larger the T, the better the performance
cost, but the higher the energy cost."  This bench sweeps
T ∈ {1, 2, 5, 10, 20} on a trained SDP and reports (a) action fidelity
against a high-T reference (performance proxy) and (b) dynamic energy
per inference from the event-driven model.
"""

import numpy as np
from conftest import record

from repro.experiments import make_config, run_experiment
from repro.loihi import LoihiDeviceModel
from repro.utils import format_table

SWEEP = (1, 2, 5, 10, 20)
REFERENCE_T = 40


def sweep_timesteps():
    cfg = make_config(1, profile="standard", train_steps=150)
    result = run_experiment(cfg, strategies=("sdp",))
    agent = result.sdp_agent

    test = result.test_data
    first = cfg.observation.first_decision_index()
    indices = np.linspace(first, test.n_periods - 2, num=32, dtype=np.int64)
    uniform = np.full((32, test.n_assets + 1), 1.0 / (test.n_assets + 1))
    states = agent.prepare_states(test, indices, uniform)

    reference = agent.network.forward_inference(states, timesteps=REFERENCE_T)
    device = LoihiDeviceModel()
    results = []
    for t in SWEEP:
        actions, activity = agent.network.forward_inference_with_activity(
            states, timesteps=t
        )
        err = float(np.abs(actions - reference).sum(axis=1).mean())
        agree = float((np.argmax(actions, 1) == np.argmax(reference, 1)).mean())
        energy = device.dynamic_energy_per_inference(activity)
        results.append((t, agree, err, energy * 1e9))
    return results


def test_ablation_timesteps(benchmark):
    results = benchmark.pedantic(sweep_timesteps, rounds=1, iterations=1)

    rows = [
        (t, f"{agree:.3f}", f"{err:.4f}", f"{nj:.1f}")
        for t, agree, err, nj in results
    ]
    table = format_table(
        ["T", f"Argmax agreement vs T={REFERENCE_T}", "L1 action error",
         "Dynamic energy (nJ/inf)"],
        rows,
        title="§III.B ablation — T vs performance vs energy "
        "(paper: larger T = better actions, more energy)",
    )
    record("ablation_timesteps", table)

    energies = [nj for *_, nj in results]
    errors = [err for _, _, err, _ in results]
    # Energy strictly grows with T; fidelity improves from T=1 to T=20.
    assert all(a < b for a, b in zip(energies, energies[1:]))
    assert errors[-1] < errors[0]
