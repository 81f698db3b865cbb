"""Deploy a trained spiking policy to the simulated Loihi chip.

Reproduces the paper's §II.D / Fig. 2 flow:

1. train the SDP policy in float,
2. rescale weights and thresholds to the 8-bit chip grid (eq. (14)),
3. place it on neuromorphic cores,
4. run fixed-point integer inference and compare against the float net,
5. estimate energy per inference and contrast with CPU/GPU (Table 4).

Run:  python examples/loihi_deployment.py
"""

import numpy as np

from repro.experiments import build_experiment_data, make_config, train_sdp_agent
from repro.loihi import (
    deploy,
    energy_reduction_ratio,
    paper_cpu_model,
    paper_gpu_model,
)
from repro.utils import format_table


def main() -> None:
    config = make_config(1, profile="quick", train_steps=100)
    data = build_experiment_data(config)
    print("Training SDP...")
    agent, _ = train_sdp_agent(config, data)

    print("Quantizing to the Loihi grid (eq. (14)) and placing on cores...")
    deployment = deploy(agent.network)
    q = deployment.quantized
    print(f"  layers: {[l.weight.shape for l in q.layers]}")
    print(f"  rescale ratios r^(k): "
          f"{[round(l.ratio, 1) for l in q.layers]}")
    print(f"  {q.num_neurons} neurons / {q.num_synapses} synapses on "
          f"{deployment.placement.cores_used} core(s)\n")

    # Representative back-test states.
    test = data.test
    first = config.observation.first_decision_index()
    indices = np.linspace(first, test.n_periods - 2, num=64, dtype=np.int64)
    uniform = np.full((64, test.n_assets + 1), 1.0 / (test.n_assets + 1))
    states = agent.prepare_states(test, indices, uniform)

    agreement = deployment.agreement(states)
    print(f"Chip-vs-float fidelity over {agreement.num_states} states:")
    print(f"  argmax agreement:  {agreement.argmax_agreement:.3f}")
    print(f"  mean L1 error:     {agreement.mean_l1_action_error:.4f}\n")

    loihi = deployment.profile(states)
    cpu = paper_cpu_model(1).report(macs=agent.dense_equivalent_macs())
    gpu = paper_gpu_model(1).report(macs=agent.dense_equivalent_macs())
    rows = [
        (rep.device, f"{rep.idle_power_w:.2f}", f"{rep.dynamic_power_w:.4g}",
         f"{rep.inferences_per_s:.2f}", f"{rep.nj_per_inference:.4g}")
        for rep in (cpu, gpu, loihi)
    ]
    print(format_table(
        ["Device", "Idle(W)", "Dyn(W)", "Inf/s", "nJ/Inf"], rows,
        title="Energy comparison (Table 4 methodology)",
    ))
    print(f"\nEnergy reduction: {energy_reduction_ratio(cpu, loihi):.0f}x vs CPU, "
          f"{energy_reduction_ratio(gpu, loihi):.0f}x vs GPU")
    print("(This compares the *same SDP model* across devices; the paper's "
          "186x/516x compares DRL-on-CPU/GPU vs SDP-on-Loihi — regenerated "
          "by benchmarks/bench_table4_power.py.)")


if __name__ == "__main__":
    main()
