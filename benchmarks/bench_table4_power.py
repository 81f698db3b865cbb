"""Table 4 — power/latency across CPU, GPU, and (simulated) Loihi.

Trains a representative SDP briefly, deploys it to the fixed-point chip
simulator, measures its real spike/synop activity on back-test states,
and evaluates all three device models.  The paper's headline ratios
(186× less energy than CPU, 516× less than GPU — its experiment-2
column) are the reproduction target band.
"""

from conftest import record

from repro.experiments import (
    make_config,
    render_table4,
    run_experiment,
    run_power_comparison,
)


def run_all_experiments():
    comparisons = {}
    for exp in (1, 2, 3):
        cfg = make_config(exp, profile="standard", train_steps=150)
        result = run_experiment(cfg, strategies=("sdp", "jiang"))
        comparisons[exp] = run_power_comparison(result)
    return comparisons


def test_table4_power(benchmark):
    comparisons = benchmark.pedantic(run_all_experiments, rounds=1, iterations=1)

    blocks = []
    for exp, pc in comparisons.items():
        blocks.append(render_table4(pc))
        # Shape assertions: Loihi's dynamic energy per inference is at
        # least two orders of magnitude below CPU and GPU.
        assert pc.cpu_reduction > 100, f"exp{exp}: CPU ratio {pc.cpu_reduction}"
        assert pc.gpu_reduction > 100, f"exp{exp}: GPU ratio {pc.gpu_reduction}"
        # Loihi idle power matches the paper's measured board figure.
        assert abs(pc.sdp_loihi.idle_power_w - 1.01) < 1e-9
        # Throughputs sit at the paper's measured operating points.
        assert 0.5 < pc.sdp_loihi.inferences_per_s < 2.0
    record("table4_power", "\n\n".join(blocks))
