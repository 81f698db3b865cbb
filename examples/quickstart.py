"""Quickstart: train the spiking policy and back-test it in ~30 seconds.

Runs the full pipeline of the paper at toy scale: synthetic crypto
market -> top-volume universe -> SDP training with STBP -> back-test
with transaction costs -> Table-3-style metrics, next to the classical
UCRP benchmark.

Run:  python examples/quickstart.py
"""

from repro.experiments import build_experiment_data, make_config, run_experiment
from repro.metrics import turnover
from repro.utils import format_table


def main() -> None:
    # Experiment 1 of Table 1 at the fast "quick" profile (6-hour
    # candles, 6 assets, a small SDP). Profiles only change scale,
    # never the algorithm.
    config = make_config(1, profile="quick", train_steps=120)
    data = build_experiment_data(config)
    print(f"Universe (top volume before {config.window.test_start}): "
          f"{', '.join(data.assets)}")
    print(f"Training panel:  {data.train}")
    print(f"Back-test panel: {data.test}\n")

    print("Training the spiking deterministic policy (STBP, eq. (1)) "
          "and back-testing it beside UCRP...")
    result = run_experiment(config, strategies=("sdp", "ucrp"))
    print(f"  final batch reward: {result.sdp_history.reward[-1]:+.5f} "
          f"({result.sdp_agent.num_parameters()} parameters)\n")

    rows = []
    for name, backtest in result.backtests.items():
        rows.append((
            name,
            f"{backtest.fapv:.3f}",
            f"{backtest.mdd:.3f}",
            f"{backtest.sharpe:+.4f}",
            f"{turnover(backtest.weights):.3f}",
        ))
    print(format_table(
        ["Strategy", "fAPV", "MDD", "Sharpe", "Turnover"],
        rows,
        title=f"Back-test {config.window.test_start} -> {config.window.test_end}",
    ))


if __name__ == "__main__":
    main()
