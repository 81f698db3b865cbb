"""Sweep demo: a multi-seed grid on the sharded experiment engine.

Expands a small seeds × strategies grid into shards, runs them on a
process pool with checkpoint/resume into an on-disk artifact store,
prints the across-seed aggregate table, then rolls a walk-forward
evaluation through the same engine and store (one shard per strategy
and seed walks every fold) and serves the best trained Table 3 shard
through `repro.serving` — the full loop: sweep → artifacts → tables →
serving.

Run:  python examples/sweep_demo.py
"""

import tempfile
from pathlib import Path

from repro.experiments import (
    ArtifactStore,
    ExperimentSpec,
    SweepRunner,
    WalkForward,
    build_experiment_data,
    make_config,
    render_regime_table,
    render_sweep_table,
    render_walkforward_table,
    run_walkforward,
)
from repro.serving import PortfolioService


def main() -> None:
    root = Path(tempfile.mkdtemp(prefix="repro_sweep_"))
    print(f"artifact store: {root}\n")

    # -- 1. A 3-seed × 2-strategy sweep on the process pool ------------
    spec = ExperimentSpec(
        name="demo",
        profile="quick",
        experiments=(1,),
        strategies=("sdp", "ucrp"),
        seeds=(1, 2, 3),
        overrides=(("train_steps", 40),),
    )
    runner = SweepRunner(spec, root, max_workers=2)
    result = runner.run(
        parallel=True,
        progress=lambda shard_id, status: print(f"[{status:>7}] {shard_id}"),
    )
    print()
    print(render_sweep_table(result))

    # Resume is free: a second run finds every artifact committed.
    again = SweepRunner(spec, root).run()
    print(
        f"\nre-run: {len(again.skipped)} shards skipped (resume), "
        f"{len(again.ran)} ran\n"
    )

    # -- 2. Walk-forward evaluation with per-regime attribution --------
    # The same engine and store: its shards carry the walk in their ids,
    # so they never collide with the Table 3 shards above.
    config = make_config(1, profile="quick", train_steps=40)
    walk = WalkForward(
        train_days=75, test_days=45, fine_tune_steps=10,
        start="2019/01/01", end="2019/10/01",
    )
    report = run_walkforward(
        config, walk, strategies=("sdp", "ucrp"), seeds=(1, 2),
        store=root, workers=2,
    )
    print(report.sweep.summary())
    print(render_walkforward_table(report))
    print()
    print(render_regime_table(report))

    # -- 3. Serve a trained shard straight from the artifact store -----
    store = ArtifactStore(root)
    sdp_shards = [
        o for o in result.outcomes if o.shard.strategy == "sdp"
    ]
    best = max(sdp_shards, key=lambda o: o.metrics["fapv"])
    artifact = store.load_shard(best.shard_id)

    service = PortfolioService()
    market = build_experiment_data(config).test
    assert market.names == artifact.extra["assets"]
    service.register_market("demo", market)
    info = service.create_session_from_artifact(
        "live", store=store, shard_id=best.shard_id, market="demo"
    )
    response = service.rebalance("live")
    print(
        f"\nserving shard {best.shard_id} "
        f"(fAPV {best.metrics['fapv']:.3f}, shared={info.shared_agent}): "
        f"t={response.t}, weights[:3]={[round(float(w), 4) for w in response.weights[:3]]}"
    )


if __name__ == "__main__":
    main()
