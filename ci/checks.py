"""Checks the CI workflow runs on the files its steps leave behind.

Each subcommand reads what one step wrote (a benchmark log, a sweep
store, an event log) and exits 1, naming every failed condition, if the
step's output is wrong.  Two subcommands write a step's input instead:
``chaos-plan`` (the sweep fault plan) and ``anomaly-report`` (a repaired
feed's anomaly report, written only if it passes its check).

Run from the repo root with ``PYTHONPATH=src``, e.g.::

    python ci/checks.py perf-result /tmp/perf_serve.log \\
        --zero serving.supervisor.worker_restarts
    python ci/checks.py resume-manifest /tmp/mini_sweep/manifest.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.data import MarketGenerator
from repro.experiments import ArtifactStore
from repro.obs import read_events
from repro.resilience import DataFaults, FaultPlan, SweepFaults


def parse_perf_log(text: str) -> Tuple[dict, Dict[str, float]]:
    """A ``perfbench/run.py`` log: the result JSON (last line) and the
    busy seconds of each layer in its ``--trace 1`` table."""
    lines = text.splitlines()
    busy = {}
    for line in lines:
        cols = line.lstrip("# ").split()
        if len(cols) == 4 and cols[1].isdigit():
            busy[cols[0]] = float(cols[2])
    return json.loads(lines[-1]), busy


def check_perf_result(
    result: dict,
    busy: Dict[str, float],
    positive: Sequence[str] = (),
    zero: Sequence[str] = (),
    layers: Sequence[str] = (),
) -> List[str]:
    """The run passed its own output check with no failed operation;
    each ``positive`` metric is > 0, each ``zero`` metric is 0, and
    each traced layer in ``layers`` was busy."""
    failures = []
    if result.get("correct") is not True:
        failures.append(f"run failed its output check: {result}")
    if result.get("failed") != 0:
        failures.append(f"failed operations: {result.get('failed')}")
    metrics = result.get("metrics", {})
    for name in positive:
        if not metrics.get(name, {}).get("value", 0) > 0:
            failures.append(f"metric {name} is not > 0: {metrics.get(name)}")
    for name in zero:
        if metrics.get(name, {}).get("value") != 0:
            failures.append(f"metric {name} is not 0: {metrics.get(name)}")
    for layer in layers:
        if not busy.get(layer, 0.0) > 0:
            failures.append(f"layer {layer} was never busy: {busy}")
    return failures


def check_resume_manifest(manifest: dict) -> List[str]:
    """The 2 x 2 execution x risk mini-sweep finished all four shards.
    Ideal/unconstrained shards keep their pre-regime ids; the ``lin``
    execution regime's shards carry shortfall metrics and the ``caps``
    risk regime's carry violation and risk-turnover metrics."""
    failures = []
    shards = manifest.get("shards", [])
    if manifest.get("complete") is not True:
        failures.append("manifest not complete")
    if len(shards) != 4:
        failures.append(f"{len(shards)} shards, expected 4")
    if not all(s["status"] == "complete" for s in shards):
        failures.append("a shard is not complete")
    lin = sum("-lin-" in s["shard_id"] for s in shards)
    caps = sum("-caps-" in s["shard_id"] for s in shards)
    if not (lin == 2 and len(shards) - lin == 2):
        failures.append(f"{lin} of {len(shards)} shards in the lin regime")
    if not (caps == 2 and len(shards) - caps == 2):
        failures.append(f"{caps} of {len(shards)} shards in the caps regime")
    for s in shards:
        is_lin, is_caps = "-lin-" in s["shard_id"], "-caps-" in s["shard_id"]
        for metric, expected in (
            ("shortfall", is_lin),
            ("violation_rate", is_caps),
            ("risk_turnover", is_caps),
        ):
            if (metric in s["metrics"]) != expected:
                failures.append(f"{s['shard_id']}: {metric} present != {expected}")
    return failures


def check_stores_identical(root: Path, ref_root: Path) -> List[str]:
    """An interrupted then resumed 3-seed sweep store equals an
    uninterrupted one of the same spec: the same complete manifest of 3
    shards, and per shard the same metrics and weights."""
    resumed = json.loads((root / "manifest.json").read_text())
    ref = json.loads((ref_root / "manifest.json").read_text())
    failures = check_manifests_equal(resumed, ref)
    if len(resumed.get("shards", [])) != 3:
        failures.append("expected a manifest of 3 shards")
    store, store_ref = ArtifactStore(root), ArtifactStore(ref_root)
    for shard_dir in sorted((ref_root / "shards").iterdir()):
        a = store.load_shard(shard_dir.name)
        b = store_ref.load_shard(shard_dir.name)
        if a.metrics != b.metrics:
            failures.append(f"{shard_dir.name}: metrics diverged")
        if set(a.weights_state) != set(b.weights_state):
            failures.append(f"{shard_dir.name}: weight keys diverged")
            continue
        for key in a.weights_state:
            if not np.array_equal(a.weights_state[key], b.weights_state[key]):
                failures.append(f"{shard_dir.name}: weights {key} diverged")
    return failures


OBSERVED_SWEEP_TRAIN_STEPS = 40


def check_observed_sweep(obs_dir: Path) -> List[str]:
    """The event log holds spans and shard lifecycle events, and the
    final snapshot counts the CI sweep's ``--train-steps 40`` (only an
    sdp shard trains; ucrp is a closed-form baseline)."""
    failures = []
    kinds = {r["kind"] for r in read_events(obs_dir / "events.jsonl")}
    if not {"span", "shard_done"} <= kinds:
        failures.append(f"event kinds {sorted(kinds)} lack span/shard_done")
    snapshot = json.loads((obs_dir / "snapshot.json").read_text())
    steps = snapshot.get("counters", {}).get("repro_train_steps_total")
    if steps != float(OBSERVED_SWEEP_TRAIN_STEPS):
        failures.append(
            f"repro_train_steps_total is {steps}, "
            f"not {OBSERVED_SWEEP_TRAIN_STEPS}"
        )
    return failures


def check_manifests_equal(manifest: dict, reference: dict) -> List[str]:
    """A complete sweep manifest (one recovered from injected faults, or
    one interrupted then resumed) equals the reference run's."""
    failures = []
    if manifest != reference:
        failures.append("manifest diverged from the reference")
    if manifest.get("complete") is not True:
        failures.append("manifest not complete")
    if not all(s["status"] == "complete" for s in manifest.get("shards", [])):
        failures.append("a shard is not complete")
    return failures


def write_chaos_plan(path: Path) -> None:
    """The sweep chaos plan: the second shard crashes mid-write on its
    first attempt."""
    FaultPlan(seed=1, sweep=SweepFaults(crash_shards=(1,))).save(path)


def anomaly_report() -> dict:
    """Corrupt a synthetic feed through a fault plan's data seam, repair
    it with the ffill policy, and return the anomaly report."""
    plan = FaultPlan(
        seed=1,
        data=DataFaults(nan_rate=0.01, zero_rate=0.005, stale_rate=0.01),
    )
    gen = MarketGenerator(seed=7)
    gen.generate("2018/01/01", "2018/03/01", faults=plan, repair="ffill")
    return gen.last_anomaly_report.to_json_dict()


def check_anomaly_report(report: dict) -> List[str]:
    """The repair policy fixed at least one cell."""
    if report.get("repaired_cells", 0) > 0:
        return []
    return [f"nothing repaired: {report}"]


def _read_json(path: str) -> dict:
    return json.loads(Path(path).read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("perf-result", help="check a perfbench run's log")
    p.add_argument("log")
    p.add_argument("--positive", action="append", default=[], metavar="METRIC")
    p.add_argument("--zero", action="append", default=[], metavar="METRIC")
    p.add_argument("--busy", action="append", default=[], metavar="LAYER")
    p = sub.add_parser("resume-manifest", help="check the mini-sweep manifest")
    p.add_argument("manifest")
    p = sub.add_parser("stores-identical", help="compare two sweep stores")
    p.add_argument("root", type=Path)
    p.add_argument("ref_root", type=Path)
    p = sub.add_parser("observed-sweep", help="check an observed sweep's files")
    p.add_argument("obs_dir", type=Path)
    p = sub.add_parser("manifests-equal", help="compare recovered to reference")
    p.add_argument("recovered")
    p.add_argument("reference")
    p = sub.add_parser("chaos-plan", help="write the sweep chaos plan")
    p.add_argument("out", type=Path)
    p = sub.add_parser("anomaly-report", help="write a repaired feed's report")
    p.add_argument("out", type=Path)
    args = parser.parse_args(argv)

    if args.command == "perf-result":
        result, busy = parse_perf_log(Path(args.log).read_text())
        failures = check_perf_result(
            result, busy, args.positive, args.zero, args.busy
        )
    elif args.command == "resume-manifest":
        failures = check_resume_manifest(_read_json(args.manifest))
    elif args.command == "stores-identical":
        failures = check_stores_identical(args.root, args.ref_root)
    elif args.command == "observed-sweep":
        failures = check_observed_sweep(args.obs_dir)
    elif args.command == "manifests-equal":
        failures = check_manifests_equal(
            _read_json(args.recovered), _read_json(args.reference)
        )
    elif args.command == "chaos-plan":
        write_chaos_plan(args.out)
        failures = []
    else:
        report = anomaly_report()
        failures = check_anomaly_report(report)
        if not failures:
            args.out.write_text(json.dumps(report, indent=2))
    for failure in failures:
        print(f"FAIL {args.command}: {failure}", file=sys.stderr)
    if not failures:
        print(f"ok {args.command}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
