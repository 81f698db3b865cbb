"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 24 --trace 0

Run it from the root of a checkout; it imports the program from
``./src`` and nothing else.  A run is a series of *episodes*: each sets
the workload up, warms it up, runs timed rounds, tears it down and
checks the outputs.  With ``--trace 0`` a run is ``EPISODES`` episodes
that share ``--seconds`` equally, with tracing off; it prints the
end-to-end metrics of the pooled rounds and the median set-up time.
With ``--trace 1`` it is ``TRACE_PAIRS`` pairs of episodes of a fixed
number of rounds, one untraced and one traced, and it prints the
per-layer metrics and the tracing overhead.  The last line of standard
output is always one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Metric names and units come from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

ROOT = Path.cwd().resolve()
# Every episode starts fresh state and processes, which resamples what
# outlives a round, such as where the scheduler put the serving
# workers' BLAS threads; set-up time is the median over the episodes.
EPISODES = 5
TRACE_PAIRS = 3
TAIL_PERCENTILE = 90
RESTARTS = "serving.supervisor.worker_restarts"


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _import_program() -> bool:
    """Put ``./src`` and the checkout root first on the path, and make
    sure ``repro`` really comes from ``./src``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    # Replace this script's own directory (``sys.path[0]``) so that the
    # benchmark's modules are imported as ``perfbench.*`` and never
    # shadow a library module such as ``trace``.
    sys.path[:] = [str(src), str(ROOT)] + sys.path[1:]
    import repro

    return Path(repro.__file__).resolve().is_relative_to(src)


def _workloads(run_dir: Path):
    from perfbench.offline import Backtest, Train
    from perfbench.online import Serve, ServeCold

    return {
        "backtest": Backtest,
        "train": Train,
        "serve": lambda: Serve(run_dir),
        "serve_cold": lambda: ServeCold(run_dir),
    }


def _say(line: str) -> None:
    print(f"# {line}", flush=True)


@dataclass
class Episode:
    setup_s: float
    start: float
    latencies: List[float]
    attempted: int
    failed: int
    extras: Dict[str, float]
    rss_mb: float

    @property
    def elapsed(self) -> float:
        return sum(self.latencies)


def episode(
    workload, seed: int, seconds: float = float("inf"), rounds: float = float("inf")
) -> Episode:
    """Set up, warm up, run rounds until ``seconds`` or ``rounds`` run
    out, tear down and check.  Warm-up rounds are neither timed nor
    counted."""
    from perfbench.stats import peak_rss_mb

    t0 = time.perf_counter()
    workload.setup(seed)
    setup_s = time.perf_counter() - t0
    latencies: List[float] = []
    attempted = failed = 0
    try:
        for _ in range(workload.warmup_rounds):
            workload.round()
        workload.start_measuring()
        start = now = time.perf_counter()
        while len(latencies) < rounds and now - start < seconds:
            a, f = workload.round()
            end = time.perf_counter()
            latencies.append(end - now)
            attempted += a
            failed += f
            now = end
        rss = peak_rss_mb(workload.worker_pids())
        extras = workload.extras()
    finally:
        workload.teardown()
    failed += workload.check()
    return Episode(setup_s, start, latencies, attempted, failed, extras, rss)


def run_untraced(workload, seed: int, seconds: float):
    from perfbench.stats import nearest_rank, samples_beyond

    episodes = [
        episode(workload, seed, seconds=seconds / EPISODES) for _ in range(EPISODES)
    ]
    latencies = [t for e in episodes for t in e.latencies]
    attempted = sum(e.attempted for e in episodes)
    failed = sum(e.failed for e in episodes)

    n = len(latencies)
    beyond = samples_beyond(n, TAIL_PERCENTILE)
    _say(f"rounds {n}; {beyond} above p{TAIL_PERCENTILE}")
    if beyond < 10:
        _say(f"warning: fewer than ten rounds above p{TAIL_PERCENTILE}")
    _say(f"error_rate {failed / attempted:.6g} ({failed} of {attempted})")
    _say("setup_s of each episode " + " ".join(f"{e.setup_s:.4g}" for e in episodes))
    # Printed, not reported: the host's speed regimes put the median
    # between two modes, so it moves too much from run to run to bound.
    _say(f"round_p50_ms {1e3 * nearest_rank(latencies, 50):.6g}")
    for name, value in episodes[-1].extras.items():
        _say(f"{name} {value:.6g}")
    metrics = {
        "setup_s": statistics.median(e.setup_s for e in episodes),
        "decisions_per_s": (attempted - failed) / sum(latencies),
        f"round_p{TAIL_PERCENTILE}_ms": 1e3 * nearest_rank(latencies, TAIL_PERCENTILE),
        "peak_rss_mb": max(e.rss_mb for e in episodes),
    }
    return attempted, failed, metrics


def run_traced(workload, seed: int, run_dir: Path, names):
    from perfbench import layers
    from perfbench.trace import Tracer, layer_table, load_child_records, merge

    spans_dir = run_dir / "spans"
    spans_dir.mkdir()
    tracer = Tracer()
    tracer.collect_children(spans_dir)
    plain: List[Episode] = []
    traced: List[Episode] = []
    # Untraced and traced episodes alternate, so that the host's slow
    # and fast stretches fall on both sides of the overhead ratio.
    for _ in range(TRACE_PAIRS):
        plain.append(episode(workload, seed, rounds=workload.trace_rounds))
        # Only the latest traced episode's spans make the layer table.
        tracer.records.clear()
        for path in spans_dir.iterdir():
            path.unlink()
        layers.install(tracer)
        workload.tracer = tracer
        try:
            traced.append(episode(workload, seed, rounds=workload.trace_rounds))
        finally:
            tracer.unwrap_all()
            workload.tracer = None

    last = traced[-1]
    records = {tracer.pid: tracer.records, **load_child_records(spans_dir)}
    table = layer_table(merge(tracer.pid, records, (last.start, last.start + last.elapsed)))
    # Rates come from the untraced episodes; restarts from all of them.
    extras = {
        name: statistics.median(e.extras[name] for e in plain)
        for name in plain[-1].extras
    }
    if RESTARTS in extras:
        extras[RESTARTS] = max(e.extras[RESTARTS] for e in plain + traced)
    extras["trace.overhead_share"] = (
        statistics.median(e.elapsed for e in traced)
        / statistics.median(e.elapsed for e in plain)
        - 1.0
    )
    _say(
        f"{TRACE_PAIRS} pairs of {workload.trace_rounds} rounds; seconds untraced "
        + " ".join(f"{e.elapsed:.4g}" for e in plain)
        + ", traced "
        + " ".join(f"{e.elapsed:.4g}" for e in traced)
    )
    _say(f"layer table of the last traced episode, {len(records)} processes")
    _say(f"{'layer':40s} {'calls':>8s} {'busy_s':>10s} {'self_s':>10s}")
    for layer in sorted(table):
        s = table[layer]
        _say(f"{layer:40s} {s.calls:8d} {s.busy_s:10.4f} {s.self_s:10.4f}")
    metrics = layers.per_layer_metrics(names, table, extras)
    episodes = plain + traced
    return (
        sum(e.attempted for e in episodes),
        sum(e.failed for e in episodes),
        metrics,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return _fail("run from the root of a checkout (no BENCHMARK.json here)")
    spec = json.loads(spec_path.read_text())
    if not _import_program():
        return _fail("no program to measure: ./src/repro is missing")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")

    from perfbench.stats import environment

    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    run_dir = ROOT / ".perfbench_tmp" / str(os.getpid())
    run_dir.mkdir(parents=True)
    try:
        workload = _workloads(run_dir)[args.workload]()
        _say(f"environment {json.dumps(environment(), sort_keys=True)}")
        _say(f"workload {args.workload} seed {args.seed} trace {args.trace}")
        if args.trace:
            attempted, failed, values = run_traced(
                workload, args.seed, run_dir, list(units)
            )
        else:
            attempted, failed, values = run_untraced(
                workload, args.seed, args.seconds
            )
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass

    if set(values) != set(units):
        return _fail(f"metrics {sorted(values)} do not match BENCHMARK.json")
    for name in units:
        _say(f"{name} {values[name]:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": values[name], "unit": units[name]}
                    for name in units
                },
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
