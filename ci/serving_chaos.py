"""Supervised serving chaos gate, end to end over HTTP.

Starts ``python -m repro serve --workers 2`` with a fault plan that kills
the worker owning the demo market at its third batch, ramps six ``ons``
sessions and two ``sdp`` sessions (which share one agent), and serves
five batched rounds.  Then:

* every round answers every session;
* a batch holding one out-of-range ``t`` beside good requests answers
  400, and (by the last check) moves no session;
* ``/health`` reports one restart and one failover, both on the owning
  worker, every worker alive and every session intact;
* ``/stats`` reports the failover with a round in flight;
* ``/metrics`` agrees with ``/health``: ``repro_failovers_total`` and
  ``repro_worker_restarts_total`` read 1 there too;
* SIGTERM drains cleanly: every session checkpointed, both workers at
  exit code 0, the process at exit code 0;
* the drained state dir loads with ``read_checkpoint``, holds no
  per-session ``sessions/*/weights.npz``, and holds one
  ``agents/<digest>.npz`` per distinct weight set, each matching its
  digest.  The bytes under each of its subdirectories are printed;
* every session's snapshot in it is at ``ROUNDS`` decisions, so the
  crash, the journal replay and the compactions lost no acknowledged
  round, and the refused batch moved nothing.

Run from the repo root with ``PYTHONPATH=src``::

    python ci/serving_chaos.py --plan /tmp/load_plan.json \\
        --state-dir /tmp/load_state --out /tmp/load_health.json
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Dict, List

# The ramp: six ons sessions, then two sdp sessions sharing one agent.
STRATEGIES = ("ons",) * 6 + ("sdp",) * 2
SESSIONS = len(STRATEGIES)
ROUNDS = 5


def check_failover(health: dict, stats: dict, owner: int, sessions: int) -> List[str]:
    """Exactly one restart and failover, on worker ``owner``, with every
    worker alive, every session intact and a round in flight."""
    failures = []
    if health["status"] != "ok":
        failures.append(f"status {health['status']!r}")
    if health["sessions"] != sessions:
        failures.append(f"{health['sessions']} sessions, expected {sessions}")
    if health["worker_restarts"] != 1 or health["failovers"] != 1:
        failures.append(
            f"{health['worker_restarts']} restarts and {health['failovers']} "
            "failovers, expected 1 and 1"
        )
    restarts = {w["index"]: w["restarts"] for w in health["workers"]}
    if restarts != {owner: 1, 1 - owner: 0}:
        failures.append(f"restarts by worker {restarts}, expected worker {owner}")
    if not all(w["alive"] for w in health["workers"]):
        failures.append("a worker is not alive")
    reports = stats["failovers"]
    if not reports or reports[0]["worker"] != owner:
        failures.append(f"failover reports {reports} do not name worker {owner}")
    elif not any(s["round_in_flight"] for s in reports[0]["sessions"]):
        failures.append("the failover report has no round in flight")
    return failures


def check_metrics(health: dict, page: str) -> List[str]:
    """The ``/metrics`` page carries the restart and failover counters,
    each reading 1 as ``/health`` does."""
    samples = {}
    for line in page.splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, _, value = line.rpartition(" ")
            samples[name] = float(value)
    failures = []
    for series, key in (
        ("repro_failovers_total", "failovers"),
        ("repro_worker_restarts_total", "worker_restarts"),
    ):
        value = samples.get(series)
        if value != 1 or value != health[key]:
            failures.append(
                f"/metrics {series} reads {value}, /health {key} reads "
                f"{health[key]}, expected 1 and 1"
            )
    return failures


def check_drain(output: str, returncode: int, sessions: int) -> List[str]:
    """The server drained every session across both workers, both
    workers exited 0, and so did the server."""
    failures = []
    if returncode != 0:
        failures.append(f"server exit code {returncode}")
    if f"drained: {sessions} sessions checkpointed across 2 workers" not in output:
        failures.append(f"no drain line for {sessions} sessions")
    if "[0, 0]" not in output:
        failures.append("worker exit codes are not [0, 0]")
    return failures


def check_state_dir(root: Path) -> List[str]:
    """The drained state dir loads as a checkpoint, holds no per-session
    weights file, and holds exactly one agent file per distinct weight
    set of its sessions, each named by its content's digest."""
    from repro.serving.store import read_checkpoint, weights_digest
    from repro.utils.serialization import load_state_dict

    try:
        _, _, payloads = read_checkpoint(root)
    except Exception as exc:
        return [f"state dir does not load: {type(exc).__name__}: {exc}"]
    failures = []
    legacy = sorted(root.glob("sessions/*/weights.npz"))
    if legacy:
        failures.append(f"{len(legacy)} per-session weights.npz files")
    expected = {
        weights_digest(p["weights"]) for p in payloads if p["weights"] is not None
    }
    if not expected:
        failures.append("no session has an agent file")
    files = sorted((root / "agents").glob("*.npz"))
    if {path.stem for path in files} != expected:
        failures.append(
            f"{len(files)} agent files for {len(expected)} distinct weight sets"
        )
    for path in files:
        try:
            intact = weights_digest(load_state_dict(path)) == path.stem
        except Exception:
            intact = False
        if not intact:
            failures.append(f"agent file {path.name} does not match its digest")
    return failures


def check_rounds(root: Path, sessions: int, rounds: int) -> List[str]:
    """The state dir holds ``sessions`` snapshots, each at ``rounds``
    decisions."""
    from repro.serving.store import SessionStateStore

    store = SessionStateStore(root)
    ids = store.session_ids()
    failures = []
    if len(ids) != sessions:
        failures.append(f"{len(ids)} session snapshots, expected {sessions}")
    behind = {}
    for session_id in ids:
        decisions = store.load_session_record(session_id)["state"]["decisions"]
        if decisions != rounds:
            behind[session_id] = decisions
    if behind:
        failures.append(f"decisions {behind}, expected {rounds} each")
    return failures


def state_dir_bytes(root: Path) -> Dict[str, int]:
    """Bytes of the files under each top-level subdirectory of ``root``
    (``.`` for the files directly in it)."""
    sizes: Dict[str, int] = {}
    for path in root.rglob("*"):
        if path.is_file():
            parts = path.relative_to(root).parts
            top = parts[0] if len(parts) > 1 else "."
            sizes[top] = sizes.get(top, 0) + path.stat().st_size
    return dict(sorted(sizes.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True, help="where to write the plan")
    parser.add_argument("--state-dir", required=True)
    parser.add_argument("--out", required=True, help="health + stats JSON")
    parser.add_argument("--port", type=int, default=18901)
    args = parser.parse_args(argv)

    from repro.resilience import FaultPlan, ServingFaults
    from repro.utils.rng import stable_hash

    owner = stable_hash("default") % 2  # the demo market's worker
    FaultPlan(
        seed=0,
        serving=ServingFaults(worker_crash_batches=((owner, 2),)),
    ).save(args.plan)

    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(args.port),
         "--profile", "quick", "--workers", "2",
         "--state-dir", args.state_dir, "--fault-plan", args.plan],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    base = f"http://127.0.0.1:{args.port}"

    def fetch(path, payload=None):
        data = None if payload is None else json.dumps(payload).encode()
        with urllib.request.urlopen(base + path, data=data) as r:
            return r.read()

    def req(path, payload=None):
        return json.loads(fetch(path, payload))

    try:
        for _ in range(120):  # demo panel generation takes a moment
            try:
                req("/healthz")
                break
            except OSError:
                if server.poll() is not None:
                    print(server.stdout.read())
                    raise SystemExit("server died during startup")
                time.sleep(0.5)

        for i, strategy in enumerate(STRATEGIES):  # ramp
            req("/sessions", {"session_id": f"s{i}", "strategy": strategy,
                              "market": "default"})
        batch = {"requests": [{"session_id": f"s{i}"} for i in range(SESSIONS)]}
        failures = []
        for _ in range(ROUNDS):  # the crash fires mid-run; replay is silent
            served = req("/rebalance/batch", batch)["responses"]
            if len(served) != SESSIONS:
                failures.append(f"a round served {len(served)} sessions")

        refused = {"requests": batch["requests"][:-1] + [
            {"session_id": f"s{SESSIONS - 1}", "t": 10**9}
        ]}
        try:
            fetch("/rebalance/batch", refused)
            failures.append("a batch with an out-of-range t was served")
        except urllib.error.HTTPError as exc:
            exc.close()
            if exc.code != 400:
                failures.append(f"a batch with an out-of-range t answered {exc.code}")

        health, stats = req("/health"), req("/stats")
        metrics = fetch("/metrics").decode("utf-8")
        failures += check_failover(health, stats, owner, SESSIONS)
        failures += check_metrics(health, metrics)
        with open(args.out, "w") as fh:
            json.dump(
                {"health": health, "stats": stats, "metrics": metrics},
                fh, indent=2,
            )

        server.send_signal(signal.SIGTERM)  # graceful drain
        out, _ = server.communicate(timeout=60)
        print(out)
        failures += check_drain(out, server.returncode, SESSIONS)
        failures += check_state_dir(Path(args.state_dir))
        failures += check_rounds(Path(args.state_dir), SESSIONS, ROUNDS)
        print(f"state dir bytes: {state_dir_bytes(Path(args.state_dir))}")
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    for failure in failures:
        print(f"FAIL serving chaos: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
