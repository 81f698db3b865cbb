"""Tests for the scripts the CI workflow runs: the check functions of
``ci/checks.py`` and ``ci/serving_chaos.py``, and the ratio and budget
logic of ``benchmarks/dispatch_overhead.py``.

Each check is run on a passing input and on inputs that break one of
its conditions.  The overhead gate runs on injected timings, so no
result here depends on wall-clock time.
"""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from repro.__main__ import main as cli_main
from repro.experiments import ArtifactStore, ExperimentSpec, SweepRunner
from repro.resilience import FaultPlan, SweepFaults

REPO = Path(__file__).resolve().parent.parent


def _load(relpath):
    path = REPO / relpath
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load("ci/checks.py")
serving_chaos = _load("ci/serving_chaos.py")
dispatch_overhead = _load("benchmarks/dispatch_overhead.py")


# ----------------------------------------------------------------------
# benchmarks/dispatch_overhead.py
# ----------------------------------------------------------------------
def test_overhead_gate_is_the_median_paired_ratio_against_the_budget():
    plain = [1.0, 0.9, 1.2, 1.1, 0.8]
    uniform = dispatch_overhead.gate("resilience", plain, [1.3 * p for p in plain])
    assert uniform["overhead"] == 1.3 and uniform["budget"] == 1.1
    assert not uniform["within_budget"]
    # One stalled variant run (1.4x) is a lone outlier, not the overhead.
    stalled = list(plain)
    stalled[2] *= 1.4
    outlier = dispatch_overhead.gate("observability", plain, stalled)
    assert outlier["overhead"] == 1.0 and outlier["within_budget"]
    assert outlier["pairs"] == 5
    assert dispatch_overhead.gate("x", [2.0], [2.2])["within_budget"]


@pytest.mark.parametrize(
    "variant_s,status", [((1.2, 1.3, 1.25), 1), ((1.0, 1.09, 1.5), 0)],
    ids=["over-budget", "under-budget"],
)
def test_overhead_script_exit_status(monkeypatch, tmp_path, variant_s, status):
    monkeypatch.setattr(
        dispatch_overhead, "measure",
        lambda variant, panel: ([1.0, 1.1, 1.05], list(variant_s)),
    )
    out = tmp_path / "report.json"
    assert dispatch_overhead.main(["--out", str(out)]) == status
    report = json.loads(out.read_text())
    assert (report["sessions"], report["rounds"]) == (8, 10)
    assert [g["name"] for g in report["gates"]] == ["resilience", "observability"]
    assert all(g["within_budget"] == (status == 0) for g in report["gates"])


# ----------------------------------------------------------------------
# ci/checks.py
# ----------------------------------------------------------------------
PERF_LOG = """\
# train: 12 rounds
# layer                                       calls     busy_s     self_s
# snn.decide_batch                              120     0.2500     0.1000
# envs.backtester.run_many                       12     0.9000     0.3000
{"correct": true, "attempted": 120, "failed": 0, "metrics": \
{"snn.decide_batch.busy_s": {"value": 0.25}, \
"serving.supervisor.worker_restarts": {"value": 0}}}
"""


def test_perf_log_parse_and_check():
    result, busy = checks.parse_perf_log(PERF_LOG)
    assert busy == {"snn.decide_batch": 0.25, "envs.backtester.run_many": 0.9}
    assert checks.check_perf_result(
        result, busy,
        positive=["snn.decide_batch.busy_s"],
        zero=["serving.supervisor.worker_restarts"],
        layers=["snn.decide_batch", "envs.backtester.run_many"],
    ) == []


@pytest.mark.parametrize(
    "change,kwargs",
    [
        ({"correct": False}, {}),
        ({"failed": 2}, {}),
        ({}, {"positive": ["agents.trainer.steps_per_s"]}),
        ({}, {"zero": ["snn.decide_batch.busy_s"]}),
        ({}, {"layers": ["snn.bank.forward"]}),
    ],
    ids=["incorrect", "failed-ops", "missing-metric", "nonzero", "idle-layer"],
)
def test_perf_check_names_each_broken_condition(change, kwargs):
    result, busy = checks.parse_perf_log(PERF_LOG)
    result.update(change)
    assert len(checks.check_perf_result(result, busy, **kwargs)) == 1


def test_resume_manifest_check_on_a_real_regime_grid(tmp_path):
    store = tmp_path / "grid"
    assert cli_main([
        "sweep", "--store", str(store), "--profile", "quick",
        "--strategies", "ucrp", "--seeds", "1", "--serial",
        "--executions", "ideal=zero", "lin=linear:25", "--risks", "none", "caps",
    ]) == 0
    manifest = json.loads((store / "manifest.json").read_text())
    assert checks.check_resume_manifest(manifest) == []

    lin = next(s for s in manifest["shards"] if "-lin-" in s["shard_id"])
    del lin["metrics"]["shortfall"]
    manifest["complete"] = False
    assert len(checks.check_resume_manifest(manifest)) == 2
    manifest["shards"].pop()
    assert any("3 shards" in f for f in checks.check_resume_manifest(manifest))


def test_stores_identical_check(tmp_path):
    spec = ExperimentSpec(
        name="ci", profile="quick", experiments=(1,), strategies=("sdp",),
        seeds=(1, 2, 3), overrides=(("train_steps", 2),), backend="fast",
    )
    SweepRunner(spec, tmp_path / "ref").run(parallel=False)
    shutil.copytree(tmp_path / "ref", tmp_path / "resumed")
    resumed, ref = tmp_path / "resumed", tmp_path / "ref"
    assert checks.check_stores_identical(resumed, ref) == []

    store = ArtifactStore(resumed)
    shard_id = store.list_shards()[0]
    artifact = store.load_shard(shard_id)
    key = sorted(artifact.weights_state)[0]
    artifact.weights_state[key] = artifact.weights_state[key] + 1.0
    store.save_shard(artifact)
    assert checks.check_stores_identical(resumed, ref) == [
        f"{shard_id}: weights {key} diverged"
    ]

    manifest = json.loads((ref / "manifest.json").read_text())
    manifest["shards"].pop()
    (resumed / "manifest.json").write_text(json.dumps(manifest))
    assert checks.check_stores_identical(resumed, ref)[:2] == [
        "manifest diverged from the reference",
        "expected a manifest of 3 shards",
    ]


def test_stores_identical_check_compares_walk_fold_records(tmp_path):
    """Walk-forward stores: the check compares every shard's fold
    records, not only the last fold's metrics."""
    args = [
        "walkforward", "--profile", "quick", "--train-steps", "2",
        "--start", "2019/01/01", "--end", "2019/06/15",
        "--train-days", "75", "--test-days", "45", "--fine-tune-steps", "1",
        "--strategies", "sdp", "ucrp", "--seeds", "1", "2",
    ]
    assert cli_main(args + ["--store", str(tmp_path / "ref")]) == 0
    shutil.copytree(tmp_path / "ref", tmp_path / "other")
    other, ref = tmp_path / "other", tmp_path / "ref"
    assert checks.check_stores_identical(other, ref) == []

    store = ArtifactStore(other)
    shard_id = store.list_shards()[0]
    artifact = store.load_shard(shard_id)
    artifact.extra["folds"][0].metrics["fapv"] += 1.0
    store.save_shard(artifact)
    assert checks.check_stores_identical(other, ref) == [
        f"{shard_id}: fold records diverged"
    ]


def test_observed_sweep_check(tmp_path):
    events = [{"kind": "span"}, {"kind": "shard_done"}, {"kind": "train_step"}]
    (tmp_path / "events.jsonl").write_text(
        "".join(json.dumps(e) + "\n" for e in events)
    )
    snapshot = {"counters": {"repro_train_steps_total": 40.0}}
    (tmp_path / "snapshot.json").write_text(json.dumps(snapshot))
    assert checks.check_observed_sweep(tmp_path) == []

    snapshot["counters"]["repro_train_steps_total"] = 8.0
    (tmp_path / "snapshot.json").write_text(json.dumps(snapshot))
    assert len(checks.check_observed_sweep(tmp_path)) == 1

    (tmp_path / "events.jsonl").write_text(json.dumps({"kind": "span"}) + "\n")
    assert len(checks.check_observed_sweep(tmp_path)) == 2


def test_manifests_equal_check():
    reference = {
        "complete": True,
        "shards": [{"shard_id": "a", "status": "complete"}],
    }
    assert checks.check_manifests_equal(json.loads(json.dumps(reference)), reference) == []
    recovered = {
        "complete": False,
        "shards": [{"shard_id": "a", "status": "quarantined"}],
    }
    assert len(checks.check_manifests_equal(recovered, reference)) == 3


def test_chaos_plan_and_anomaly_report(tmp_path):
    checks.write_chaos_plan(tmp_path / "plan.json")
    assert FaultPlan.load(tmp_path / "plan.json") == FaultPlan(
        seed=1, sweep=SweepFaults(crash_shards=(1,))
    )
    report = checks.anomaly_report()
    assert checks.check_anomaly_report(report) == []
    assert len(checks.check_anomaly_report(dict(report, repaired_cells=0))) == 1


@pytest.mark.parametrize("repaired,status", [(3, 0), (0, 1)], ids=["pass", "fail"])
def test_anomaly_report_is_written_only_if_it_passes(
    monkeypatch, tmp_path, repaired, status
):
    monkeypatch.setattr(checks, "anomaly_report", lambda: {"repaired_cells": repaired})
    out = tmp_path / "report.json"
    assert checks.main(["anomaly-report", str(out)]) == status
    assert out.exists() == (status == 0)


# ----------------------------------------------------------------------
# ci/serving_chaos.py
# ----------------------------------------------------------------------
def _failover_payloads(owner):
    health = {
        "status": "ok", "sessions": 6, "worker_restarts": 1, "failovers": 1,
        "workers": [
            {"index": owner, "restarts": 1, "alive": True},
            {"index": 1 - owner, "restarts": 0, "alive": True},
        ],
    }
    stats = {"failovers": [{
        "worker": owner,
        "sessions": [{"session_id": "s0", "round_in_flight": True}],
    }]}
    return health, stats


def test_failover_check():
    health, stats = _failover_payloads(owner=1)
    assert serving_chaos.check_failover(health, stats, owner=1, sessions=6) == []
    assert len(serving_chaos.check_failover(health, stats, owner=0, sessions=6)) == 2

    health["workers"][1]["alive"] = False
    health["sessions"] = 5
    stats["failovers"][0]["sessions"][0]["round_in_flight"] = False
    assert len(serving_chaos.check_failover(health, stats, owner=1, sessions=6)) == 3


def test_metrics_check():
    health, _ = _failover_payloads(owner=1)
    page = (
        "# TYPE repro_failovers_total counter\n"
        "repro_failovers_total 1\n"
        'repro_http_requests_total{method="GET",route="/health"} 1\n'
        "repro_worker_restarts_total 1\n"
    )
    assert serving_chaos.check_metrics(health, page) == []
    # A page without either counter: a dark supervisor's page while its
    # counters were stats gauges under other names.
    missing = "repro_uptime_seconds 3.5\n"
    assert len(serving_chaos.check_metrics(health, missing)) == 2
    zero = page.replace("repro_failovers_total 1", "repro_failovers_total 0")
    assert len(serving_chaos.check_metrics(health, zero)) == 1


def test_drain_check():
    out = "drained: 6 sessions checkpointed across 2 workers (exit codes [0, 0])"
    assert serving_chaos.check_drain(out, 0, sessions=6) == []
    assert len(serving_chaos.check_drain(out, 0, sessions=5)) == 1
    crashed = out.replace("[0, 0]", "[0, -9]")
    assert len(serving_chaos.check_drain(crashed, 1, sessions=6)) == 2


def test_state_dir_check(tmp_path):
    from repro.experiments import build_experiment_data, make_config
    from repro.serving import PortfolioService
    from repro.utils.serialization import save_state_dict

    config = make_config(1, "quick")
    service = PortfolioService()
    service.register_market("m", build_experiment_data(config).test)
    small = dict(
        observation=config.observation, hidden_sizes=(8, 8), timesteps=2,
        encoder_pop_size=2, decoder_pop_size=2, seed=0,
    )
    for session_id in ("a", "b"):
        service.create_session(session_id, "sdp", params=small, market="m")
    service.create_session("o", "ons", market="m")
    root = service.save_checkpoint(tmp_path / "state")
    assert serving_chaos.check_state_dir(root) == []
    sizes = serving_chaos.state_dir_bytes(root)
    assert sorted(sizes) == [".", "agents", "markets", "sessions"]

    (agent,) = (root / "agents").iterdir()
    stray = root / "agents" / ("0" * 64 + ".npz")
    save_state_dict(stray, {"w": [1.0]})
    save_state_dict(root / "sessions" / "a" / "weights.npz", {"w": [1.0]})
    assert serving_chaos.check_state_dir(root) == [
        "1 per-session weights.npz files",
        "2 agent files for 1 distinct weight sets",
        f"agent file {stray.name} does not match its digest",
    ]
    agent.write_bytes(agent.read_bytes()[:100])
    (failure,) = serving_chaos.check_state_dir(root)
    assert failure.startswith("state dir does not load: CheckpointCorrupt")
