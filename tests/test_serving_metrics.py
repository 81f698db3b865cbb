"""Serving counters have one home, a metrics registry: ``stats`` objects
are reads of it, so ``/stats`` and ``/metrics`` cannot disagree.

Covers requests counted where sessions commit, dispatch on the
query-stripped path, a forked worker counting only its own work under
an inherited enabled handle, and ``/stats`` ≡ ``/metrics`` for an
in-process service and a 1-worker supervisor, with obs off and on."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs import EventLog, Obs, read_events, use_obs
from repro.resilience import FaultPlan, ServingFaults
from repro.serving import (
    PortfolioService,
    RebalanceRequest,
    ServingResilience,
    ServingSupervisor,
)
from repro.serving.http import serve
from repro.serving.service import _Slot

# Each numeric front scalar of /stats and the series it is read from.
NATIVE = {
    "service": {
        "requests_served": "repro_requests_total",
        "batched_forwards": "repro_batched_forwards_total",
        "single_decisions": "repro_single_decisions_total",
        "largest_batch": "repro_largest_batch",
        "sessions_created": "repro_sessions_created_total",
        "degraded_responses": "repro_degraded_responses_total",
        "breaker_trips": "repro_breaker_trips_total",
    },
    "batcher": {
        "submitted": "repro_batcher_submitted_total",
        "queue_rejections": "repro_batcher_rejections_total",
        "deadline_expirations": "repro_batcher_deadline_expirations_total",
        "max_queue_depth": "repro_batcher_max_queue_depth",
    },
    "supervisor": {
        "requests_served": "repro_requests_total",
        "batches_dispatched": "repro_batches_dispatched_total",
        "worker_restarts": "repro_worker_restarts_total",
        "failovers": "repro_failovers_total",
        "shed_requests": "repro_shed_requests_total",
        "inflight": "repro_supervisor_inflight",
        "workers": "repro_supervisor_workers",
    },
}

SESSIONS = ("s0", "s1", "s2", "s3")
# s0 and s1 share one small SDP agent (batched forwards); s2 and s3
# run the stateful ``ucrp`` (single decisions).
SMALL_SDP = dict(
    hidden_sizes=(8, 8), timesteps=3, encoder_pop_size=2, decoder_pop_size=2
)


def create_sessions(backend):
    for sid in SESSIONS:
        if sid in ("s0", "s1"):
            backend.create_session(sid, "sdp", params=SMALL_SDP, market="m")
        else:
            backend.create_session(sid, "ucrp", market="m")


@pytest.fixture(scope="module")
def panel():
    from repro.experiments import build_experiment_data, make_config

    return build_experiment_data(make_config(1, profile="quick")).test


class _Front:
    """A served backend plus small HTTP helpers."""

    def __init__(self, backend, **kwargs):
        self.server = serve(backend, port=0, **kwargs)
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.base = f"http://{host}:{port}"

    def get(self, path):
        with urllib.request.urlopen(self.base + path) as rsp:
            return rsp.status, rsp.read().decode()

    def post(self, path, payload):
        request = urllib.request.Request(
            self.base + path,
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request) as rsp:
                return rsp.status
        except urllib.error.HTTPError as exc:
            exc.close()
            return exc.code

    def close(self):
        self.server.shutdown()
        self.server.server_close()


def unlabelled_samples(page):
    samples = {}
    for line in page.splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, _, value = line.rpartition(" ")
            samples[name] = float(value)
    return samples


def assert_stats_match_metrics(stats, page):
    """Every numeric front scalar on /stats equals its series on
    /metrics; a scalar without a native series fails."""
    samples = unlabelled_samples(page)
    compared = 0
    for section, fields in stats.items():
        if not isinstance(fields, dict):
            continue
        for key, value in fields.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            series = NATIVE[section][key]
            assert samples.get(series) == value, (section, key, series)
            compared += 1
    top = {
        k for k, v in stats.items()
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    }
    assert top == {"uptime_seconds"}
    return compared


# ----------------------------------------------------------------------
class TestRequestsCountedAtCommit:
    def test_unknown_session_in_a_resilient_batch(self, panel):
        """``[known, unknown]`` on a breaker-armed service: the known
        session commits in the one-at-a-time replay before the unknown
        one raises, and every count of it reads 1."""
        service = PortfolioService(resilience=ServingResilience())
        service.register_market("m", panel)
        service.create_session("a", strategy="ucrp", market="m")
        with pytest.raises(KeyError, match="nope"):
            service.rebalance_many(
                [RebalanceRequest("a"), RebalanceRequest("nope")]
            )
        counters = service.metrics.snapshot()["counters"]
        assert service.stats.requests_served == 1
        assert counters["repro_requests_total"] == 1.0
        assert service.describe_session("a").decisions == 1

    def test_stats_are_frozen_reads(self, panel):
        service = PortfolioService()
        service.register_market("m", panel)
        service.create_session("a", strategy="ucrp", market="m")
        before = service.stats
        service.rebalance("a")
        assert before.requests_served == 0
        assert service.stats.requests_served == 1
        with pytest.raises(AttributeError):
            before.requests_served = 5


# ----------------------------------------------------------------------
class TestQueryStrings:
    def test_dispatch_and_route_label_read_the_stripped_path(self, panel):
        service = PortfolioService()
        service.register_market("m", panel)
        service.create_session("a", strategy="ucrp", market="m")
        front = _Front(service, micro_batch=False)
        try:
            status, body = front.get("/healthz?x=1")
            assert status == 200 and json.loads(body)["status"] == "ok"
            status, page = front.get("/metrics?x=1")
            assert status == 200
            assert 'route="/healthz"' in page
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                front.get("/sessions/abc?x=1")
            assert exc_info.value.code == 404
            exc_info.value.close()
            assert front.post("/rebalance?x=1", {"session_id": "a"}) == 200
        finally:
            front.close()
        counters = service.metrics.snapshot()["counters"]
        routes = {key for key in counters if key.startswith("repro_http")}
        assert 'repro_http_requests_total{method="GET",route="/healthz"}' in routes
        assert 'repro_http_requests_total{method="GET",route="/sessions/*"}' in routes
        assert 'repro_http_requests_total{method="POST",route="/rebalance"}' in routes
        assert not any("?" in key for key in routes)


# ----------------------------------------------------------------------
class TestForkedWorkerCounts:
    def test_worker_stats_count_only_its_own_rounds(self, tmp_path, panel):
        """An enabled global handle with counts already in it, inherited
        by every forked worker: each worker's stats still start at zero,
        and its events still reach the inherited log."""
        log = tmp_path / "events.jsonl"
        obs = Obs(events=EventLog(path=log))
        obs.counter("repro_requests_total").inc(5)
        plan = FaultPlan(
            seed=0, serving=ServingFaults(worker_crash_batches=((0, 1),))
        )
        with use_obs(obs):
            with ServingSupervisor(
                tmp_path / "state", workers=1, faults=plan
            ) as sup:
                sup.register_market("m", panel)
                sup.create_session("a", strategy="ucrp", market="m")

                def worker_served():
                    (entry,) = sup.stats_dict()["workers"]
                    return entry["detail"]["service"]["requests_served"]

                sup.rebalance("a")  # batch 0, first worker
                assert worker_served() == 1
                # Batch 1 kills the first worker after its commit; the
                # re-forked worker replays it, then serves two more.
                for _ in range(3):
                    sup.rebalance("a")
                assert sup.stats.worker_restarts == 1
                assert worker_served() == 3
                # The supervisor itself counts into the handle's registry.
                assert sup.stats.requests_served == 5 + 4
        obs.close()
        fired = [r for r in read_events(log) if r["kind"] == "fault_fired"]
        assert [r["site"] for r in fired] == ["serving.worker_crash"]


# ----------------------------------------------------------------------
def _faults(**kw):
    # Seed 3 fails some (session, t) forwards in the first rounds, so
    # the breaker trips and serves degraded responses.
    return FaultPlan(seed=3, serving=ServingFaults(forward_error_rate=0.2, **kw))


RESILIENCE = ServingResilience(failure_threshold=1, cooldown_decisions=1)
BATCH = {"requests": [{"session_id": s} for s in SESSIONS]}


@pytest.mark.parametrize("observed", [False, True], ids=["obs-off", "obs-on"])
class TestStatsAgreeWithMetrics:
    def test_in_process_service_behind_a_batcher(self, panel, observed):
        service = PortfolioService(
            resilience=RESILIENCE, faults=_faults(),
            obs=Obs() if observed else None,
        )
        service.register_market("m", panel)
        create_sessions(service)
        front = _Front(service, max_queue=1, max_wait=0.001)
        try:
            for _ in range(6):
                assert front.post("/rebalance/batch", BATCH) == 200
            for sid in SESSIONS:
                assert front.post("/rebalance", {"session_id": sid}) == 200
            # Shed at admission: the queue is held full by a stand-in.
            batcher = front.server.batcher
            with batcher._cond:
                batcher._pending.append((RebalanceRequest("s0"), _Slot()))
            assert front.post("/rebalance", {"session_id": "s0"}) == 429
            with batcher._cond:
                batcher._pending.clear()
            stats = json.loads(front.get("/stats")[1])
            page = front.get("/metrics")[1]
        finally:
            front.close()
        assert assert_stats_match_metrics(stats, page) == 11
        assert stats["service"]["degraded_responses"] >= 1
        assert stats["service"]["batched_forwards"] >= 1
        assert stats["batcher"]["queue_rejections"] == 1

    def test_one_worker_supervisor(self, tmp_path, panel, observed):
        sup = ServingSupervisor(
            tmp_path / "state", workers=1, resilience=RESILIENCE,
            faults=_faults(worker_crash_batches=((0, 0),)), max_pending=1,
            obs=Obs() if observed else None,
        )
        with sup:
            sup.register_market("m", panel)
            create_sessions(sup)
            front = _Front(sup)
            try:
                for _ in range(6):
                    assert front.post("/rebalance/batch", BATCH) == 200
                assert front.post("/rebalance", {"session_id": "s0"}) == 200
                # Shed at the front: one admitted batch holds it full.
                token = sup._admit([RebalanceRequest("s1")])
                try:
                    assert front.post("/rebalance/batch", BATCH) == 429
                finally:
                    sup._release(token)
                stats = json.loads(front.get("/stats")[1])
                page = front.get("/metrics")[1]
            finally:
                front.close()
        assert assert_stats_match_metrics(stats, page) == 7
        front_stats = stats["supervisor"]
        assert front_stats["failovers"] == front_stats["worker_restarts"] == 1
        assert front_stats["shed_requests"] == len(SESSIONS)
        (worker,) = stats["workers"]
        assert worker["detail"]["service"]["degraded_responses"] >= 1
