"""Tests for the supervised multi-worker serving tier.

Covers the :class:`~repro.serving.ServingSupervisor` contracts: market-
hash routing, single-worker bit-parity with the in-process service,
two-worker SDP parity under the per-worker BLAS thread budget,
crash-mid-batch failover with replay, heartbeat healing of idle deaths,
graceful drain (zero committed responses lost, store continuity across
a restart), LRU eviction + lazy rehydration, priority load shedding,
and the HTTP front's supervisor-aware routes.
"""

import json
import os
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.experiments import build_experiment_data, make_config, risk_regime_preset
from repro.resilience import FaultPlan, ServingFaults
from repro.serving import (
    CheckpointCorrupt,
    Draining,
    LoadShed,
    PortfolioService,
    RebalanceRequest,
    ServingSupervisor,
    SessionStateStore,
)
from repro.utils import blas
from repro.utils.rng import stable_hash


@pytest.fixture(scope="module")
def config():
    return make_config(1, profile="quick")


@pytest.fixture(scope="module")
def market(config):
    return build_experiment_data(config).test


@pytest.fixture(scope="module")
def market2():
    return build_experiment_data(make_config(2, profile="quick")).test


def two_market_names():
    """Two market names a 2-worker supervisor routes to distinct workers."""
    names = {}
    for i in range(64):
        names.setdefault(stable_hash(f"m{i}") % 2, f"m{i}")
        if len(names) == 2:
            return names[0], names[1]
    raise AssertionError("no hash split in 64 candidates")


def make_supervisor(tmp_path, market, market2=None, **kwargs):
    sup = ServingSupervisor(tmp_path / "state", **kwargs)
    name0, name1 = two_market_names()
    sup.register_market(name0, market)
    if market2 is not None:
        sup.register_market(name1, market2)
    return sup, name0, name1


def json_rounds(front, requests, rounds):
    out = []
    for _ in range(rounds):
        out.append([r.to_json_dict() for r in front.rebalance_many(requests)])
    return out


class TestRoutingAndParity:
    def test_routing_by_market_hash(self, tmp_path, market, market2):
        sup, name0, name1 = make_supervisor(
            tmp_path, market, market2, workers=2
        )
        with sup:
            assert sup.worker_of_market(name0) != sup.worker_of_market(name1)
            sup.create_session("a", "ucrp", market=name0)
            sup.create_session("b", "ucrp", market=name1)
            sup.create_session("c", "ons", market=name1)
            assert sup.session_ids() == ("a", "b", "c")
            infos = {i.session_id: i for i in sup.describe_sessions()}
            assert infos["c"].strategy == "ons"
            routed = {
                h.index: h.routed_sessions for h in sup.worker_health()
            }
            assert routed[sup.worker_of_market(name0)] == 1
            assert routed[sup.worker_of_market(name1)] == 2

    def test_requires_registered_market(self, tmp_path, market):
        sup, name0, _ = make_supervisor(tmp_path, market, workers=2)
        with sup:
            with pytest.raises(ValueError, match="require market="):
                sup.create_session("a", "ucrp")
            with pytest.raises(KeyError, match="unknown market"):
                sup.create_session("a", "ucrp", market="nope")
            with pytest.raises(ValueError, match="already exists"):
                sup.create_session("a", "ucrp", market=name0)
                sup.create_session("a", "ucrp", market=name0)

    def test_single_worker_bit_identical_to_in_process(
        self, tmp_path, market
    ):
        """The ISSUE's invariant: one worker, no fault plan == plain
        in-process service, byte for byte — including the risk book."""
        risk = risk_regime_preset("lockout")
        sup, name0, _ = make_supervisor(
            tmp_path, market, workers=1, risk=risk.build_engine()
        )
        requests = [RebalanceRequest("a"), RebalanceRequest("b")]
        with sup:
            sup.create_session("a", "ons", market=name0)
            sup.create_session("b", "ucrp", market=name0)
            supervised = json_rounds(sup, requests, rounds=4)

        service = PortfolioService(risk=risk.build_engine())
        service.register_market(name0, market)
        service.create_session("a", "ons", market=name0)
        service.create_session("b", "ucrp", market=name0)
        assert supervised == json_rounds(service, requests, rounds=4)


    def test_two_workers_sdp_bit_identical_to_in_process(
        self, tmp_path, config, market, market2
    ):
        """SDP decisions run GEMMs; the workers run them on their BLAS
        thread budget, the in-process service on the parent's threads.
        The responses must still match byte for byte."""
        params = dict(
            observation=config.observation,
            hidden_sizes=(128, 128),
            timesteps=5,
            encoder_pop_size=10,
            decoder_pop_size=10,
            seed=0,
        )
        risk = risk_regime_preset("caps")
        sessions = [f"s{i}" for i in range(12)]
        requests = [RebalanceRequest(s) for s in sessions]

        def open_sessions(front, name0, name1):
            for i, session_id in enumerate(sessions):
                front.create_session(
                    session_id, "sdp", params=params,
                    market=(name0, name1)[i % 2],
                )

        sup, name0, name1 = make_supervisor(
            tmp_path, market, market2, workers=2, risk=risk.build_engine()
        )
        with sup:
            open_sessions(sup, name0, name1)
            supervised = json_rounds(sup, requests, rounds=4)
            assert sup.stats.worker_restarts == 0

        service = PortfolioService(risk=risk.build_engine())
        service.register_market(name0, market)
        service.register_market(name1, market2)
        open_sessions(service, name0, name1)
        assert json.dumps(supervised) == json.dumps(
            json_rounds(service, requests, rounds=4)
        )


class TestBlasBudget:
    def test_each_worker_reads_back_its_budget(
        self, tmp_path, config, market, market2
    ):
        inherited = blas.blas_threads()
        if inherited is None:
            pytest.skip("no controllable OpenBLAS in this process")
        expected = min(inherited, max(1, blas.usable_cpus() // 2))
        sup, name0, name1 = make_supervisor(
            tmp_path, market, market2, workers=2
        )
        params = {"observation": config.observation}
        with sup:
            sup.create_session("a", "sdp", params=params, market=name0)
            sup.create_session("b", "sdp", params=params, market=name1)
            sup.rebalance_many([RebalanceRequest("a"), RebalanceRequest("b")])
            health = sup.worker_health()
            assert [h.blas_threads for h in health] == [expected, expected]
            details = [w["detail"] for w in sup.stats_dict()["workers"]]
            assert [d["blas_threads"] for d in details] == [
                expected, expected,
            ]
            if expected == 1 and os.path.isdir("/proc/self/task"):
                # One BLAS thread needs no OpenBLAS pool: after their
                # GEMMs the workers still run their main thread only.
                assert [
                    len(os.listdir(f"/proc/{h.pid}/task")) for h in health
                ] == [1, 1]
        # The parent's own setting is untouched.
        assert blas.blas_threads() == inherited

    def test_no_controllable_blas_serves_and_reports_none(
        self, tmp_path, market, monkeypatch
    ):
        monkeypatch.setattr(blas, "_CONTROLS", None)
        assert blas.worker_budget(2) is None
        sup, name0, _ = make_supervisor(tmp_path, market, workers=2)
        with sup:
            sup.create_session("a", "ucrp", market=name0)
            decision = sup.rebalance("a")
            assert np.isclose(decision.weights.sum(), 1.0)
            assert [h.blas_threads for h in sup.worker_health()] == [None, None]
            details = [w["detail"] for w in sup.stats_dict()["workers"]]
            assert [d["blas_threads"] for d in details] == [None, None]


class TestFailover:
    def test_crash_mid_batch_replays_bit_identically(
        self, tmp_path, market, market2
    ):
        """A worker killed mid-batch (after commit, before persist) is
        restarted; the replay rehydrates from the store and recomputes
        the identical decisions — the fault-free run, byte for byte."""
        requests = [RebalanceRequest(s) for s in ("a", "b", "c")]

        def run(root, faults):
            sup, name0, name1 = make_supervisor(
                root, market, market2, workers=2, faults=faults
            )
            with sup:
                sup.create_session("a", "ons", market=name0)
                sup.create_session("b", "ons", market=name1)
                sup.create_session("c", "ucrp", market=name1)
                rounds = json_rounds(sup, requests, rounds=4)
                return rounds, sup.stats, sup.stats_dict(), name1

        healthy, _, _, name1 = run(tmp_path / "healthy", None)
        victim = stable_hash(name1) % 2
        plan = FaultPlan(
            seed=0,
            serving=ServingFaults(worker_crash_batches=((victim, 1),)),
        )
        chaos, stats, stats_dict, _ = run(tmp_path / "chaos", plan)

        assert chaos == healthy
        assert stats.worker_restarts == 1
        assert stats.failovers == 1
        report = stats_dict["failovers"][0]
        assert report["worker"] == victim
        flags = {
            s["session_id"]: s["round_in_flight"]
            for s in report["sessions"]
        }
        assert flags == {"b": True, "c": True}  # a lives on the other worker

    def test_heartbeat_restarts_idle_death(self, tmp_path, market):
        sup, name0, _ = make_supervisor(tmp_path, market, workers=2)
        with sup:
            sup.create_session("a", "ons", market=name0)
            before = [r.to_json_dict() for r in sup.rebalance_many(
                [RebalanceRequest("a")]
            )]
            victim = sup._workers[sup.worker_of_market(name0)]
            victim.process.terminate()
            victim.process.join(timeout=5.0)
            assert sup.check_workers() == [victim.index]
            assert victim.alive
            assert sup.stats.worker_restarts == 1
            after = [r.to_json_dict() for r in sup.rebalance_many(
                [RebalanceRequest("a")]
            )]

        service = PortfolioService()
        service.register_market(name0, market)
        service.create_session("a", "ons", market=name0)
        assert before == [service.rebalance("a").to_json_dict()]
        assert after == [service.rebalance("a").to_json_dict()]

    def test_unknown_session_rejected_at_front(self, tmp_path, market):
        sup, _, _ = make_supervisor(tmp_path, market, workers=2)
        with sup:
            with pytest.raises(KeyError, match="unknown session"):
                sup.rebalance("ghost")


class TestBenchScaleLoad:
    """The supervised tier at load-test scale: eight (128, 128) SDP
    sessions over two markets, one per worker, for ten rounds."""

    SESSIONS = [f"s{i}" for i in range(8)]

    def open_sessions(self, front, markets, params):
        names = sorted(markets)
        for name in names:
            front.register_market(name, markets[name])
        for i, session_id in enumerate(self.SESSIONS):
            front.create_session(
                session_id, "sdp", params=params, market=names[i % 2]
            )

    def run_supervised(self, root, markets, params, workers, faults=None):
        """Ten rounds, then a drain; returns the response payloads, the
        restart count, the sessions still routed and those drained."""
        requests = [RebalanceRequest(s) for s in self.SESSIONS]
        with ServingSupervisor(root, workers=workers, faults=faults) as sup:
            self.open_sessions(sup, markets, params)
            responses = json_rounds(sup, requests, rounds=10)
            drained = sup.drain(timeout=60.0)["sessions_checkpointed"]
            return (
                responses, sup.stats.worker_restarts,
                len(sup.session_ids()), drained,
            )

    @pytest.fixture(scope="class")
    def markets(self, bench_panels):
        return dict(zip(two_market_names(), bench_panels[:2]))

    def test_single_worker_bit_identical_to_in_process(
        self, tmp_path, markets, bench_sdp_params
    ):
        supervised, restarts, _, _ = self.run_supervised(
            tmp_path / "state", markets, bench_sdp_params, workers=1
        )
        service = PortfolioService()
        self.open_sessions(service, markets, bench_sdp_params)
        requests = [RebalanceRequest(s) for s in self.SESSIONS]
        assert restarts == 0
        assert supervised == json_rounds(service, requests, rounds=10)

    def test_worker_crash_mid_run_loses_nothing(
        self, tmp_path, markets, bench_sdp_params
    ):
        """The worker owning the first market dies at batch 5 (0-based,
        one batch per round): the run completes with a restart, the
        responses of the healthy run, every session routed and every
        session drained."""
        healthy, _, _, _ = self.run_supervised(
            tmp_path / "healthy", markets, bench_sdp_params, workers=2
        )
        victim = stable_hash(sorted(markets)[0]) % 2
        plan = FaultPlan(
            seed=0,
            serving=ServingFaults(worker_crash_batches=((victim, 5),)),
        )
        chaos, restarts, routed, drained = self.run_supervised(
            tmp_path / "chaos", markets, bench_sdp_params, workers=2,
            faults=plan,
        )
        assert chaos == healthy
        assert restarts >= 1
        assert routed == drained == len(self.SESSIONS)


class TestDrainAndResume:
    def test_drain_under_load_loses_no_committed_response(
        self, tmp_path, market, market2
    ):
        """Drain mid-traffic: every response committed before the drain
        is the fault-free one, new work gets ``Draining``, and a fresh
        supervisor over the same store continues bit-identically."""
        sup, name0, name1 = make_supervisor(
            tmp_path, market, market2, workers=2
        )
        requests = [RebalanceRequest(s) for s in ("a", "b")]
        sup.create_session("a", "ons", market=name0)
        sup.create_session("b", "ons", market=name1)

        committed = []
        drained_seen = threading.Event()

        def pump():
            while True:
                try:
                    committed.append(
                        [r.to_json_dict() for r in sup.rebalance_many(requests)]
                    )
                except Draining:
                    drained_seen.set()
                    return

        thread = threading.Thread(target=pump, daemon=True)
        thread.start()
        while len(committed) < 2:
            time.sleep(0.01)
        report = sup.drain(timeout=30.0)
        thread.join(timeout=30.0)
        assert drained_seen.is_set()
        assert report["sessions_checkpointed"] == 2
        assert all(w["exit_code"] == 0 for w in report["workers"])
        with pytest.raises(Draining):
            sup.rebalance_many(requests)
        with pytest.raises(Draining):
            sup.create_session("c", "ucrp", market=name0)
        assert sup.drain() is report or sup.drain() == report  # idempotent

        # Reference: the uninterrupted in-process run.
        service = PortfolioService()
        service.register_market(name0, market)
        service.register_market(name1, market2)
        service.create_session("a", "ons", market=name0)
        service.create_session("b", "ons", market=name1)
        n = len(committed)
        reference = json_rounds(service, requests, rounds=n + 3)
        assert committed == reference[:n]

        # The drained state dir is itself a checkpoint.
        assert report["checkpoint"] == str(tmp_path / "state" / "checkpoint.json")
        restored = PortfolioService.load_checkpoint(tmp_path / "state")
        assert restored.session_ids() == ("a", "b")
        assert json_rounds(restored, requests, rounds=3) == reference[n:]

        # Store continuity: a fresh supervisor resumes every session
        # and serves the next rounds bit-identically.
        resumed = ServingSupervisor(tmp_path / "state", workers=2)
        with resumed:
            assert resumed.session_ids() == ("a", "b")
            assert json_rounds(resumed, requests, rounds=3) == reference[n:]

        # And the converse: a supervisor opened over a directory
        # written by save_checkpoint resumes every session, at the
        # checkpoint's (non-default) commission.
        saved = PortfolioService(commission=0.01)
        saved.register_market(name0, market)
        saved.register_market(name1, market2)
        saved.create_session("a", "ons", market=name0)
        saved.create_session("b", "ons", market=name1)
        json_rounds(saved, requests, rounds=n)
        saved.save_checkpoint(tmp_path / "ckpt")
        with pytest.raises(ValueError, match="commission"):
            ServingSupervisor(tmp_path / "ckpt", workers=1, commission=0.002)
        with ServingSupervisor(tmp_path / "ckpt", workers=2) as from_checkpoint:
            assert from_checkpoint.commission == 0.01
            assert from_checkpoint.session_ids() == ("a", "b")
            assert json_rounds(
                from_checkpoint, requests, rounds=3
            ) == json_rounds(saved, requests, rounds=3)
            from_checkpoint.drain(timeout=30.0)
        assert PortfolioService.load_checkpoint(tmp_path / "ckpt").commission == 0.01


class TestResidency:
    def test_lru_eviction_rehydrates_bit_identically(
        self, tmp_path, market
    ):
        """``max_resident=1`` forces an evict/rehydrate cycle on every
        alternating request; decisions — including drifted risk state —
        must match the always-resident in-process reference."""
        risk = risk_regime_preset("lockout")
        sup, name0, _ = make_supervisor(
            tmp_path, market, workers=1, max_resident=1,
            risk=risk.build_engine(),
        )
        with sup:
            sup.create_session("a", "ons", market=name0)
            sup.create_session("b", "ons", market=name0)
            supervised = []
            for _ in range(4):
                supervised.append(sup.rebalance("a").to_json_dict())
                supervised.append(sup.rebalance("b").to_json_dict())
            detail = sup.stats_dict()["workers"][0]["detail"]
            assert detail["resident_sessions"] == 1
            assert detail["evicted"] >= 2
            assert detail["rehydrated"] >= 2

        service = PortfolioService(risk=risk.build_engine())
        service.register_market(name0, market)
        service.create_session("a", "ons", market=name0)
        service.create_session("b", "ons", market=name0)
        reference = []
        for _ in range(4):
            reference.append(service.rebalance("a").to_json_dict())
            reference.append(service.rebalance("b").to_json_dict())
        assert supervised == reference


class TestLoadShedding:
    def test_low_priority_shed_high_priority_admitted(
        self, tmp_path, market
    ):
        """With the front saturated (one slow round in flight), a
        same-priority request is shed with the structured 429 marker
        while a higher-priority one is admitted and served."""
        plan = FaultPlan(
            seed=0,
            serving=ServingFaults(slow_rate=1.0, slow_seconds=0.6),
        )
        sup, name0, _ = make_supervisor(
            tmp_path, market, workers=1, max_pending=1, faults=plan
        )
        with sup:
            sup.create_session("a", "ucrp", market=name0)
            with ThreadPoolExecutor(max_workers=1) as pool:
                slow = pool.submit(sup.rebalance, "a")
                while sup.inflight == 0 and not slow.done():
                    time.sleep(0.005)
                with pytest.raises(LoadShed, match="at capacity"):
                    sup.rebalance_many([RebalanceRequest("a", priority=0)])
                assert sup.stats.shed_requests == 1
                urgent = sup.rebalance_many(
                    [RebalanceRequest("a", priority=5)]
                )
                assert len(urgent) == 1
                assert slow.result(timeout=30.0).t < urgent[0].t

    def test_idle_front_always_admits(self, tmp_path, market):
        sup, name0, _ = make_supervisor(
            tmp_path, market, workers=1, max_pending=1
        )
        with sup:
            sup.create_session("a", "ucrp", market=name0)
            sup.create_session("b", "ucrp", market=name0)
            # An oversized batch on an idle front must not shed.
            responses = sup.rebalance_many(
                [RebalanceRequest("a"), RebalanceRequest("b")]
            )
            assert len(responses) == 2


class TestSessionStateStore:
    def test_market_names_are_write_once(self, tmp_path, market, market2):
        store = SessionStateStore(tmp_path)
        store.save_market("m", market)
        store.save_market("m", market2)  # ignored: first write wins
        assert store.market_names() == ("m",)
        loaded = store.load_market("m")
        assert np.array_equal(loaded.close, market.close)

    def test_session_round_trip_and_corruption(self, tmp_path, market):
        service = PortfolioService()
        service.register_market("m", market)
        service.create_session("s!/1", "ons", market="m")
        service.rebalance("s!/1")
        store = SessionStateStore(tmp_path)
        store.save_session(service.export_session("s!/1"))
        assert store.session_ids() == ("s!/1",)

        other = PortfolioService()
        other.register_market("m", market)
        other.import_session(store.load_session("s!/1"))
        assert (
            other.rebalance("s!/1").to_json_dict()
            == service.rebalance("s!/1").to_json_dict()
        )

        state_file = tmp_path / "sessions" / "s%21%2F1" / "state.json"
        state_file.write_text("{ not json")
        with pytest.raises(CheckpointCorrupt):
            store.load_session("s!/1")

    def test_lru_overflow_order(self, tmp_path):
        store = SessionStateStore(tmp_path, max_resident=2)
        for sid in ("a", "b", "c"):
            store.touch(sid)
        assert store.overflow() == ["a"]
        assert store.resident_ids() == ("b", "c")
        store.touch("b")  # refresh: c is now least recent
        store.touch("d")
        assert store.overflow() == ["c"]


class TestHTTPFront:
    def test_supervisor_routes_and_drain_503(
        self, tmp_path, market
    ):
        from repro.serving.http import serve

        sup, name0, _ = make_supervisor(tmp_path, market, workers=2)
        server = serve(sup, port=0, micro_batch=False)
        host, port = server.server_address
        base = f"http://{host}:{port}"
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()

        def get(path):
            with urllib.request.urlopen(f"{base}{path}") as response:
                return json.loads(response.read())

        def post(path, payload):
            request = urllib.request.Request(
                f"{base}{path}",
                data=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request) as response:
                return json.loads(response.read())

        try:
            post(
                "/sessions",
                {"session_id": "a", "strategy": "ucrp", "market": name0},
            )
            decision = post("/rebalance", {"session_id": "a", "priority": 1})
            assert "weights" in decision

            health = get("/health")
            assert health["status"] == "ok"
            assert [w["alive"] for w in health["workers"]] == [True, True]
            budget = blas.worker_budget(2)
            assert [w["blas_threads"] for w in health["workers"]] == [
                budget, budget,
            ]
            assert health["failovers"] == 0
            stats = get("/stats")
            assert stats["supervisor"]["requests_served"] == 1
            assert len(stats["workers"]) == 2
            assert [w["blas_threads"] for w in stats["workers"]] == [
                budget, budget,
            ]

            sup.drain(timeout=30.0)
            assert get("/health")["status"] == "draining"
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                post("/rebalance", {"session_id": "a"})
            assert exc_info.value.code == 503
            body = json.loads(exc_info.value.read())
            assert "draining" in body["error"]
        finally:
            server.shutdown()
            server.server_close()
            sup.close()
