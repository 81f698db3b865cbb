"""Tests for the supervised multi-worker serving tier.

Covers the :class:`~repro.serving.ServingSupervisor` contracts: market-
hash routing, single-worker bit-parity with the in-process service,
two-worker SDP parity under the per-worker BLAS thread budget,
crash-mid-batch failover with replay, heartbeat healing of idle deaths,
graceful drain (zero committed responses lost, store continuity across
a restart), LRU eviction + lazy rehydration, the group-commit journal's
recovery paths (a crash after the append, a torn tail, a changed worker
count) and the rehydration sidecar skip, priority load shedding, and
the HTTP front's supervisor-aware routes.
"""

import json
import os
import shutil
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
    MicroBatcher,
    PortfolioService,
    RebalanceRequest,
    ServingSupervisor,
    SessionStateStore,
)
from repro.serving.store import JOURNAL_SNAPSHOTS, read_checkpoint
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

    def test_crash_after_eviction_replays_from_the_journal(
        self, tmp_path, market
    ):
        """Eviction writes no snapshot, so an evicted session's newest
        state may exist only in the journal.  A worker killed then (mid
        batch, before its append) is succeeded by one that replays the
        journal; every session still answers like the in-process
        service."""
        risk = risk_regime_preset("lockout")
        order = ["a", "b"] * 4
        plan = FaultPlan(
            seed=0, serving=ServingFaults(worker_crash_batches=((0, 2),))
        )
        sup, name0, _ = make_supervisor(
            tmp_path, market, workers=1, max_resident=1,
            risk=risk.build_engine(), faults=plan,
        )
        reader = SessionStateStore(tmp_path / "state")
        with sup:
            sup.create_session("a", "ons", market=name0)
            sup.create_session("b", "ons", market=name0)
            supervised = [sup.rebalance(sid).to_json_dict() for sid in order[:2]]
            # Batch 2 rehydrates a, evicted after batch 1 with its round
            # journaled but never snapshotted.
            assert reader.load_session_record("a")["state"]["decisions"] == 0
            assert reader.journaled_records()["a"]["state"]["decisions"] == 1
            supervised += [sup.rebalance(sid).to_json_dict() for sid in order[2:]]
            assert sup.stats.worker_restarts == 1

        service = in_process(
            {name0: market},
            [("a", "ons", {}, name0), ("b", "ons", {}, name0)],
            risk.build_engine(),
        )
        assert supervised == [
            service.rebalance(sid).to_json_dict() for sid in order
        ]

    def test_eviction_writes_no_snapshot(self, tmp_path, market):
        """An evicted session's ``state.json`` keeps its create-time
        bytes across evict, rehydrate and serve cycles; ``drain()``
        writes out its last journaled record."""
        sup, name0, _ = make_supervisor(
            tmp_path, market, workers=1, max_resident=1
        )
        root = tmp_path / "state"
        snapshots = {sid: root / "sessions" / sid / "state.json" for sid in "ab"}
        with sup:
            sup.create_session("a", "ons", market=name0)
            sup.create_session("b", "ucrp", market=name0)
            created = {sid: path.read_bytes() for sid, path in snapshots.items()}
            for _ in range(4):
                for sid in "ab":
                    sup.rebalance(sid)
                    assert {
                        s: path.read_bytes() for s, path in snapshots.items()
                    } == created
            detail = sup.stats_dict()["workers"][0]["detail"]
            assert detail["evicted"] >= 8 and detail["rehydrated"] >= 7
            journaled = SessionStateStore(root).journaled_records()
            assert [journaled[sid]["state"]["decisions"] for sid in "ab"] == [4, 4]
            sup.drain(timeout=30.0)
        for sid, path in snapshots.items():
            assert json.loads(path.read_bytes()) == journaled[sid]


SDP_PARAMS = dict(hidden_sizes=(16, 16), timesteps=3, encoder_pop_size=4,
                  decoder_pop_size=4, seed=0)


def in_process(markets, sessions, risk=None):
    """A plain service with ``markets`` registered and ``sessions``
    (``(id, strategy, params, market)``) opened."""
    service = PortfolioService(risk=risk)
    for name, data in markets.items():
        service.register_market(name, data)
    for session_id, strategy, params, name in sessions:
        service.create_session(session_id, strategy, params=params, market=name)
    return service


class TestJournal:
    """Each committed batch is one journal append; compaction turns
    journals into snapshots.  Every recovery path must serve what an
    uninterrupted in-process service serves."""

    def open(self, sup, sessions):
        for session_id, strategy, params, name in sessions:
            sup.create_session(session_id, strategy, params=params, market=name)

    def test_crash_after_append_answers_replay_from_journal(
        self, tmp_path, market, monkeypatch
    ):
        """A worker that dies after journaling a batch but before
        replying is replayed; its successor answers from the journal, so
        the round is applied once and the client sees its decision."""
        name0, _ = two_market_names()
        sessions = [("a", "ons", {}, name0), ("b", "ucrp", {}, name0)]
        requests = [RebalanceRequest("a"), RebalanceRequest("b")]

        def run(root):
            sup, _, _ = make_supervisor(root, market, workers=1)
            with sup:
                self.open(sup, sessions)
                rounds = json_rounds(sup, requests, rounds=5)
                return rounds, sup.describe_sessions(), sup.stats.worker_restarts

        healthy = run(tmp_path / "healthy")
        commit = SessionStateStore.commit
        fired = tmp_path / "fired"

        def crash_after_append(self, batch, payloads, responses):
            commit(self, batch, payloads, responses)
            if batch == 2 and not fired.exists():
                fired.touch()
                os._exit(1)

        monkeypatch.setattr(SessionStateStore, "commit", crash_after_append)
        rounds, infos, restarts = run(tmp_path / "chaos")
        assert fired.exists() and restarts == 1
        assert (rounds, infos) == healthy[:2]

    def test_torn_tail_resumes_at_last_acknowledged_round(
        self, tmp_path, market
    ):
        name0, _ = two_market_names()
        sessions = [("a", "ons", {}, name0), ("b", "ucrp", {}, name0)]
        requests = [RebalanceRequest("a"), RebalanceRequest("b")]
        sup, _, _ = make_supervisor(tmp_path, market, workers=1)
        with sup:
            self.open(sup, sessions)
            json_rounds(sup, requests, rounds=3)
        journal = tmp_path / "state" / "journal" / "0"
        data = journal.read_bytes()
        journal.write_bytes(data[: len(data) - 10])  # cut the third append

        reference = json_rounds(
            in_process({name0: market}, sessions), requests, rounds=4
        )
        with ServingSupervisor(tmp_path / "state", workers=1) as resumed:
            assert [i.decisions for i in resumed.describe_sessions()] == [2, 2]
            assert json_rounds(resumed, requests, rounds=2) == reference[2:]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_undrained_dir_resumes_under_another_worker_count(
        self, tmp_path, market, market2, workers
    ):
        name0, name1 = two_market_names()
        sessions = [
            ("a", "ons", {}, name0),
            ("b", "ucrp", {}, name1),
            ("c", "ons", {}, name1),
        ]
        requests = [RebalanceRequest(s) for s, *_ in sessions]
        sup, _, _ = make_supervisor(tmp_path, market, market2, workers=2)
        with sup:  # closed without draining: the journals hold the rounds
            self.open(sup, sessions)
            before = json_rounds(sup, requests, rounds=3)
        assert any(p.stat().st_size for p in (tmp_path / "state" / "journal").iterdir())

        reference = json_rounds(
            in_process({name0: market, name1: market2}, sessions),
            requests, rounds=6,
        )
        assert before == reference[:3]
        with ServingSupervisor(tmp_path / "state", workers=workers) as resumed:
            assert json_rounds(resumed, requests, rounds=3) == reference[3:]

    def test_evicted_sessions_describe_like_in_process(self, tmp_path, market):
        name0, _ = two_market_names()
        sessions = [
            (f"s{i}", ("ons", "ucrp")[i % 2], {}, name0) for i in range(5)
        ]
        risk = risk_regime_preset("lockout")
        service = in_process({name0: market}, sessions, risk.build_engine())
        sup, _, _ = make_supervisor(
            tmp_path, market, workers=1, max_resident=2,
            risk=risk.build_engine(),
        )
        with sup:
            self.open(sup, sessions)
            for round_ in range(6):
                batch = [
                    RebalanceRequest(f"s{(2 * round_ + j) % 5}") for j in range(2)
                ]
                assert [r.to_json_dict() for r in sup.rebalance_many(batch)] == [
                    r.to_json_dict() for r in service.rebalance_many(batch)
                ]
            assert sup.stats_dict()["workers"][0]["detail"]["evicted"] >= 3
            assert sup.describe_sessions() == service.describe_sessions()

    def test_dead_worker_sessions_describe_from_its_journal(
        self, tmp_path, market
    ):
        """While a dead worker awaits its restart, its sessions are
        described from its journal, which is newer than their
        snapshots."""
        name0, _ = two_market_names()
        sessions = [("a", "ons", {}, name0), ("b", "ucrp", {}, name0)]
        requests = [RebalanceRequest("a"), RebalanceRequest("b")]
        service = in_process({name0: market}, sessions)
        json_rounds(service, requests, rounds=3)
        sup, _, _ = make_supervisor(
            tmp_path, market, workers=1, heartbeat_interval=60.0
        )
        with sup:
            self.open(sup, sessions)
            json_rounds(sup, requests, rounds=3)
            victim = sup._workers[0]
            victim.process.terminate()
            victim.process.join(timeout=5.0)
            assert sup.describe_sessions() == service.describe_sessions()

    def test_drained_dir_has_empty_journal_and_loads(
        self, tmp_path, market, market2
    ):
        name0, name1 = two_market_names()
        sessions = [("a", "ons", {}, name0), ("b", "ucrp", {}, name1)]
        requests = [RebalanceRequest("a"), RebalanceRequest("b")]
        sup, _, _ = make_supervisor(tmp_path, market, market2, workers=2)
        with sup:
            self.open(sup, sessions)
            json_rounds(sup, requests, rounds=3)
            sup.drain(timeout=30.0)
        root = tmp_path / "state"
        assert list((root / "journal").iterdir()) == []
        _, markets, payloads = read_checkpoint(root)
        assert sorted(markets) == sorted([name0, name1])
        assert [p["state"]["decisions"] for p in payloads] == [3, 3]
        reference = json_rounds(
            in_process({name0: market, name1: market2}, sessions),
            requests, rounds=5,
        )
        restored = PortfolioService.load_checkpoint(root)
        assert json_rounds(restored, requests, rounds=2) == reference[3:]

    def test_store_commit_compact_and_torn_tail(self, tmp_path, market):
        service = in_process({"m": market}, [("a", "ons", {}, "m")])
        store = SessionStateStore(tmp_path)
        store.save_session(service.export_session("a"))
        assert store.open_journal(0) is None
        for batch in range(3):
            response = service.rebalance("a")
            store.commit(
                batch, [service.export_session("a", weights=False)],
                [response.to_json_dict()],
            )
        # The snapshot is still the create's; the journal-owning store
        # reads the newest record from its journal index.
        reader = SessionStateStore(tmp_path)
        assert reader.load_session_record("a")["state"]["decisions"] == 0
        newest = {**service.export_session("a", weights=False), "weights": None}
        assert store.load_session_record("a") == newest
        assert store.load_session_record("a")["state"]["decisions"] == 3
        assert store.journaled_records()["a"] == newest
        journal = tmp_path / "journal" / "0"
        journal.write_bytes(journal.read_bytes()[:-1])  # tear batch 2

        # A successor replays what survives: batch 1 is the last commit.
        successor = SessionStateStore(tmp_path)
        batch, responses = successor.open_journal(0)
        assert batch == 1 and responses[0]["t"] == response.t - 1
        assert reader.load_session_record("a")["state"]["decisions"] == 2
        assert successor.journaled_records() == {}  # only the batch header

        # Compaction is due once the journal outgrows its bound.
        commits = 0
        while not successor.journal_full():
            successor.commit(commits, [service.export_session("a", weights=False)], [])
            commits += 1
        assert 0 < commits <= JOURNAL_SNAPSHOTS
        successor.compact()
        assert journal.stat().st_size == 0
        assert reader.load_session_record("a")["state"]["decisions"] == 3
        store.close()
        successor.close()

    def test_journal_stays_bounded_without_eviction_compaction(
        self, tmp_path, market
    ):
        """Commits cycling over more sessions than ``max_resident``,
        evicting as a worker does but never compacting for it: the
        journal stays within ``JOURNAL_SNAPSHOTS`` times its journaled
        bytes plus one frame, ``journal_full`` compacts it, and the
        compaction writes exactly the index's records."""
        ids = [f"s{i}" for i in range(5)]
        service = in_process({"m": market}, [(sid, "ucrp", {}, "m") for sid in ids])
        store = SessionStateStore(tmp_path, max_resident=2)
        for sid in ids:
            store.save_session(service.export_session(sid))
        store.open_journal(0)
        reader = SessionStateStore(tmp_path)
        journal = tmp_path / "journal" / "0"

        def encoded(record):
            return len(json.dumps(record, sort_keys=True, separators=(",", ":")))

        compactions = evicted = 0
        for batch in range(200):
            batch_ids = [ids[(2 * batch + j) % len(ids)] for j in range(2)]
            responses = service.rebalance_many(
                [RebalanceRequest(sid) for sid in batch_ids]
            )
            for sid in batch_ids:
                store.touch(sid)
            before = journal.stat().st_size
            store.commit(
                batch,
                [service.export_session(sid, weights=False) for sid in batch_ids],
                [r.to_json_dict() for r in responses],
            )
            frame = journal.stat().st_size - before
            journaled = sorted(reader.journaled_records())
            index = {sid: store.load_session_record(sid) for sid in journaled}
            assert journal.stat().st_size <= JOURNAL_SNAPSHOTS * sum(
                encoded(record) for record in index.values()
            ) + frame
            evicted += len(store.overflow())  # dropped, never compacted
            if store.journal_full():
                store.compact()
                compactions += 1
                assert journal.stat().st_size == 0
                assert {sid: reader.load_session_record(sid) for sid in ids} == index
                if compactions == 2:
                    break
        assert compactions == 2 and evicted > batch
        for sid in ids:
            assert store.load_session_record(sid) == {
                **service.export_session(sid, weights=False), "weights": None
            }
        store.close()


class TestSidecarSkip:
    """Rehydration reads ``weights.npz`` only when the worker holds no
    agent under the session's key."""

    @pytest.mark.parametrize("damage", ["deleted", "torn"])
    def test_damaged_sidecar_unread_while_agent_resident(
        self, tmp_path, config, market, damage
    ):
        name0, _ = two_market_names()
        params = dict(observation=config.observation, **SDP_PARAMS)
        sessions = [("a", "sdp", params, name0), ("b", "sdp", params, name0)]
        service = in_process({name0: market}, sessions)
        sup, _, _ = make_supervisor(tmp_path, market, workers=1, max_resident=1)
        with sup:
            TestJournal().open(sup, sessions)  # b's create evicts a
            sidecar = tmp_path / "state" / "sessions" / "a" / "weights.npz"
            if damage == "deleted":
                sidecar.unlink()
            else:
                sidecar.write_bytes(sidecar.read_bytes()[:100])
            served, reference = [], []
            for session_id in ("a", "b", "a"):  # each touch rehydrates
                served.append(sup.rebalance(session_id).to_json_dict())
                reference.append(service.rebalance(session_id).to_json_dict())
            assert sup.stats_dict()["workers"][0]["detail"]["rehydrated"] == 3
        assert served == reference

    def test_torn_sidecar_without_resident_agent_is_corrupt(
        self, tmp_path, config, market
    ):
        name0, _ = two_market_names()
        params = dict(observation=config.observation, **SDP_PARAMS)
        sup, _, _ = make_supervisor(tmp_path, market, workers=1, max_resident=1)
        with sup:
            sup.create_session("a", "sdp", params=params, market=name0)
            sup.create_session("u", "ucrp", market=name0)  # evicts a and its agent
            sidecar = tmp_path / "state" / "sessions" / "a" / "weights.npz"
            sidecar.write_bytes(sidecar.read_bytes()[:100])
            with pytest.raises(CheckpointCorrupt, match="weights.npz"):
                sup.rebalance("a")

        store = SessionStateStore(tmp_path / "state")
        key = store.load_session_record("a")["agent_key"]
        with pytest.raises(CheckpointCorrupt, match=str(sidecar)):
            store.load_session("a", resident_agents=("another key",))
        assert store.load_session("a", resident_agents=(key,))["weights"] is None


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

    def test_batcher_counts_a_shed_request_once(self, tmp_path, market):
        """A micro-batch the supervisor sheds fails as a whole: its
        request is neither replayed alone nor shed a second time."""
        sup, name0, _ = make_supervisor(
            tmp_path, market, workers=1, max_pending=1
        )
        with sup:
            sup.create_session("a", "ucrp", market=name0)
            batcher = MicroBatcher(sup, max_wait=0.0)
            token = sup._admit([RebalanceRequest("a")])  # hold the front
            try:
                with pytest.raises(LoadShed):
                    batcher.submit(RebalanceRequest("a"))
            finally:
                sup._release(token)
            assert sup.stats.shed_requests == 1
            assert batcher.stats.submitted == 1

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
