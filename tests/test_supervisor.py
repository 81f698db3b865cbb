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
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import build_experiment_data, make_config, risk_regime_preset
from repro.resilience import FaultPlan, ServingFaults
from repro.risk import DrawdownLockout, PositionCap, RiskEngine
from repro.serving import (
    CheckpointCorrupt,
    Draining,
    LoadShed,
    MicroBatcher,
    PortfolioService,
    RebalanceRequest,
    ServingSupervisor,
    ServingResilience,
    SessionStateStore,
)
from repro.serving import store as store_mod
from repro.serving.service import _Slot
from repro.serving.store import JOURNAL_SNAPSHOTS, read_checkpoint, weights_digest
from repro.utils import blas
from repro.utils.rng import stable_hash
from repro.utils.serialization import load_state_dict, save_state_dict

LEGACY_V3 = Path(__file__).parent / "fixtures" / "checkpoint_v3"


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
            # Batch 2 rehydrates a, evicted after batch 1 with its create
            # and its round journaled but never snapshotted.
            assert not reader.has_session("a")
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
        """Neither create nor eviction writes a session's
        ``state.json``: none exists across create, evict, rehydrate and
        serve cycles, and ``drain()`` writes out its last journaled
        record."""
        sup, name0, _ = make_supervisor(
            tmp_path, market, workers=1, max_resident=1
        )
        root = tmp_path / "state"
        snapshots = {sid: root / "sessions" / sid / "state.json" for sid in "ab"}
        with sup:
            sup.create_session("a", "ons", market=name0)
            sup.create_session("b", "ucrp", market=name0)
            assert not any(path.exists() for path in snapshots.values())
            for _ in range(4):
                for sid in "ab":
                    sup.rebalance(sid)
                    assert not any(path.exists() for path in snapshots.values())
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

        # Compaction is due once the journal outgrows its bound, counted
        # in whole-record bytes though a batch journals round parts.
        commits = 0
        while not successor.journal_full():
            before = journal.stat().st_size
            successor.commit(commits, [service.export_session("a", weights=False)], [])
            commits += 1
        bound = JOURNAL_SNAPSHOTS * len(
            store_mod._dumps(successor.load_session_record("a"))
        )
        assert commits > 0 and before <= bound < journal.stat().st_size
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

    def test_crash_after_compaction_resumes_from_snapshots_and_rounds(
        self, tmp_path, market, monkeypatch
    ):
        """A worker that compacts and then journals more rounds dies: its
        successor merges the journaled rounds over constant parts read
        from the snapshots, and resumes every acknowledged round."""
        monkeypatch.setattr(store_mod, "JOURNAL_SNAPSHOTS", 2)
        name0, _ = two_market_names()
        sessions = [("a", "ons", {}, name0), ("b", "ucrp", {}, name0)]
        requests = [RebalanceRequest("a"), RebalanceRequest("b")]
        reference = json_rounds(
            in_process({name0: market}, sessions), requests, rounds=9
        )
        root = tmp_path / "state"
        sup, _, _ = make_supervisor(
            tmp_path, market, workers=1, heartbeat_interval=60.0
        )
        with sup:
            self.open(sup, sessions)
            assert json_rounds(sup, requests, rounds=6) == reference[:6]
            snapshot = SessionStateStore(root).load_session_record("a")
            assert 0 < snapshot["state"]["decisions"] < 6  # compacted, then rounds
            victim = sup._workers[0]
            victim.process.terminate()
            victim.process.join(timeout=5.0)
            assert json_rounds(sup, requests, rounds=3) == reference[6:]
            assert sup.stats.worker_restarts == 1

    def test_torn_round_frame_drops_only_its_batch(self, tmp_path, market):
        service = in_process(
            {"m": market}, [("a", "ons", {}, "m"), ("b", "ucrp", {}, "m")]
        )
        store = SessionStateStore(tmp_path)
        store.open_journal(0)
        store.commit(None, [service.export_session(sid) for sid in "ab"], [])
        acknowledged = {}
        for batch, ids in enumerate(["ab", "a", "b"]):
            responses = service.rebalance_many([RebalanceRequest(s) for s in ids])
            store.commit(
                batch,
                [service.export_session(sid, weights=False) for sid in ids],
                [r.to_json_dict() for r in responses],
            )
            if batch < 2:
                acknowledged.update(
                    (sid, {**service.export_session(sid, weights=False),
                           "weights": None})
                    for sid in ids
                )
        store.close()
        journal = tmp_path / "journal" / "0"
        journal.write_bytes(journal.read_bytes()[:-1])  # tear batch 2 ("b")

        successor = SessionStateStore(tmp_path)
        assert successor.open_journal(0)[0] == 1
        reader = SessionStateStore(tmp_path)
        assert {sid: reader.load_session_record(sid) for sid in "ab"} == acknowledged
        assert [acknowledged[sid]["state"]["decisions"] for sid in "ab"] == [2, 1]
        successor.close()

    def test_journal_of_whole_records_replays_to_them(self, tmp_path, market):
        """A journal whose every line is a whole record, the format
        written before batches journaled round parts only, replays
        through the same merge."""
        service = in_process(
            {"m": market}, [("a", "ons", {}, "m"), ("b", "ucrp", {}, "m")]
        )
        dumps, frame = store_mod._dumps, store_mod._frame

        def records(ids):
            return [
                {**service.export_session(sid, weights=False), "weights": None}
                for sid in ids
            ]

        frames = [frame([dumps({"batch": None, "responses": []}), *map(dumps, records("ab"))])]
        for batch, ids in enumerate(["ab", "a"]):
            responses = service.rebalance_many([RebalanceRequest(s) for s in ids])
            frames.append(frame([
                dumps({"batch": batch, "responses": [r.to_json_dict() for r in responses]}),
                *map(dumps, records(ids)),
            ]))
        (tmp_path / "journal").mkdir()
        (tmp_path / "journal" / "0").write_bytes(b"".join(frames))
        expected = dict(zip("ab", records("ab")))

        assert SessionStateStore(tmp_path).journaled_records() == expected
        store = SessionStateStore(tmp_path)
        batch, responses = store.open_journal(0)
        assert batch == 1 and responses[0]["session_id"] == "a"
        reader = SessionStateStore(tmp_path)
        assert {sid: reader.load_session_record(sid) for sid in "ab"} == expected
        store.close()

    def test_serve_batch_line_holds_only_the_round_part(self, tmp_path, market):
        risk = risk_regime_preset("caps")
        service = in_process(
            {"m": market}, [("a", "sdp", SDP_PARAMS, "m")], risk.build_engine()
        )
        store = SessionStateStore(tmp_path)
        store.open_journal(0)
        store.commit(None, [service.export_session("a")], [])
        response = service.rebalance("a")
        store.commit(
            0, [service.export_session("a", weights=False)], [response.to_json_dict()]
        )
        store.close()
        (_, (create,)), (_, (line,)) = store_mod._read_frames(
            tmp_path / "journal" / "0"
        )
        assert {"spec", "agent_key"} <= set(create)
        assert set(line) == {"session_id", "state"}
        assert set(line["state"]) == set(store_mod.ROUND_STATE)
        record = SessionStateStore(tmp_path).journaled_records()["a"]
        assert record == {
            **service.export_session("a", weights=False), "weights": create["weights"]
        }
        assert len(store_mod._dumps(line)) < len(store_mod._dumps(record)) / 2


def agent_file(root):
    """The one content-addressed agent file under a state dir."""
    (path,) = (root / "agents").glob("*.npz")
    return path


class TestSidecarSkip:
    """Rehydration reads a session's agent file (``agents/<digest>.npz``)
    only when the worker holds no agent under the session's key."""

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
            sidecar = agent_file(tmp_path / "state")
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
            sidecar = agent_file(tmp_path / "state")
            sidecar.write_bytes(sidecar.read_bytes()[:100])
            with pytest.raises(CheckpointCorrupt, match=sidecar.name):
                sup.rebalance("a")
            sup.drain(timeout=30.0)  # a's record reaches its snapshot

        store = SessionStateStore(tmp_path / "state")
        key = store.load_session_record("a")["agent_key"]
        with pytest.raises(CheckpointCorrupt, match=str(sidecar)):
            store.load_session("a", resident_agents=("another key",))
        assert store.load_session("a", resident_agents=(key,))["weights"] is None


class TestCreateJournal:
    """A create is one journal append: the session's record, its weights
    stored once per content digest under ``agents/``, and no
    per-session file until a compaction."""

    def test_crash_after_create_append_returns_stored_session(
        self, tmp_path, config, market, monkeypatch
    ):
        """A worker that dies after journaling a create but before
        replying: the retried create returns the stored session, which
        then serves like the in-process one."""
        name0, _ = two_market_names()
        params = dict(observation=config.observation, **SDP_PARAMS)
        service = in_process({name0: market}, [])
        commit = SessionStateStore.commit
        fired = tmp_path / "fired"

        def crash_after_append(self, batch, payloads, responses):
            commit(self, batch, payloads, responses)
            if batch is None and not fired.exists():
                fired.touch()
                os._exit(1)

        monkeypatch.setattr(SessionStateStore, "commit", crash_after_append)
        sup, _, _ = make_supervisor(tmp_path, market, workers=1)
        with sup:
            info = sup.create_session("a", "sdp", params=params, market=name0)
            assert fired.exists() and sup.stats.worker_restarts == 1
            assert info == service.create_session(
                "a", "sdp", params=params, market=name0
            )
            assert sup.session_ids() == ("a",)
            for _ in range(3):
                assert (
                    sup.rebalance("a").to_json_dict()
                    == service.rebalance("a").to_json_dict()
                )

    def test_create_killed_crash_retries_times_keeps_only_journaled_session(
        self, tmp_path, market, monkeypatch
    ):
        """A create whose worker is killed ``crash_retries`` times fails,
        but the supervisor still routes the session if the create was
        journaled, even while the successor has not replayed the
        journal yet (no snapshot exists), and drops one whose create
        never was."""
        name0, _ = two_market_names()
        armed, held = tmp_path / "armed", tmp_path / "held"
        commit = SessionStateStore.commit
        open_journal = SessionStateStore.open_journal
        create = PortfolioService.create_session

        def commit_then_die(self, batch, payloads, responses):
            payloads = list(payloads)
            commit(self, batch, payloads, responses)
            if armed.exists() and payloads[0]["session_id"] == "kept":
                os._exit(1)

        def open_when_released(self, index):
            while held.exists():
                time.sleep(0.01)
            return open_journal(self, index)

        def die_creating(self, session_id, *args, **kwargs):
            if armed.exists() and session_id == "dropped":
                os._exit(1)  # before anything is journaled
            return create(self, session_id, *args, **kwargs)

        monkeypatch.setattr(SessionStateStore, "commit", commit_then_die)
        monkeypatch.setattr(SessionStateStore, "open_journal", open_when_released)
        monkeypatch.setattr(PortfolioService, "create_session", die_creating)
        sup, _, _ = make_supervisor(tmp_path, market, workers=1, crash_retries=1)
        snapshot = tmp_path / "state" / "sessions" / "kept" / "state.json"
        with sup:
            sup.create_session("warm", "ucrp", market=name0)  # worker is up
            armed.touch()
            held.touch()
            with pytest.raises(RuntimeError, match="died 1 times"):
                sup.create_session("kept", "ons", market=name0)
            assert not snapshot.exists()  # only the journal holds it
            assert sup.session_ids() == ("kept", "warm")
            held.unlink()
            with pytest.raises(RuntimeError, match="died 1 times"):
                sup.create_session("dropped", "ons", market=name0)
            assert sup.session_ids() == ("kept", "warm")
            assert sup.stats.worker_restarts == 2
            armed.unlink()
            sup.create_session("dropped", "ons", market=name0)
            service = in_process(
                {name0: market},
                [(sid, "ons", {}, name0) for sid in ("kept", "dropped")],
            )
            requests = [RebalanceRequest("kept"), RebalanceRequest("dropped")]
            assert json_rounds(sup, requests, rounds=2) == json_rounds(
                service, requests, rounds=2
            )

    def test_sessions_over_two_agents_leave_two_agent_files(
        self, tmp_path, config, market, market2
    ):
        """Eight SDP sessions over two weight sets, on two workers: the
        state dir holds exactly two agent files, each named by its
        content's digest, and no per-session file before the drain."""
        name0, name1 = two_market_names()
        specs = [
            dict(observation=config.observation, **dict(SDP_PARAMS, seed=seed))
            for seed in (0, 1)
        ]
        sup, _, _ = make_supervisor(tmp_path, market, market2, workers=2)
        root = tmp_path / "state"
        with sup:
            for i in range(8):
                sup.create_session(
                    f"s{i}", "sdp", params=specs[i % 2],
                    market=(name0, name1)[i // 4],
                )
            assert not list((root / "sessions").iterdir())
            files = sorted((root / "agents").iterdir())
            assert len(files) == 2
            for path in files:
                assert weights_digest(load_state_dict(path)) == path.stem
            sup.rebalance_many([RebalanceRequest(f"s{i}") for i in range(8)])
            sup.drain(timeout=30.0)
        assert sorted((root / "agents").iterdir()) == files
        assert not list(root.glob("sessions/*/weights.npz"))
        _, _, payloads = read_checkpoint(root)
        assert {weights_digest(p["weights"]) for p in payloads} == {
            path.stem for path in files
        }

    def test_torn_agent_file_rewritten_by_the_next_worker(
        self, tmp_path, config, market
    ):
        """A worker trusts the agent files it wrote or checked; its
        successor checks a file before trusting it, so creating a
        session on the same agent rewrites a torn file, after which a
        reader with no resident agent loads it."""
        name0, _ = two_market_names()
        params = dict(observation=config.observation, **SDP_PARAMS)
        root = tmp_path / "state"
        sup, _, _ = make_supervisor(tmp_path, market, workers=1)
        with sup:
            sup.create_session("a", "sdp", params=params, market=name0)
            path = agent_file(root)
            intact = path.read_bytes()
            path.write_bytes(intact[:100])
        with ServingSupervisor(root, workers=1) as resumed:
            reader = SessionStateStore(root)
            with pytest.raises(CheckpointCorrupt, match=path.name):
                reader.load_session("a")
            resumed.create_session("b", "sdp", params=params, market=name0)
            assert weights_digest(load_state_dict(path)) == path.stem
            assert reader.load_session("a")["weights"] is not None
            resumed.drain(timeout=30.0)

    def test_parent_layout_dir_serves_recorded_responses(self, tmp_path):
        """A version-3 directory whose sessions name their own
        ``weights.npz`` opens as a supervisor state dir and serves the
        responses recorded when it was written; its drain keeps the
        legacy files it still names."""
        root = tmp_path / "v3"
        shutil.copytree(LEGACY_V3, root)
        expected = json.loads((root / "expected_responses.json").read_text())
        risk = RiskEngine([PositionCap(0.22), DrawdownLockout(0.002, 2)])
        requests = [RebalanceRequest(s) for s in ("sa", "sb", "so", "sr")]
        with ServingSupervisor(root, workers=1, risk=risk) as sup:
            assert json_rounds(sup, requests, rounds=len(expected)) == expected
            sup.drain(timeout=30.0)
        _, _, payloads = read_checkpoint(root)
        assert [p["state"]["decisions"] for p in payloads] == [7, 7, 7, 9]
        assert sorted(root.glob("sessions/*/weights.npz")) == [
            root / "sessions" / sid / "weights.npz" for sid in ("sa", "sb")
        ]


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

    def test_batcher_fails_a_batch_refused_while_draining_once(
        self, tmp_path, market
    ):
        """A micro-batch a draining supervisor refuses fails as a whole:
        each of its requests reaches the supervisor once, in the batch,
        and every waiter sees :class:`Draining`."""
        sup, name0, _ = make_supervisor(tmp_path, market, workers=1)
        with sup:
            sup.create_session("a", "ucrp", market=name0)
            sup.create_session("b", "ucrp", market=name0)
            sup.drain(timeout=30.0)
            batched, single = [], []
            rebalance = sup.rebalance
            # The batcher serves through rebalance_each; either batch
            # entry point counts into ``batched``.
            for name in ("rebalance_many", "rebalance_each"):
                serve = getattr(sup, name)
                setattr(sup, name, lambda requests, serve=serve: (
                    batched.append(len(requests)), serve(requests)
                )[1])
            sup.rebalance = lambda request: (
                single.append(request), rebalance(request)
            )[1]
            batcher = MicroBatcher(sup, max_batch=2, max_wait=0.5)

            def submit(session_id):
                try:
                    batcher.submit(RebalanceRequest(session_id))
                except Draining as exc:
                    return exc

            with ThreadPoolExecutor(max_workers=2) as pool:
                errors = list(pool.map(submit, ["a", "b"]))
            assert all(isinstance(error, Draining) for error in errors)
            assert sum(batched) == 2 and single == []
            assert batcher.stats.submitted == 2

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


def flush_one_batch(backend, requests):
    """Flush ``requests`` as one micro-batch; their slots, in order."""
    batcher = MicroBatcher(backend)
    batch = [(request, _Slot()) for request in requests]
    batcher._leader_active = True
    batcher._flush(batch)
    return [slot for _, slot in batch]


def assert_journal_matches_memory(sup):
    """Every session's journaled record agrees with its worker's memory."""
    memory = {info.session_id: info for info in sup.describe_sessions()}
    journal = sup.store.journaled_records()
    assert set(journal) == set(memory)
    for session_id, record in journal.items():
        assert record["state"]["decisions"] == memory[session_id].decisions
        assert record["state"]["next_t"] == memory[session_id].next_t


class TestServedOnce:
    """A micro-batch holding one refused request serves each of its
    neighbours exactly once, and the journal keeps up with memory."""

    def test_resilient_single_worker(self, tmp_path, market):
        sup, name0, _ = make_supervisor(
            tmp_path, market, workers=1, resilience=ServingResilience()
        )
        with sup:
            start = sup.create_session("a", "ucrp", market=name0).next_t
            sup.create_session("b", "ucrp", market=name0)
            bad = (RebalanceRequest("b", t=10**9), RebalanceRequest("ghost"))
            for round_, refused in enumerate(bad):
                a, b = flush_one_batch(sup, [RebalanceRequest("a"), refused])
                assert a.error is None and a.response.t == start + round_
                assert isinstance(b.error, (KeyError, ValueError))
            infos = {i.session_id: i for i in sup.describe_sessions()}
            assert infos["a"].decisions == 2 and infos["b"].decisions == 0
            assert sup.stats.requests_served == 2
            assert_journal_matches_memory(sup)

    def test_two_workers_count_each_shard_at_commit(
        self, tmp_path, market, market2
    ):
        sup, name0, name1 = make_supervisor(
            tmp_path, market, market2, workers=2
        )
        with sup:
            start = sup.create_session("a", "ucrp", market=name0).next_t
            sup.create_session("b", "ucrp", market=name1)
            batch = [RebalanceRequest("a"), RebalanceRequest("b", t=10**9)]
            # a's shard commits, b's raises: the front counts a's.
            with pytest.raises(ValueError, match="outside decidable range"):
                sup.rebalance_many(batch)
            journal = sup.store.journaled_records()
            assert sup.stats.requests_served == 1
            assert journal["a"]["state"]["decisions"] == 1
            for round_, refused in enumerate(
                (batch[1], RebalanceRequest("ghost")), start=1
            ):
                a, b = flush_one_batch(sup, [batch[0], refused])
                assert a.error is None and a.response.t == start + round_
                assert isinstance(b.error, (KeyError, ValueError))
            infos = {i.session_id: i for i in sup.describe_sessions()}
            assert infos["a"].decisions == 3 and infos["b"].decisions == 0
            assert sup.stats.requests_served == 3
            assert_journal_matches_memory(sup)


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

    @pytest.mark.parametrize("damage", ["torn", "mismatched"])
    def test_damaged_agent_file_rewritten_from_resident_agent(
        self, tmp_path, config, market, damage
    ):
        """Read with no resident agent, a damaged agent file raises
        :class:`CheckpointCorrupt` naming it; the next store to save the
        weights from a service holding the agent checks the file first
        and rewrites it."""
        params = dict(observation=config.observation, **SDP_PARAMS)
        service = in_process({"m": market}, [("a", "sdp", params, "m")])
        SessionStateStore(tmp_path).save_session(service.export_session("a"))
        path = agent_file(tmp_path)
        if damage == "torn":
            path.write_bytes(path.read_bytes()[:100])
        else:
            save_state_dict(path, {"w": np.zeros(3)})
        reader = SessionStateStore(tmp_path)
        with pytest.raises(CheckpointCorrupt, match=str(path)):
            reader.load_session("a")

        SessionStateStore(tmp_path).save_session(service.export_session("a"))
        assert weights_digest(load_state_dict(path)) == path.stem
        other = in_process({"m": market}, [])
        other.import_session(reader.load_session("a"))
        assert (
            other.rebalance("a").to_json_dict()
            == service.rebalance("a").to_json_dict()
        )

    def test_checkpoint_reads_each_agent_file_once(
        self, tmp_path, config, market, monkeypatch
    ):
        """Six sdp sessions over two weight sets (and one classical
        session): ``read_checkpoint`` loads and digest-checks each of
        the two agent files once, and the sessions naming one file get
        its one state dict."""
        sessions = [
            (f"s{i}", "sdp", dict(observation=config.observation,
                                  **{**SDP_PARAMS, "seed": i % 2}), "m")
            for i in range(6)
        ] + [("o", "ons", {}, "m")]
        service = in_process({"m": market}, sessions)
        service.rebalance("s0")
        path = service.save_checkpoint(tmp_path / "ckpt")
        assert len(list((path / "agents").glob("*.npz"))) == 2

        loads = []
        load = store_mod.load_state_dict
        monkeypatch.setattr(
            store_mod, "load_state_dict",
            lambda p: (loads.append(Path(p)), load(p))[1],
        )
        _, _, payloads = read_checkpoint(path)
        assert sorted(p for p in loads if p.parent.name == "agents") == sorted(
            (path / "agents").glob("*.npz")
        )
        weights = {p["session_id"]: p["weights"] for p in payloads}
        assert weights["o"] is None
        assert weights["s0"] is not weights["s1"]
        for i in range(2, 6):
            assert weights[f"s{i}"] is weights[f"s{i % 2}"]

        other = in_process({"m": market}, [])
        for payload in payloads:
            other.import_session(payload)
        for sid, *_ in sessions:
            assert (
                other.rebalance(sid).to_json_dict()
                == service.rebalance(sid).to_json_dict()
            )

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
