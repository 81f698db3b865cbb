"""Tests for the repro.serving inference service layer."""

import json
import shutil
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro import registry
from repro.agents import Agent, run_backtest
from repro.baselines import ONS
from repro.experiments import build_experiment_data, make_config
from repro.registry import StrategyRegistry
from repro.risk import DrawdownLockout, PositionCap, RiskEngine
from repro.serving import (
    MicroBatcher,
    PortfolioService,
    RebalanceRequest,
    SessionStateStore,
)
from repro.serving.store import weights_digest

# A version-2 (manifest.json) checkpoint written before checkpoints
# became session-store directories, and a version-3 one written before
# agent weights were stored by content; see their READMEs.
LEGACY_V2 = Path(__file__).parent / "fixtures" / "checkpoint_v2"
LEGACY_V3 = Path(__file__).parent / "fixtures" / "checkpoint_v3"


@pytest.fixture(scope="module")
def config():
    return make_config(1, profile="quick")


@pytest.fixture(scope="module")
def market(config):
    return build_experiment_data(config).test


@pytest.fixture(scope="module")
def sdp_params(config):
    return dict(
        observation=config.observation,
        hidden_sizes=config.hidden_sizes,
        timesteps=config.timesteps,
        encoder_pop_size=config.encoder_pop_size,
        decoder_pop_size=config.decoder_pop_size,
        lif=config.lif,
        surrogate_amplifier=config.surrogate_amplifier,
        surrogate_window=config.surrogate_window,
        seed=config.agent_seed,
    )


def make_service(config, market):
    service = PortfolioService(commission=config.commission)
    service.register_market("m", market)
    return service


class TestSessions:
    def test_create_and_describe(self, config, market, sdp_params):
        service = make_service(config, market)
        info = service.create_session("s1", "sdp", params=sdp_params, market="m")
        assert info.strategy == "sdp"
        assert info.n_assets == market.n_assets
        assert info.next_t == config.observation.first_decision_index()
        assert service.describe_session("s1").decisions == 0

    def test_user_learned_strategy_gets_n_assets_injected(self, config, market):
        # The extension point: a user-registered learned strategy whose
        # factory takes n_assets is wired up like the built-ins.
        reg = StrategyRegistry()

        @reg.register("my_uniform_net")
        class MyNet(Agent):
            name = "MyNet"
            stateless = True

            def __init__(self, n_assets):
                self.n_assets = n_assets

            def act(self, data, t, w_prev):
                n = self.n_assets + 1
                return np.full(n, 1.0 / n)

        service = PortfolioService(registry=reg)
        service.register_market("m", market)
        service.create_session(
            "u", "my_uniform_net", market="m", observation=config.observation
        )
        response = service.rebalance("u")
        assert response.weights.shape == (market.n_assets + 1,)

    def test_identical_specs_share_one_agent(self, config, market, sdp_params):
        service = make_service(config, market)
        a = service.create_session("a", "sdp", params=sdp_params, market="m")
        b = service.create_session("b", "sdp", params=sdp_params, market="m")
        assert a.shared_agent and b.shared_agent
        assert service._sessions["a"].agent is service._sessions["b"].agent

    def test_stateful_strategies_get_private_agents(self, config, market):
        service = make_service(config, market)
        service.create_session("a", "ons", market="m")
        service.create_session("b", "ons", market="m")
        assert service._sessions["a"].agent is not service._sessions["b"].agent

    def test_duplicate_session_id_raises(self, config, market):
        service = make_service(config, market)
        service.create_session("a", "ucrp", market="m")
        with pytest.raises(ValueError, match="already exists"):
            service.create_session("a", "ucrp", market="m")

    def test_market_xor_data_required(self, config, market):
        service = make_service(config, market)
        with pytest.raises(ValueError, match="exactly one"):
            service.create_session("a", "ucrp")
        with pytest.raises(ValueError, match="exactly one"):
            service.create_session("a", "ucrp", market="m", data=market)

    def test_market_names_are_immutable(self, config, market):
        service = make_service(config, market)
        service.register_market("m", market)  # same panel: no-op
        other = build_experiment_data(make_config(2, profile="quick")).test
        with pytest.raises(ValueError, match="immutable"):
            service.register_market("m", other)

    def test_unknown_market_and_strategy(self, config, market):
        service = make_service(config, market)
        with pytest.raises(KeyError, match="unknown market"):
            service.create_session("a", "ucrp", market="nope")
        with pytest.raises(KeyError, match="unknown strategy"):
            service.create_session("a", "warp", market="m")

    def test_inline_data_auto_registers(self, config, market):
        service = make_service(config, market)
        service.create_session("a", "ucrp", data=market)
        assert "session:a" in service.market_names()

    def test_failed_create_leaves_no_ghost_market(self, config, market):
        service = make_service(config, market)
        with pytest.raises(KeyError, match="unknown strategy"):
            service.create_session("a", "warp", data=market)
        assert "session:a" not in service.market_names()

    def test_failed_create_leaves_no_ghost_shared_agent(
        self, config, market, sdp_params
    ):
        service = make_service(config, market)
        with pytest.raises(ValueError, match="start index"):
            service.create_session(
                "a", "sdp", params=sdp_params, market="m",
                start=market.n_periods + 5,
            )
        assert len(service._shared_agents) == 0

    def test_close_session(self, config, market):
        service = make_service(config, market)
        service.create_session("a", "ucrp", market="m")
        service.close_session("a")
        assert service.session_ids() == ()
        with pytest.raises(KeyError, match="unknown session"):
            service.rebalance("a")

    def test_inline_name_cannot_rebind_referenced_market(self, config, market):
        # foo's auto-market stays alive through bar; re-creating foo
        # with different inline data must not silently rebind it.
        other = build_experiment_data(make_config(2, profile="quick")).test
        service = make_service(config, market)
        service.create_session("foo", "ucrp", data=market)
        service.create_session("bar", "ucrp", market="session:foo")
        service.close_session("foo")
        with pytest.raises(ValueError, match="immutable"):
            service.create_session("foo", "ucrp", data=other)
        assert service._sessions["bar"].data is market

    def test_close_session_evicts_unreferenced_shared_agent(
        self, config, market, sdp_params
    ):
        service = make_service(config, market)
        service.create_session("a", "sdp", params=sdp_params, market="m")
        service.create_session("b", "sdp", params=sdp_params, market="m")
        assert len(service._shared_agents) == 1
        service.close_session("a")
        assert len(service._shared_agents) == 1  # still used by b
        service.close_session("b")
        assert len(service._shared_agents) == 0

    def test_close_session_drops_inline_market(self, config, market):
        service = make_service(config, market)
        service.create_session("a", "ucrp", data=market)
        assert "session:a" in service.market_names()
        service.close_session("a")
        assert "session:a" not in service.market_names()
        # Named markets survive their sessions.
        service.create_session("b", "ucrp", market="m")
        service.close_session("b")
        assert "m" in service.market_names()


class TestRebalanceParity:
    def test_two_sessions_match_run_backtest(self, config, market, sdp_params):
        """Acceptance bar: served weights for >= 2 concurrent sessions
        through the registry-built "sdp" strategy match a run_backtest
        trajectory on the quick profile to 1e-9."""
        agent = registry.create("sdp", n_assets=market.n_assets, **sdp_params)
        baseline = run_backtest(
            agent, market,
            observation=config.observation, commission=config.commission,
        )
        service = make_service(config, market)
        service.create_session("alice", "sdp", params=sdp_params, market="m")
        service.create_session("bob", "sdp", params=sdp_params, market="m")

        steps = min(40, baseline.weights.shape[0])
        for k in range(steps):
            responses = service.rebalance_many(
                [RebalanceRequest("alice"), RebalanceRequest("bob")]
            )
            for r in responses:
                np.testing.assert_allclose(
                    r.weights, baseline.weights[k], atol=1e-9
                )
        # Both sessions shared one agent and were decided in single
        # batched forwards.
        assert service.stats.batched_forwards == steps
        assert service.stats.largest_batch == 2

    def test_classical_session_matches_run_backtest(self, config, market):
        baseline = run_backtest(
            ONS(), market,
            observation=config.observation, commission=config.commission,
        )
        service = make_service(config, market)
        service.create_session(
            "c", "ons", market="m", observation=config.observation
        )
        for k in range(10):
            r = service.rebalance("c")
            np.testing.assert_allclose(r.weights, baseline.weights[k], atol=1e-9)

    def test_same_session_twice_in_one_batch_is_sequential(
        self, config, market, sdp_params
    ):
        service = make_service(config, market)
        service.create_session("a", "sdp", params=sdp_params, market="m")
        service.create_session("twin", "sdp", params=sdp_params, market="m")

        both = service.rebalance_many(
            [RebalanceRequest("a"), RebalanceRequest("a")]
        )
        first = service.rebalance("twin")
        second = service.rebalance("twin")
        assert both[0].t == first.t and both[1].t == second.t
        np.testing.assert_allclose(both[0].weights, first.weights, atol=1e-12)
        np.testing.assert_allclose(both[1].weights, second.weights, atol=1e-12)

    def test_batch_with_invalid_request_commits_nothing(
        self, config, market, sdp_params
    ):
        service = make_service(config, market)
        service.create_session("a", "sdp", params=sdp_params, market="m")
        before = service.describe_session("a").next_t
        with pytest.raises(ValueError, match="outside"):
            service.rebalance_many(
                [RebalanceRequest("a"), RebalanceRequest("a", t=9999)]
            )
        assert service.describe_session("a").next_t == before
        assert service.describe_session("a").decisions == 0

    def test_invalid_strategy_output_raises_not_nan(self, config, market):
        reg = StrategyRegistry()

        @reg.register("zero")
        class ZeroAgent(Agent):
            name = "Zero"
            stateless = True

            def act(self, data, t, w_prev):
                return np.zeros(data.n_assets + 1)

        service = PortfolioService(registry=reg)
        service.register_market("m", market)
        service.create_session(
            "z", "zero", market="m", observation=config.observation
        )
        with pytest.raises(ValueError, match="sum to"):
            service.rebalance("z")
        # The failed decision left the session untouched.
        assert service.describe_session("z").decisions == 0
        assert np.all(np.isfinite(service._sessions["z"].w_prev))

    def test_midbatch_strategy_failure_commits_nothing(self, config, market):
        reg = StrategyRegistry()

        @reg.register("zero")
        class ZeroAgent(Agent):
            name = "Zero"
            stateless = True

            def act(self, data, t, w_prev):
                return np.zeros(data.n_assets + 1)

        @reg.register("ucrp_ok")
        class OkAgent(Agent):
            name = "Ok"
            stateless = True

            def act(self, data, t, w_prev):
                n = data.n_assets + 1
                return np.full(n, 1.0 / n)

        service = PortfolioService(registry=reg)
        service.register_market("m", market)
        service.create_session(
            "good", "ucrp_ok", market="m", observation=config.observation
        )
        service.create_session(
            "bad", "zero", market="m", observation=config.observation
        )
        before = service.describe_session("good").next_t
        with pytest.raises(ValueError, match="sum to"):
            service.rebalance_many(
                [RebalanceRequest("good"), RebalanceRequest("bad")]
            )
        # The healthy session is untouched even though it was decided
        # earlier in the same batch.
        assert service.describe_session("good").next_t == before
        assert service.describe_session("good").decisions == 0

    def test_short_decide_batch_rejected_atomically(self, config, market):
        reg = StrategyRegistry()

        @reg.register("short")
        class ShortBatch(Agent):
            name = "Short"
            stateless = True

            def act(self, data, t, w_prev):
                n = data.n_assets + 1
                return np.full(n, 1.0 / n)

            def decide_batch(self, states):
                full = np.stack([self.act(d, t, w) for d, t, w in states])
                return full[:-1]  # off-by-one user bug

        service = PortfolioService(registry=reg)
        service.register_market("m", market)
        for sid in ("a", "b"):
            service.create_session(
                sid, "short", market="m", observation=config.observation
            )
        before = {
            sid: service.describe_session(sid).next_t for sid in ("a", "b")
        }
        with pytest.raises(ValueError, match="decide_batch"):
            service.rebalance_many(
                [RebalanceRequest("a"), RebalanceRequest("b")]
            )
        for sid in ("a", "b"):
            assert service.describe_session(sid).next_t == before[sid]
            assert service.describe_session(sid).decisions == 0

    def test_aborted_batch_rolls_back_stateful_agents(self, config, market):
        # A stateful strategy's internal state (ONS Hessian etc.) is
        # mutated inside act(); an aborted batch must restore it, or the
        # next decision silently diverges.
        reg = StrategyRegistry()

        @reg.register("zero")
        class ZeroAgent(Agent):
            name = "Zero"
            stateless = False  # served in the singles phase, after ONS acts

            def act(self, data, t, w_prev):
                return np.zeros(data.n_assets + 1)

        reg.register("ons", ONS)

        def build(with_failure):
            service = PortfolioService(registry=reg)
            service.register_market("m", market)
            service.create_session(
                "s", "ons", market="m", observation=config.observation
            )
            for _ in range(3):
                service.rebalance("s")
            if with_failure:
                service.create_session(
                    "bad", "zero", market="m", observation=config.observation
                )
                first = config.observation.first_decision_index()
                with pytest.raises(ValueError):
                    service.rebalance_many(
                        [
                            RebalanceRequest("s", t=first + 40),
                            RebalanceRequest("bad"),
                        ]
                    )
            return service

        poked, clean = build(True), build(False)
        for _ in range(2):
            x, y = poked.rebalance("s"), clean.rebalance("s")
            assert x.t == y.t
            np.testing.assert_array_equal(x.weights, y.weights)

    def test_explicit_t_and_range_checks(self, config, market, sdp_params):
        service = make_service(config, market)
        service.create_session("a", "sdp", params=sdp_params, market="m")
        first = config.observation.first_decision_index()
        r = service.rebalance(RebalanceRequest("a", t=first + 3))
        assert r.t == first + 3
        assert service.describe_session("a").next_t == first + 4
        with pytest.raises(ValueError, match="outside"):
            service.rebalance(RebalanceRequest("a", t=market.n_periods))
        with pytest.raises(ValueError, match="outside"):
            service.rebalance(RebalanceRequest("a", t=0))


class TestCheckpoint:
    def test_save_load_identical_decisions(
        self, config, market, sdp_params, tmp_path
    ):
        service = make_service(config, market)
        service.create_session("a", "sdp", params=sdp_params, market="m")
        service.create_session("b", "ons", market="m")
        requests = [RebalanceRequest("a"), RebalanceRequest("b")]
        for _ in range(4):
            service.rebalance_many(requests)

        service.save_checkpoint(tmp_path / "ckpt")
        restored = PortfolioService.load_checkpoint(tmp_path / "ckpt")
        assert restored.session_ids() == service.session_ids()
        for _ in range(3):
            original = service.rebalance_many(requests)
            reloaded = restored.rebalance_many(requests)
            for x, y in zip(original, reloaded):
                assert x.t == y.t
                np.testing.assert_array_equal(x.weights, y.weights)

    def test_same_spec_stateful_sessions_stay_private_after_load(
        self, config, market, tmp_path
    ):
        # Two same-spec ONS sessions must not collapse onto one mutable
        # agent through a checkpoint round-trip — including a second
        # save/load cycle (the restored sessions must keep per-instance
        # agent keys).
        service = make_service(config, market)
        service.create_session("a", "ons", market="m")
        service.create_session("b", "ons", market="m")
        requests = [RebalanceRequest("a"), RebalanceRequest("b")]
        for _ in range(2):
            service.rebalance_many(requests)
        service.save_checkpoint(tmp_path / "ckpt")
        restored = PortfolioService.load_checkpoint(tmp_path / "ckpt")
        assert (
            restored._sessions["a"].agent is not restored._sessions["b"].agent
        )
        restored.save_checkpoint(tmp_path / "ckpt2")
        twice = PortfolioService.load_checkpoint(tmp_path / "ckpt2")
        assert twice._sessions["a"].agent is not twice._sessions["b"].agent
        for _ in range(2):
            original = service.rebalance_many(requests)
            reloaded = restored.rebalance_many(requests)
            again = twice.rebalance_many(requests)
            for x, y, z in zip(original, reloaded, again):
                np.testing.assert_array_equal(x.weights, y.weights)
                np.testing.assert_array_equal(x.weights, z.weights)

    def test_seeked_classical_session_restores_identically(
        self, config, market, tmp_path
    ):
        # A classical session whose first request seeks past the default
        # start must re-anchor its relatives window at the seeked index
        # after a checkpoint round-trip.
        service = make_service(config, market)
        service.create_session(
            "s", "ons", market="m", observation=config.observation
        )
        first = config.observation.first_decision_index()
        service.rebalance(RebalanceRequest("s", t=first + 10))
        for _ in range(2):
            service.rebalance("s")
        service.save_checkpoint(tmp_path / "ckpt")
        restored = PortfolioService.load_checkpoint(tmp_path / "ckpt")
        for _ in range(3):
            x = service.rebalance("s")
            y = restored.rebalance("s")
            assert x.t == y.t
            np.testing.assert_array_equal(x.weights, y.weights)

    def test_restored_sessions_share_agents(
        self, config, market, sdp_params, tmp_path
    ):
        service = make_service(config, market)
        service.create_session("a", "sdp", params=sdp_params, market="m")
        service.create_session("b", "sdp", params=sdp_params, market="m")
        service.save_checkpoint(tmp_path / "ckpt")
        restored = PortfolioService.load_checkpoint(tmp_path / "ckpt")
        assert restored._sessions["a"].agent is restored._sessions["b"].agent

    def test_sessionless_markets_survive_checkpoint(
        self, config, market, tmp_path
    ):
        service = make_service(config, market)  # registers "m", no sessions
        service.save_checkpoint(tmp_path / "ckpt")
        restored = PortfolioService.load_checkpoint(tmp_path / "ckpt")
        assert restored.market_names() == ("m",)
        restored.create_session("a", "ucrp", market="m")

    def test_saving_again_replaces_what_the_directory_held(
        self, config, market, sdp_params, tmp_path
    ):
        """Two saves into one directory: a session id re-used with new
        params and a new inline panel reloads as the new session, and a
        session closed in between is gone."""
        service = PortfolioService(commission=config.commission)
        service.create_session(
            "a", "sdp", params=dict(sdp_params, seed=1), data=market
        )
        service.create_session("b", "ons", data=market)
        service.save_checkpoint(tmp_path / "ckpt")
        service.close_session("a")
        service.close_session("b")
        flipped = market.permute_assets(list(range(market.n_assets))[::-1])
        service.create_session(
            "a", "sdp", params=dict(sdp_params, seed=2), data=flipped
        )
        service.save_checkpoint(tmp_path / "ckpt")

        assert SessionStateStore(tmp_path / "ckpt").session_ids() == ("a",)
        # The first save's agent file is no longer referenced.
        (agent,) = (tmp_path / "ckpt" / "agents").iterdir()
        assert agent.stem == weights_digest(service.export_session("a")["weights"])
        restored = PortfolioService.load_checkpoint(tmp_path / "ckpt")
        assert restored.session_ids() == ("a",)
        assert restored.market_names() == ("session:a",)
        for _ in range(3):
            assert (
                restored.rebalance("a").to_json_dict()
                == service.rebalance("a").to_json_dict()
            )

    def test_legacy_v2_checkpoint_serves_recorded_responses(self, tmp_path):
        """The legacy reader: a version-2 checkpoint (two shared-SDP
        sessions, a private ONS session, and a session mid caps +
        drawdown-lockout) serves exactly the responses recorded when it
        was written — loaded directly, and after migrating it to the
        current layout with ``save_checkpoint``."""
        risk = RiskEngine([PositionCap(0.22), DrawdownLockout(0.002, 2)])
        expected = json.loads((LEGACY_V2 / "expected_responses.json").read_text())
        requests = [RebalanceRequest(s) for s in ("sa", "sb", "so", "sr")]
        legacy = PortfolioService.load_checkpoint(LEGACY_V2, risk=risk)
        legacy.save_checkpoint(tmp_path / "v3")
        migrated = PortfolioService.load_checkpoint(tmp_path / "v3", risk=risk)
        for restored in (legacy, migrated):
            assert restored._sessions["sa"].agent is restored._sessions["sb"].agent
            assert not restored._sessions["so"].shared
            served = [
                [r.to_json_dict() for r in restored.rebalance_many(requests)]
                for _ in expected
            ]
            assert json.loads(json.dumps(served)) == expected


    def test_legacy_v3_checkpoint_serves_recorded_responses(self, tmp_path):
        """A version-3 checkpoint whose sessions name their own
        ``weights.npz`` (the layout before content-addressed agent
        files) serves the responses recorded for it.  Saving it again
        over a copy stores the shared agent once under ``agents/`` and
        deletes the per-session files."""
        risk = RiskEngine([PositionCap(0.22), DrawdownLockout(0.002, 2)])
        expected = json.loads((LEGACY_V3 / "expected_responses.json").read_text())
        requests = [RebalanceRequest(s) for s in ("sa", "sb", "so", "sr")]
        legacy = PortfolioService.load_checkpoint(LEGACY_V3, risk=risk)
        shutil.copytree(LEGACY_V3, tmp_path / "ckpt")
        legacy.save_checkpoint(tmp_path / "ckpt")
        assert not list((tmp_path / "ckpt").glob("sessions/*/weights.npz"))
        assert len(list((tmp_path / "ckpt" / "agents").iterdir())) == 1
        migrated = PortfolioService.load_checkpoint(tmp_path / "ckpt", risk=risk)
        for restored in (legacy, migrated):
            assert restored._sessions["sa"].agent is restored._sessions["sb"].agent
            served = [
                [r.to_json_dict() for r in restored.rebalance_many(requests)]
                for _ in expected
            ]
            assert json.loads(json.dumps(served)) == expected

class TestMicroBatcher:
    def test_concurrent_submits_all_served(self, config, market, sdp_params):
        service = make_service(config, market)
        sids = [f"s{i}" for i in range(6)]
        for sid in sids:
            service.create_session(sid, "sdp", params=sdp_params, market="m")
        batcher = MicroBatcher(service, max_batch=8, max_wait=0.05)

        first = config.observation.first_decision_index()
        with ThreadPoolExecutor(max_workers=6) as pool:
            for step in range(3):
                responses = list(
                    pool.map(
                        lambda sid: batcher.submit(RebalanceRequest(sid)), sids
                    )
                )
                assert sorted(r.session_id for r in responses) == sids
                assert all(r.t == first + step for r in responses)
        assert service.stats.requests_served == 18

    def test_submit_propagates_errors(self, config, market):
        service = make_service(config, market)
        batcher = MicroBatcher(service, max_batch=4, max_wait=0.01)
        with pytest.raises(KeyError, match="unknown session"):
            batcher.submit(RebalanceRequest("ghost"))


class TestHTTP:
    def test_endpoint_round_trip(self, config, market, sdp_params):
        from repro.serving.http import serve

        service = make_service(config, market)
        service.create_session("alice", "sdp", params=sdp_params, market="m")
        try:
            server = serve(service, port=0, max_wait=0.01)
        except (OSError, PermissionError) as exc:
            pytest.skip(f"cannot bind a local socket here: {exc}")
        base = "http://127.0.0.1:%d" % server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            def post(path, payload):
                request = urllib.request.Request(
                    base + path,
                    data=json.dumps(payload).encode(),
                    headers={"Content-Type": "application/json"},
                    method="POST",
                )
                return json.loads(urllib.request.urlopen(request).read())

            health = json.loads(
                urllib.request.urlopen(base + "/healthz").read()
            )
            assert health["status"] == "ok"

            created = post(
                "/sessions",
                {"session_id": "carol", "strategy": "ucrp", "market": "m"},
            )
            assert created["session_id"] == "carol"

            # Tagged config objects are decodable over the wire.
            tagged = post(
                "/sessions",
                {
                    "session_id": "dave",
                    "strategy": "jiang",
                    "market": "m",
                    "params": {
                        "observation": {
                            "__type__": "ObservationConfig",
                            "window": 6,
                            "stride": 2,
                        }
                    },
                },
            )
            assert tagged["session_id"] == "dave"
            served_dave = post("/rebalance", {"session_id": "dave"})
            assert np.isclose(sum(served_dave["weights"]), 1.0)

            first = config.observation.first_decision_index()
            served = post("/rebalance", {"session_id": "alice"})
            assert served["t"] == first
            assert np.isclose(sum(served["weights"]), 1.0)

            batch = post(
                "/rebalance/batch",
                {"requests": [{"session_id": "alice"}, {"session_id": "carol"}]},
            )
            assert [r["session_id"] for r in batch["responses"]] == [
                "alice", "carol",
            ]

            listed = json.loads(
                urllib.request.urlopen(base + "/sessions").read()
            )
            assert {s["session_id"] for s in listed["sessions"]} == {
                "alice", "carol", "dave",
            }

            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post("/rebalance", {"session_id": "ghost"})
            assert excinfo.value.code == 400
        finally:
            server.shutdown()

    def test_internal_error_returns_json_500(self, config, market):
        from repro.serving.http import serve

        reg = StrategyRegistry()

        @reg.register("boom")
        class Boom(Agent):
            name = "Boom"
            stateless = True

            def act(self, data, t, w_prev):
                raise RuntimeError("kaput")

        service = PortfolioService(registry=reg)
        service.register_market("m", market)
        service.create_session(
            "x", "boom", market="m", observation=config.observation
        )
        try:
            server = serve(service, port=0, micro_batch=False)
        except (OSError, PermissionError) as exc:
            pytest.skip(f"cannot bind a local socket here: {exc}")
        base = "http://127.0.0.1:%d" % server.server_address[1]
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            request = urllib.request.Request(
                base + "/rebalance",
                data=json.dumps({"session_id": "x"}).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 500
            assert "kaput" in json.loads(excinfo.value.read())["error"]
        finally:
            server.shutdown()


    def test_each_reply_is_one_write_on_a_nodelay_socket(self, config, market):
        """Headers and body leave in one write on a TCP_NODELAY socket,
        so Nagle never holds a keep-alive reply for a delayed ACK."""
        import http.client
        import socket

        from repro.serving.http import ServingHandler, serve

        writes = []
        nodelay = []

        class Recorder:
            def __init__(self, inner):
                self.inner = inner

            def write(self, data):
                writes.append(bytes(data))
                return self.inner.write(data)

            def __getattr__(self, name):
                return getattr(self.inner, name)

        class RecordingHandler(ServingHandler):
            def setup(self):
                super().setup()
                nodelay.append(
                    self.connection.getsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY
                    )
                )
                self.wfile = Recorder(self.wfile)

        service = make_service(config, market)
        service.create_session("a", "ucrp", market="m")
        try:
            server = serve(service, port=0, micro_batch=False)
        except (OSError, PermissionError) as exc:
            pytest.skip(f"cannot bind a local socket here: {exc}")
        server.RequestHandlerClass = RecordingHandler
        threading.Thread(target=server.serve_forever, daemon=True).start()
        conn = http.client.HTTPConnection(*server.server_address[:2])
        try:
            statuses = []
            for method, path, body in (
                ("GET", "/healthz", None),
                ("POST", "/rebalance", {"session_id": "a"}),
                ("POST", "/rebalance", {"session_id": "ghost"}),
                ("GET", "/metrics", None),
            ):
                conn.request(
                    method, path,
                    None if body is None else json.dumps(body).encode(),
                )
                reply = conn.getresponse()
                reply.read()
                statuses.append(reply.status)
            conn.close()
            # An HTTP/0.9 request gets the bare body, then the close.
            with socket.create_connection(
                server.server_address[:2], timeout=30
            ) as raw:
                raw.sendall(b"GET /healthz\r\n\r\n")
                legacy = b"".join(iter(lambda: raw.recv(65536), b""))
        finally:
            conn.close()
            server.shutdown()
            server.server_close()
        assert statuses == [200, 200, 400, 200]
        assert json.loads(legacy)["status"] == "ok"
        assert len(nodelay) == 2 and all(nodelay)
        assert len(writes) == 5 and writes[4] == legacy
        for data in writes[:4]:
            head, sep, body = data.partition(b"\r\n\r\n")
            assert sep and head.startswith(b"HTTP/1.1 ")
            length = [
                int(line.split(b":", 1)[1])
                for line in head.split(b"\r\n")
                if line.lower().startswith(b"content-length:")
            ]
            assert length == [len(body)] and body


class TestPanelGroupedPrepare:
    """A round's sessions sharing a panel get one stacked prepare_states."""

    def _twin_panel(self, market):
        from repro.data import MarketData

        return MarketData(
            timestamps=market.timestamps,
            names=list(market.names),
            open=market.open,
            high=market.high,
            low=market.low,
            close=market.close,
            volume=market.volume,
            period_seconds=market.period_seconds,
        )

    def test_one_prepare_rows_call_per_round(self, config, market, sdp_params):
        service = make_service(config, market)
        service.register_market("m2", self._twin_panel(market))
        for sid, m in [("a", "m"), ("b", "m2"), ("c", "m"), ("d", "m2"), ("e", "m")]:
            service.create_session(sid, "sdp", params=sdp_params, market=m)

        agent = service._sessions["a"].agent
        assert all(
            service._sessions[s].agent is agent for s in "bcde"
        ), "identical specs must share one agent"

        calls = []
        orig_rows, orig_states = agent.prepare_rows, agent.prepare_states

        def counting(panels, which, indices, w_prev):
            calls.append(([id(p) for p in panels], list(which), len(indices)))
            return orig_rows(panels, which, indices, w_prev)

        def per_panel(data, indices, w_prev):
            raise AssertionError("a round must not build states per panel")

        agent.prepare_rows, agent.prepare_states = counting, per_panel
        try:
            responses = service.rebalance_many(
                [RebalanceRequest(s) for s in "abcde"]
            )
        finally:
            agent.prepare_rows, agent.prepare_states = orig_rows, orig_states

        # One call for the whole group: each distinct panel listed once,
        # rows in request order.
        m, m2 = service._sessions["a"].data, service._sessions["b"].data
        assert calls == [([id(m), id(m2)], [0, 1, 0, 1, 0], 5)]
        assert service.stats.largest_batch == 5
        assert [r.session_id for r in responses] == list("abcde")

    def test_grouped_decisions_match_ungrouped(self, config, market, sdp_params):
        grouped = make_service(config, market)
        grouped.register_market("m2", self._twin_panel(market))
        single = make_service(config, market)
        single.register_market("m2", self._twin_panel(market))
        for sid, m in [("a", "m"), ("b", "m"), ("c", "m2")]:
            grouped.create_session(sid, "sdp", params=sdp_params, market=m)
            single.create_session(sid, "sdp", params=sdp_params, market=m)

        for _ in range(3):
            batched = grouped.rebalance_many(
                [RebalanceRequest(s) for s in "abc"]
            )
            solo = [single.rebalance(s) for s in "abc"]
            for x, y in zip(batched, solo):
                assert x.t == y.t
                assert np.array_equal(x.weights, y.weights)

    def test_interleaved_markets_with_execution_match_one_by_one(
        self, config, market, sdp_params
    ):
        """Sessions of one shared agent over three markets of different
        data and length, interleaved in each round, with an execution
        engine: micro-batched rounds equal one-by-one calls bit for bit,
        advisory estimates included."""
        from repro.execution import ExecutionEngine, LinearImpact

        markets = {
            "m0": market,
            "m1": market.slice_time(int(market.timestamps[7])),
            "m2": market.slice_time(int(market.timestamps[19])),
        }
        sessions = {f"s{i}": f"m{i % 3}" for i in range(7)}

        def build():
            service = PortfolioService(
                commission=config.commission,
                execution=ExecutionEngine(
                    LinearImpact(25.0), portfolio_notional=1e6
                ),
            )
            for name, panel in markets.items():
                service.register_market(name, panel)
            for sid, name in sessions.items():
                service.create_session(sid, "sdp", params=sdp_params, market=name)
            return service

        grouped, single = build(), build()
        assert len({id(s.agent) for s in grouped._sessions.values()}) == 1
        requests = [RebalanceRequest(sid) for sid in sessions]
        for _ in range(4):
            batched = grouped.rebalance_many(requests)
            solo = [single.rebalance(sid) for sid in sessions]
            for x, y in zip(batched, solo):
                assert (x.session_id, x.t) == (y.session_id, y.t)
                assert np.array_equal(x.weights, y.weights)
                assert x.execution is not None
                assert x.execution == y.execution

    def test_microbatched_rounds_match_one_by_one_at_bench_scale(
        self, bench_panels, bench_sdp_params
    ):
        """Eight sessions of the (128, 128) agent on one panel for ten
        rounds: micro-batched rounds and one-by-one calls agree."""
        sessions = [f"s{i}" for i in range(8)]

        def build():
            service = PortfolioService()
            service.register_market("bench", bench_panels[0])
            for sid in sessions:
                service.create_session(
                    sid, "sdp", params=bench_sdp_params, market="bench"
                )
            return service

        grouped, single = build(), build()
        requests = [RebalanceRequest(sid) for sid in sessions]
        for _ in range(10):
            batched = grouped.rebalance_many(requests)
            solo = [single.rebalance(sid) for sid in sessions]
            for x, y in zip(batched, solo):
                assert x.t == y.t
                assert np.array_equal(x.weights, y.weights)


class TestMicroBatcherSlotBookkeeping:
    def test_interrupt_mid_fallback_reports_committed_slots(self):
        from repro.serving.service import _Slot

        served = []

        class FakeService:
            def rebalance_many(self, requests):
                raise ValueError("force the individual fallback")

            def rebalance(self, request):
                if request.session_id == "boom":
                    raise KeyboardInterrupt()
                served.append(request.session_id)
                return f"ok:{request.session_id}"

        batcher = MicroBatcher(FakeService())
        batch = [
            (RebalanceRequest("a"), _Slot()),
            (RebalanceRequest("b"), _Slot()),
            (RebalanceRequest("boom"), _Slot()),
            (RebalanceRequest("late"), _Slot()),
        ]
        batcher._leader_active = True
        with pytest.raises(KeyboardInterrupt):
            batcher._flush(batch)

        slots = [s for _, s in batch]
        assert all(s.done for s in slots)
        # Slots whose decisions committed before the interrupt keep
        # their real responses (the old code marked them all failed).
        assert served == ["a", "b"]
        assert slots[0].response == "ok:a" and slots[0].error is None
        assert slots[1].response == "ok:b" and slots[1].error is None
        # The interrupted and the never-served slot report the interrupt.
        assert isinstance(slots[2].error, KeyboardInterrupt)
        assert isinstance(slots[3].error, KeyboardInterrupt)
        assert batcher._leader_active is False

    def test_fallback_isolates_bad_request(self, config, market, sdp_params):
        from repro.serving.service import _Slot

        service = make_service(config, market)
        service.create_session("good", "sdp", params=sdp_params, market="m")
        batcher = MicroBatcher(service)
        batch = [
            (RebalanceRequest("good"), _Slot()),
            (RebalanceRequest("ghost"), _Slot()),
        ]
        batcher._leader_active = True
        batcher._flush(batch)
        assert batch[0][1].response.session_id == "good"
        assert batch[0][1].error is None
        assert isinstance(batch[1][1].error, KeyError)


class TestExportImport:
    def test_shared_session_round_trip_continues_identically(
        self, config, market, sdp_params
    ):
        # export_session/import_session is the per-session unit the
        # multi-worker supervisor rehydrates through: an imported
        # session's next decisions must be bit-identical.
        service = make_service(config, market)
        service.create_session("s", "sdp", params=sdp_params, market="m")
        for _ in range(3):
            service.rebalance("s")
        payload = service.export_session("s")
        assert payload["shared"] and payload["weights"] is not None

        other = PortfolioService(commission=config.commission)
        other.register_market("m", market)
        info = other.import_session(payload)
        assert info.decisions == 3
        for _ in range(3):
            x = service.rebalance("s")
            y = other.rebalance("s")
            assert x.t == y.t
            np.testing.assert_array_equal(x.weights, y.weights)

    def test_imported_same_spec_sessions_share_one_agent(
        self, config, market, sdp_params
    ):
        service = make_service(config, market)
        service.create_session("a", "sdp", params=sdp_params, market="m")
        service.create_session("b", "sdp", params=sdp_params, market="m")
        other = PortfolioService(commission=config.commission)
        other.register_market("m", market)
        other.import_session(service.export_session("a"))
        other.import_session(service.export_session("b"))
        assert other._sessions["a"].agent is other._sessions["b"].agent

    def test_stateful_session_round_trip(self, config, market):
        service = make_service(config, market)
        service.create_session("s", "ons", market="m")
        for _ in range(2):
            service.rebalance("s")
        payload = service.export_session("s")
        assert not payload["shared"] and payload["agent_key"] is None

        other = PortfolioService(commission=config.commission)
        other.register_market("m", market)
        other.import_session(payload)
        for _ in range(3):
            x = service.rebalance("s")
            y = other.rebalance("s")
            assert x.t == y.t
            np.testing.assert_array_equal(x.weights, y.weights)

    def test_import_requires_registered_market(self, config, market):
        service = make_service(config, market)
        service.create_session("s", "ucrp", market="m")
        payload = service.export_session("s")
        empty = PortfolioService()
        with pytest.raises(KeyError, match="market"):
            empty.import_session(payload)
        # data= registers the panel inline and succeeds.
        empty.import_session(payload, data=market)
        assert empty.session_ids() == ("s",)
