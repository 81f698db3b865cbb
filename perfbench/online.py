"""The serving workloads: ``serve`` and ``serve_cold``.

Both run a 2-worker ``ServingSupervisor`` with the ``caps`` risk engine
behind the stdlib HTTP front, in this process, and drive it with one
closed-loop client on one keep-alive connection: post a
``/rebalance/batch``, wait for the reply, post the next.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import shutil
import tempfile
import threading
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.experiments import risk_regime_preset
from repro.serving import PortfolioService, RebalanceRequest, ServingSupervisor
from repro.serving.http import serve
from repro.utils.rng import stable_hash

from .layers import HTTP_ROUND
from .offline import INFERENCE_AGENT, OBSERVATION, make_panel

SESSION_PARAMS = {"observation": OBSERVATION, **INFERENCE_AGENT}
WORKERS = 2
# Long enough that no session reaches the end of its panel within one
# set-up's share of a run, even at twenty times today's round rate.
MARKET_SPAN = ("2019/01/01", "2019/03/01", 3600)
CHECKED_SESSIONS = 4


def market_names(seed: int) -> List[str]:
    """One market name per worker: the supervisor routes a market's
    sessions by a stable hash of its name."""
    names: Dict[int, str] = {}
    i = 0
    while len(names) < WORKERS:
        candidate = f"market-{seed}-{i}"
        names.setdefault(stable_hash(candidate) % WORKERS, candidate)
        i += 1
    return [names[w] for w in range(WORKERS)]


class Serve:
    """64 sessions, all resident; each round posts every session."""

    name = "serve"
    warmup_rounds = 3
    trace_rounds = 30
    tracer = None
    SESSIONS = 64
    BATCH = 64
    MAX_RESIDENT = None

    def __init__(self, run_dir: Path):
        self.run_dir = run_dir

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.dir = Path(tempfile.mkdtemp(dir=self.run_dir))
        names = market_names(seed)
        self.markets = {
            name: make_panel(seed * 1000 + 500 + w, *MARKET_SPAN)
            for w, name in enumerate(names)
        }
        self.risk = risk_regime_preset("caps").build_engine()
        self.sup = ServingSupervisor(
            self.dir / "state",
            workers=WORKERS,
            risk=self.risk,
            max_resident=self.MAX_RESIDENT,
        )
        for name, panel in self.markets.items():
            self.sup.register_market(name, panel)
        self.session_market = {
            f"s{i}": names[i % WORKERS] for i in range(self.SESSIONS)
        }
        for session_id, market in self.session_market.items():
            self.sup.create_session(
                session_id, strategy="sdp", params=SESSION_PARAMS, market=market
            )
        self.server = serve(self.sup, port=0)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.conn = http.client.HTTPConnection(host, port, timeout=120)
        self.cursor = 0
        rng = np.random.default_rng(seed)
        picked = rng.choice(self.SESSIONS, size=CHECKED_SESSIONS, replace=False)
        # Each response of the sampled sessions, with whether the check
        # compares it: warm-up responses are replayed, not compared.
        self.served: Dict[str, List[Tuple[bool, dict]]] = {
            f"s{i}": [] for i in sorted(picked)
        }
        self.measuring = False

    def start_measuring(self) -> None:
        self.measuring = True

    def round(self) -> Tuple[int, int]:
        ids = [(self.cursor + j) % self.SESSIONS for j in range(self.BATCH)]
        self.cursor = (self.cursor + self.BATCH) % self.SESSIONS
        body = json.dumps(
            {"requests": [{"session_id": f"s{i}"} for i in ids]}
        ).encode()
        span = (
            self.tracer.span(HTTP_ROUND)
            if self.tracer is not None
            else contextlib.nullcontext()
        )
        with span:
            self.conn.request(
                "POST",
                "/rebalance/batch",
                body,
                {"Content-Type": "application/json"},
            )
            reply = self.conn.getresponse()
            data = reply.read()
        if reply.status != 200:
            return self.BATCH, self.BATCH
        responses = json.loads(data)["responses"]
        failed = self.BATCH - len(responses)
        for response in responses:
            degraded = bool(response.get("degraded"))
            failed += degraded
            served = self.served.get(response["session_id"])
            if served is not None:
                # A degraded response has failed already.
                served.append((self.measuring and not degraded, response))
        return self.BATCH, failed

    def check(self) -> int:
        """Failed decisions: measured responses of the sampled sessions
        that differ from an in-process ``PortfolioService`` replay."""
        service = PortfolioService(risk=self.risk)
        for name, panel in self.markets.items():
            service.register_market(name, panel)
        failed = 0
        for session_id, responses in self.served.items():
            service.create_session(
                session_id,
                strategy="sdp",
                params=SESSION_PARAMS,
                market=self.session_market[session_id],
            )
            for counted, response in responses:
                local = service.rebalance_many([RebalanceRequest(session_id)])[0]
                if counted and json.loads(json.dumps(local.to_json_dict())) != response:
                    failed += 1
        return failed

    def worker_pids(self) -> List[int]:
        return [h.pid for h in self.sup.worker_health() if h.pid is not None]

    def extras(self) -> Dict[str, float]:
        return {
            "serving.supervisor.worker_restarts": float(
                self.sup.stats.worker_restarts
            )
        }

    def teardown(self) -> None:
        """Stop the front, drain the workers (they exit with code 0) and
        remove the session store."""
        self.conn.close()
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=30)
        try:
            self.sup.drain(timeout=60)
        finally:
            self.sup.close()
            shutil.rmtree(self.dir, ignore_errors=True)


class ServeCold(Serve):
    """256 sessions over a per-worker residency budget of 32; each round
    posts the next 16 sessions of the population, so most requests
    rehydrate an evicted session from the store."""

    name = "serve_cold"
    warmup_rounds = 3
    trace_rounds = 32
    SESSIONS = 256
    BATCH = 16
    MAX_RESIDENT = 32
