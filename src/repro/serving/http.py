"""Stdlib JSON/HTTP front-end for :class:`PortfolioService`.

No framework: a :class:`http.server.ThreadingHTTPServer` whose handler
speaks a small JSON protocol.  Concurrent ``POST /rebalance`` requests
from different connections funnel through a :class:`MicroBatcher`, so
simultaneous sessions on the same stateless strategy share one batched
network forward.

Routes
------
``GET  /healthz``            liveness + uptime + version + stats
``GET  /health``             liveness + stats + backpressure/degradation detail
                             (per-worker status when serving a supervisor)
``GET  /stats``              service/supervisor counters (failovers, shedding)
``GET  /metrics``            Prometheus text: the backend's metrics registry,
                             whose counters ``/stats`` reads
``GET  /strategies``         names servable through the registry
``GET  /sessions``           live session descriptions
``POST /sessions``           ``{"session_id", "strategy", "params"?, "market"}``
``POST /rebalance``          ``{"session_id", "t"?, "priority"?}`` → one decision
``POST /rebalance/batch``    ``{"requests": [...]}`` → decisions in order

The same handler serves an in-process :class:`~repro.serving.PortfolioService`
or a multi-worker :class:`~repro.serving.ServingSupervisor` — the two
are duck-compatible, and ``/health``/``/stats`` simply surface more
(per-worker liveness, restart and failover counters) when a supervisor
is behind them.

Errors return ``{"error": "..."}`` with a 4xx status; backpressure maps
to its own codes — a full admission queue
(:class:`~repro.serving.QueueFull`) or a priority-shed request
(:class:`~repro.serving.LoadShed`) is a 429, a queue-deadline expiry
(:class:`~repro.serving.DeadlineExceeded`) a 504, and a draining
supervisor (:class:`~repro.serving.Draining`) a 503.  Start one with
:func:`serve` (see ``examples/serving_demo.py``).
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional

from .. import __version__
from ..obs import Obs, render_prometheus
from .service import (
    DeadlineExceeded,
    Draining,
    InvalidStrategyOutput,
    MicroBatcher,
    PortfolioService,
    QueueFull,
    RebalanceRequest,
    decode_params,
)
from .supervisor import LoadShed

__all__ = ["ServiceHTTPServer", "ServingHandler", "serve"]


class ServiceHTTPServer(ThreadingHTTPServer):
    """HTTP server bound to one :class:`PortfolioService` (or
    :class:`~repro.serving.ServingSupervisor`)."""

    daemon_threads = True

    def __init__(
        self,
        address,
        service: PortfolioService,
        micro_batch: bool = True,
        max_batch: int = 64,
        max_wait: float = 0.005,
        max_queue: Optional[int] = None,
        request_timeout: Optional[float] = None,
        quiet: bool = True,
    ):
        super().__init__(address, ServingHandler)
        self.service = service
        self.batcher: Optional[MicroBatcher] = (
            MicroBatcher(
                service,
                max_batch=max_batch,
                max_wait=max_wait,
                max_queue=max_queue,
                request_timeout=request_timeout,
            )
            if micro_batch
            else None
        )
        self.quiet = quiet
        # The front records into the backend's registry, so /metrics is
        # one page; a dark backend gets a front-only event log beside it.
        self.obs = (
            service.obs if service.obs.enabled else Obs(metrics=service.metrics)
        )


class ServingHandler(BaseHTTPRequestHandler):
    server: ServiceHTTPServer

    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: on a keep-alive connection Nagle would hold a reply
    # until the client's delayed ACK of the previous one (~40 ms).
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        # Request logs used to vanish under quiet=True; now every line
        # lands in the structured event log at debug level (dropped
        # there only if the log's threshold says so), and stderr output
        # remains opt-in via quiet=False.
        self.server.obs.event(
            "http_log",
            level="debug",
            client=self.address_string(),
            message=format % args,
        )
        if not getattr(self.server, "quiet", True):
            super().log_message(format, *args)

    def _begin(self) -> None:
        """Start the clock; dispatch and the route label read ``_path``."""
        self._t0 = time.perf_counter()
        self._path = self.path.split("?", 1)[0]

    def _route(self) -> str:
        """The path normalised for metric labels: known routes pass
        through, anything else (unknown paths, future id-suffixed
        routes) collapses to its first segment + ``/*`` so label
        cardinality stays bounded."""
        path = self._path
        known = {
            "/healthz", "/health", "/stats", "/metrics", "/strategies",
            "/sessions", "/rebalance", "/rebalance/batch",
        }
        if path in known:
            return path
        head = path.split("/", 2)[1] if path.startswith("/") else path
        return f"/{head}/*"

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        """Record this request's route metrics, then write the response.

        Recording first is what lets a client read its own writes: once
        it has this response, a following ``GET /metrics`` counts it.
        """
        obs = self.server.obs
        route = self._route()
        obs.counter(
            "repro_http_requests_total",
            help="HTTP requests by route",
            route=route,
            method=self.command,
        ).inc()
        obs.histogram(
            "repro_http_request_seconds",
            help="HTTP request wall-clock by route",
            route=route,
            method=self.command,
        ).observe(time.perf_counter() - self._t0)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        # end_headers() would flush the headers as a segment of their
        # own; headers and body go out in one write instead.  (An
        # HTTP/0.9 request buffers no headers: its reply is the body.)
        headers = getattr(self, "_headers_buffer", [])
        if headers:
            headers.append(b"\r\n")
        self.wfile.write(b"".join(headers) + body)
        self._headers_buffer = []

    def _write_json(self, status: int, payload: Dict[str, Any]) -> None:
        self._send(status, "application/json", json.dumps(payload).encode("utf-8"))

    def _read_json(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length) if length else b"{}"
        payload = json.loads(raw.decode("utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _error(self, status: int, message: str) -> None:
        self._write_json(status, {"error": message})

    def _write_metrics(self) -> None:
        """``GET /metrics``: the backend registry in Prometheus text.

        Every counter ``/stats`` reports is a series there, recorded
        whether or not the backend's observability is on."""
        obs = self.server.obs
        obs.gauge(
            "repro_uptime_seconds", help="seconds since backend construction"
        ).set(self.server.service.uptime_seconds())
        self._send(
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            render_prometheus(obs.metrics).encode("utf-8"),
        )

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802
        self._begin()
        try:
            self._do_get()
        except (KeyError, ValueError) as exc:
            message = exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)
            self._error(400, str(message))
        except Exception as exc:
            self._error(500, f"{type(exc).__name__}: {exc}")

    def _do_get(self) -> None:
        service = self.server.service
        path = self._path
        batcher = self.server.batcher
        batcher_stats = None if batcher is None else batcher.stats.to_json_dict()
        if path in ("/healthz", "/health"):
            stats = service.stats
            payload: Dict[str, Any] = {
                "status": "ok",
                "sessions": len(service.session_ids()),
                "uptime_seconds": service.uptime_seconds(),
                "version": __version__,
                "stats": stats.to_json_dict(),
            }
            if path == "/health":
                # The resilience-aware sibling of /healthz: the counters
                # an operator watches under load — degraded serving and
                # admission-queue backpressure.  A supervisor adds
                # per-worker liveness and whether a drain is underway.
                payload["batcher"] = batcher_stats
                if hasattr(stats, "degraded_responses"):
                    payload["degraded_responses"] = stats.degraded_responses
                    payload["breaker_trips"] = stats.breaker_trips
                if hasattr(service, "worker_health"):
                    workers = [h.to_json_dict() for h in service.worker_health()]
                    payload["workers"] = workers
                    payload["worker_restarts"] = stats.worker_restarts
                    payload["failovers"] = stats.failovers
                    if getattr(service, "_draining", False):
                        payload["status"] = "draining"
                    elif not all(w["alive"] for w in workers):
                        # A dead worker between heartbeats: still
                        # serving (dispatch heals on touch), but say so.
                        payload["status"] = "degraded"
            self._write_json(200, payload)
        elif path == "/stats":
            if hasattr(service, "stats_dict"):
                payload = dict(service.stats_dict())
            else:
                payload = {
                    "service": service.stats.to_json_dict(),
                    "batcher": batcher_stats,
                }
            payload["uptime_seconds"] = service.uptime_seconds()
            payload["version"] = __version__
            self._write_json(200, payload)
        elif path == "/metrics":
            self._write_metrics()
        elif path == "/strategies":
            self._write_json(200, {"strategies": list(service.registry.names())})
        elif path == "/sessions":
            self._write_json(
                200,
                {
                    "sessions": [
                        info.to_json_dict()
                        for info in service.describe_sessions()
                    ]
                },
            )
        else:
            self._error(404, f"unknown path {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802
        self._begin()
        try:
            payload = self._read_json()
        except (ValueError, json.JSONDecodeError) as exc:
            self._error(400, f"invalid JSON body: {exc}")
            return
        try:
            if self._path == "/sessions":
                self._create_session(payload)
            elif self._path == "/rebalance":
                self._rebalance(payload)
            elif self._path == "/rebalance/batch":
                self._rebalance_batch(payload)
            else:
                self._error(404, f"unknown path {self.path!r}")
        except Draining as exc:
            # The supervisor is shutting down cleanly; clients should
            # fail over to another instance.
            self._error(503, str(exc))
        except LoadShed as exc:
            # Priority shedding at the supervisor front.  Same 429
            # family as QueueFull, with a marker so clients can tell
            # "queue full, back off" from "outranked, raise priority".
            self._write_json(429, {"error": str(exc), "shed": True})
        except QueueFull as exc:
            # Backpressure, not failure: the admission queue is at its
            # bound — clients should back off and retry.
            self._error(429, str(exc))
        except DeadlineExceeded as exc:
            # The request aged out waiting for a batch leader.
            self._error(504, str(exc))
        except InvalidStrategyOutput as exc:
            # Server-side strategy fault, not a bad request.
            self._error(500, str(exc))
        except (KeyError, ValueError, TypeError) as exc:
            # str(KeyError) wraps the message in repr quotes; unwrap it.
            message = exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)
            self._error(400, str(message))
        except Exception as exc:  # strategy/internal failure: JSON 500, keep the connection sane
            self._error(500, f"{type(exc).__name__}: {exc}")

    _SESSION_FIELDS = {"session_id", "strategy", "params", "market", "start"}

    def _create_session(self, payload: Dict[str, Any]) -> None:
        unknown = set(payload) - self._SESSION_FIELDS
        if unknown:
            raise ValueError(
                f"unknown fields {sorted(unknown)}; expected "
                f"{sorted(self._SESSION_FIELDS)}"
            )
        if "session_id" not in payload:
            raise ValueError("'session_id' is required")
        if "market" not in payload:
            raise ValueError("'market' is required (a registered market name)")
        # Params pass through the checkpoint codec, so tagged config
        # objects (e.g. {"__type__": "ObservationConfig", ...}) can be
        # expressed over the wire.
        params = decode_params(payload.get("params") or {})
        info = self.server.service.create_session(
            session_id=str(payload["session_id"]),
            strategy=str(payload.get("strategy", "sdp")),
            params=params,
            market=str(payload["market"]),
            start=payload.get("start"),
        )
        self._write_json(201, info.to_json_dict())

    @staticmethod
    def _parse_request(payload: Dict[str, Any]) -> RebalanceRequest:
        unknown = set(payload) - {"session_id", "t", "priority"}
        if unknown:
            raise ValueError(
                f"unknown fields {sorted(unknown)}; expected "
                "['session_id', 't', 'priority']"
            )
        if "session_id" not in payload:
            raise ValueError("'session_id' is required")
        t = payload.get("t")
        return RebalanceRequest(
            session_id=str(payload["session_id"]),
            t=None if t is None else int(t),
            priority=int(payload.get("priority") or 0),
        )

    def _rebalance(self, payload: Dict[str, Any]) -> None:
        request = self._parse_request(payload)
        t0 = time.perf_counter()
        if self.server.batcher is not None:
            response = self.server.batcher.submit(request)
        else:
            response = self.server.service.rebalance(request)
        self._observe_rebalance(t0)
        self._write_json(200, response.to_json_dict())

    def _rebalance_batch(self, payload: Dict[str, Any]) -> None:
        raw = payload.get("requests")
        if not isinstance(raw, list) or not raw:
            raise ValueError("'requests' must be a non-empty list")
        requests = [self._parse_request(item) for item in raw]
        t0 = time.perf_counter()
        responses = self.server.service.rebalance_many(requests)
        self._observe_rebalance(t0)
        self._write_json(
            200, {"responses": [r.to_json_dict() for r in responses]}
        )

    def _observe_rebalance(self, t0: float) -> None:
        # Observed unconditionally so the rebalance latency summary is
        # on /metrics even when the backend runs dark.
        self.server.obs.histogram(
            "repro_rebalance_latency_seconds",
            help="rebalance_many wall-clock per call",
            component="http",
        ).observe(time.perf_counter() - t0)


def serve(
    service: PortfolioService,
    host: str = "127.0.0.1",
    port: int = 8000,
    micro_batch: bool = True,
    max_batch: int = 64,
    max_wait: float = 0.005,
    max_queue: Optional[int] = None,
    request_timeout: Optional[float] = None,
    quiet: bool = True,
) -> ServiceHTTPServer:
    """Bind a :class:`ServiceHTTPServer`; call ``serve_forever()`` on it.

    ``service`` may be an in-process :class:`PortfolioService` or a
    :class:`~repro.serving.ServingSupervisor` — the handler serves both.
    ``port=0`` picks a free port (``server.server_address`` has it).
    ``max_queue``/``request_timeout`` bound the micro-batcher's
    admission queue (429) and queue wait (504); ``None`` leaves both
    unbounded.
    """
    return ServiceHTTPServer(
        (host, port),
        service,
        micro_batch=micro_batch,
        max_batch=max_batch,
        max_wait=max_wait,
        max_queue=max_queue,
        request_timeout=request_timeout,
        quiet=quiet,
    )
