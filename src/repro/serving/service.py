"""Multi-session portfolio inference service.

``PortfolioService`` is the deployment counterpart of the back-test
loop: each *session* is one live portfolio (a market panel, a strategy
spec, the previous target weights, and a decision cursor), and a
rebalance request asks "given everything up to period ``t``, what are
the next target weights?".  Decisions are produced through the public
Strategy protocol (:meth:`~repro.agents.base.Agent.prepare_rows` /
:meth:`~repro.agents.base.Agent.decide_batch`), so concurrent requests
against stateless strategies collapse into one batched network forward
— the same mechanism :class:`~repro.envs.backtester.Backtester` uses in
lockstep mode, which is what keeps served trajectories bit-comparable
with ``run_backtest``.

Checkpointing writes every market panel and every session's
:meth:`~PortfolioService.export_session` payload into a
:class:`~repro.serving.SessionStateStore` directory, committed by a
``checkpoint.json`` written last, so a service can be stopped and
resumed with identical subsequent decisions.

Resilience (PR 7): an optional :class:`ServingResilience` config arms a
per-session circuit breaker — a session whose strategy keeps failing is
served *degraded* hold-previous-weights responses
(:attr:`RebalanceResponse.degraded`) for a cooldown instead of failing
every caller — and an optional
:class:`~repro.resilience.FaultPlan` arms the serving chaos seams
(forward raises, slow sessions, checkpoint corruption).  Both default
to off, leaving the unhardened bit-identical paths.
"""

from __future__ import annotations

import copy
import inspect
import json
import threading
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..agents.base import Agent
from ..autograd import no_grad
from ..obs import MetricsRegistry, get_obs
from ..data.market import MarketData
from ..envs.book import InvalidAction, normalize_actions, step_book
from ..envs.costs import DEFAULT_COMMISSION
from ..envs.observations import ObservationConfig
from ..registry import DEFAULT_REGISTRY, StrategyRegistry
from ..resilience import InjectedFault, injector_from
from ..risk import CONSTRAINT_NAMES, LockoutState
from ..snn.neurons import LIFParameters
from ..utils.serialization import (
    PathLike,
    decode_tagged,
    encode_tagged,
    register_tagged_type,
)
from .store import SessionStateStore, read_checkpoint

__all__ = [
    "BatcherStats",
    "DeadlineExceeded",
    "Draining",
    "InvalidStrategyOutput",
    "MicroBatcher",
    "PortfolioService",
    "QueueFull",
    "RebalanceRequest",
    "RebalanceResponse",
    "ServiceStats",
    "ServingResilience",
    "SessionInfo",
]


class InvalidStrategyOutput(ValueError):
    """A strategy produced invalid weights (a server-side fault, not a
    bad request — the HTTP layer maps it to a 500)."""


class QueueFull(RuntimeError):
    """The micro-batcher's bounded admission queue rejected a request
    (backpressure — the HTTP layer maps it to a 429)."""


class Draining(RuntimeError):
    """A draining supervisor admits no new work (503).  Like
    :class:`QueueFull` it is backpressure: it refuses a batch as a
    whole, so :class:`MicroBatcher` never replays it request by
    request."""


class DeadlineExceeded(TimeoutError):
    """A queued request waited past its deadline without being served
    (the HTTP layer maps it to a 504)."""


@dataclass(frozen=True)
class ServingResilience:
    """Per-session circuit-breaker configuration.

    After ``failure_threshold`` consecutive strategy failures a
    session's breaker opens: its next ``cooldown_decisions`` requests
    are served degraded (previous weights held, cursor advanced,
    ``degraded=True``) without touching the strategy.  The first
    request after the cooldown is the half-open probe — success closes
    the breaker, another failure reopens it.
    """

    failure_threshold: int = 3
    cooldown_decisions: int = 8

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown_decisions < 1:
            raise ValueError("cooldown_decisions must be >= 1")


# ----------------------------------------------------------------------
# Spec (de)serialisation: strategy params may contain the repo's config
# dataclasses; the shared tagged codec (repro.utils.serialization)
# encodes them with a type tag so specs round-trip JSON.  The same codec
# is what the experiment artifact store writes, which is why serving can
# load strategies straight out of sweep artifacts.

register_tagged_type(ObservationConfig)
register_tagged_type(LIFParameters)

_encode_value = encode_tagged
_decode_value = decode_tagged


def decode_params(params: Any) -> Any:
    """Decode a JSON params payload, resolving tagged config objects
    (``{"__type__": "ObservationConfig", ...}``) — the same codec
    checkpoints use, exposed for the HTTP layer."""
    return decode_tagged(params)


def _canonical_key(strategy: str, params: Dict[str, Any]) -> Optional[str]:
    """Canonical JSON identity of a strategy spec, used both for
    shared-agent matching and checkpoint round-trips — one definition so
    restored agents keep matching newly created specs.  ``None`` when
    the params are not encodable."""
    try:
        return json.dumps(
            {"strategy": strategy, "params": _encode_value(params)},
            sort_keys=True,
        )
    except TypeError:
        return None


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RebalanceRequest:
    """One rebalance query against a session.

    ``t`` is the decision index into the session's panel; ``None`` means
    "the session's next decision" (the cursor), which is what a live
    stream of requests uses.  An explicit ``t`` is a **seek**: the
    decision is computed against the session's *current* weights and the
    cursor moves to ``t + 1`` — use it to start a stream at a chosen
    period or to skip ahead, not to replay history on a live session
    (the original weight chain is not reconstructed).

    ``priority`` matters only at an overloaded supervisor front: when
    the in-flight budget is exhausted, lower-priority requests are shed
    with a structured 429 while strictly higher-priority ones are still
    admitted.  The in-process service ignores it (decisions never
    depend on priority), which keeps supervisor and plain responses
    bit-identical.
    """

    session_id: str
    t: Optional[int] = None
    priority: int = 0


@dataclass
class RebalanceResponse:
    """The served decision: target weights (cash first) for period ``t``.

    ``execution`` is an advisory pre-trade estimate (expected impact
    cost, peak participation, fillable fraction) attached only when the
    service carries a non-free execution engine; decisions themselves
    are never altered by it.

    ``risk`` is the guardrail report attached only when the service
    carries a risk engine.  Unlike ``execution`` it is *not* advisory:
    ``weights`` are the post-projection weights actually served —
    constraints bound in serving exactly as they do in back-test.
    """

    session_id: str
    t: int
    weights: np.ndarray
    strategy: str
    execution: Optional[Dict[str, float]] = None
    risk: Optional[Dict[str, Any]] = None
    # True when a circuit-broken session held its previous weights
    # instead of consulting the strategy (resilience-enabled services
    # only).  Healthy responses omit the key on the wire entirely, so
    # hardened and unhardened payloads are byte-identical.
    degraded: bool = False

    def to_json_dict(self) -> Dict[str, Any]:
        payload = {
            "session_id": self.session_id,
            "t": self.t,
            "weights": [float(w) for w in np.asarray(self.weights)],
            "strategy": self.strategy,
        }
        if self.execution is not None:
            payload["execution"] = dict(self.execution)
        if self.risk is not None:
            payload["risk"] = dict(self.risk)
        if self.degraded:
            payload["degraded"] = True
        return payload

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "RebalanceResponse":
        """Inverse of :meth:`to_json_dict`."""
        return cls(
            session_id=payload["session_id"],
            t=payload["t"],
            weights=np.asarray(payload["weights"], dtype=np.float64),
            strategy=payload["strategy"],
            execution=payload.get("execution"),
            risk=payload.get("risk"),
            degraded=bool(payload.get("degraded", False)),
        )


@dataclass
class SessionInfo:
    """Public description of a live session."""

    session_id: str
    strategy: str
    market: str
    n_assets: int
    next_t: int
    last_t: int
    decisions: int
    shared_agent: bool

    def to_json_dict(self) -> Dict[str, Any]:
        return asdict(self)


def counting_registry(obs) -> MetricsRegistry:
    """Where a serving component keeps its counters: its obs handle's
    registry when the handle is enabled, else a private one."""
    return obs.metrics if obs.enabled else MetricsRegistry()


def stat(series: str, help: str, kind: str = "counter"):
    """A stats field whose one home is the registry series ``series``."""
    return field(default=0, metadata={"series": series, "help": help, "kind": kind})


class StatsSeries:
    """A stats dataclass bound to a registry: one attribute per field
    holds its Counter or Gauge, and :meth:`read` is the snapshot."""

    def __init__(self, cls, registry: MetricsRegistry):
        self._cls = cls
        for f in fields(cls):
            make = getattr(registry, f.metadata["kind"])
            setattr(self, f.name, make(f.metadata["series"], help=f.metadata["help"]))

    def read(self):
        return self._cls(**{
            f.name: int(getattr(self, f.name).value) for f in fields(self._cls)
        })


@dataclass(frozen=True)
class ServiceStats:
    """Counters for observing micro-batching effectiveness: a snapshot
    read from :attr:`PortfolioService.metrics`."""

    requests_served: int = stat("repro_requests_total", "rebalance requests served")
    batched_forwards: int = stat(
        "repro_batched_forwards_total", "decide_batch forwards shared by 2+ sessions"
    )
    single_decisions: int = stat(
        "repro_single_decisions_total", "decisions made for one session alone"
    )
    largest_batch: int = stat(
        "repro_largest_batch", "most sessions in one forward", "gauge"
    )
    sessions_created: int = stat("repro_sessions_created_total", "sessions created")
    degraded_responses: int = stat(
        "repro_degraded_responses_total", "circuit-broken hold responses"
    )
    breaker_trips: int = stat("repro_breaker_trips_total", "session breaker trips")

    def to_json_dict(self) -> Dict[str, int]:
        return asdict(self)


@dataclass
class _StagedState:
    """Per-session scratch state a transactional batch decides against."""

    w_prev: np.ndarray
    next_t: int
    decisions: int = 0
    first_t: Optional[int] = None
    # Guardrail paper-book state (risk-engine services only).
    risk_value: float = 1.0
    risk_w_drifted: Optional[np.ndarray] = None
    lockout: Optional[LockoutState] = None


@dataclass
class _Session:
    session_id: str
    spec: Dict[str, Any]           # {"strategy": name, "params": {...}} (raw)
    agent: Agent
    agent_key: str                 # canonical key; shared agents collide here
    shared: bool
    market: str                    # name in the service's market registry
    data: MarketData
    observation: ObservationConfig
    next_t: int
    start: int
    w_prev: np.ndarray
    decisions: int = 0
    # Guardrail paper book (risk-engine services only): simulated
    # portfolio value, drifted pre-trade weights, and lockout state —
    # stepped by the back-test's book kernel, so drawdown lockouts
    # trigger identically live and in back-test.  ``risk_w_drifted is
    # None`` means "not yet armed" (fresh sessions, and sessions
    # restored from pre-risk checkpoints — they arm lazily on the next
    # decision).
    risk_value: float = 1.0
    risk_w_drifted: Optional[np.ndarray] = None
    lockout: Optional[LockoutState] = None
    # Circuit-breaker counters (resilience-enabled services only).
    # Runtime state, deliberately not checkpointed: a restored service
    # starts every breaker closed.
    breaker_failures: int = 0
    breaker_cooldown: int = 0
    # The export payload's constant part (everything no round changes),
    # encoded at the session's first export and reused by every later
    # one.  Lazy, so a create never fails on params only a checkpoint
    # would have to encode.
    constant: Optional[Dict[str, Any]] = None


class PortfolioService:
    """Serves rebalance decisions for many concurrent portfolio sessions.

    Parameters
    ----------
    registry:
        Strategy registry used to construct session strategies
        (defaults to the process-wide one, including user strategies
        registered through :func:`repro.registry.register`).
    commission:
        Recorded per-session for parity with back-test configuration
        (decisions themselves are commission-free functions of state).
    execution:
        Optional :class:`~repro.execution.ExecutionEngine`.  A
        *non-free* engine attaches advisory pre-trade cost estimates to
        every response (:attr:`RebalanceResponse.execution`); ``None``
        or a zero-cost model skips the execution layer entirely — the
        micro-batched hot path does no extra work per round.  Advisory
        only: served weights are never altered, and the engine is a
        runtime setting (not persisted in checkpoints).
    risk:
        Optional :class:`~repro.risk.RiskEngine` — per-session
        guardrails.  Every decision is projected onto the constraint
        set before it is served (*not* advisory: the served weights are
        the post-projection ones), driven by a per-session paper book
        stepped by the back-test's book kernel
        (:func:`~repro.envs.book.step_book`), so drawdown lockouts fire
        identically live and in back-test.  The paper book prices
        commission only: the execution engine stays advisory.  ``None``
        or a null engine (no limits) skips the
        layer entirely.  The engine is a runtime setting; the
        per-session guardrail state (value, high-water mark, lockout)
        persists through checkpoints.
    resilience:
        Optional :class:`ServingResilience` enabling the per-session
        circuit breaker.  ``None`` (default) keeps today's semantics:
        strategy failures abort the whole transactional batch and
        propagate.
    faults:
        Optional :class:`~repro.resilience.FaultPlan` (or prepared
        :class:`~repro.resilience.FaultInjector`) arming the serving
        chaos seams — injected forward failures, slow sessions, and
        checkpoint corruption.  ``None`` or an empty plan leaves every
        seam cold.
    """

    def __init__(
        self,
        registry: Optional[StrategyRegistry] = None,
        commission: float = DEFAULT_COMMISSION,
        execution=None,
        risk=None,
        resilience: Optional[ServingResilience] = None,
        faults=None,
        obs=None,
    ):
        self.registry = registry if registry is not None else DEFAULT_REGISTRY
        self.commission = float(commission)
        self._resilience = resilience
        self._injector = injector_from(faults)
        # Session ids with any breaker state (failures or cooldown).
        # Empty set == every breaker closed and clean, so the resilient
        # dispatch can take the transactional hot path with O(1) extra
        # work per batch.  Ids only leave the set on the general path.
        self._breaker_dirty: set = set()
        # Resolved once: the ZeroSlippage fast path must cost nothing
        # per decision, not re-test the model every round.
        self._execution = (
            execution
            if execution is not None and not execution.is_free
            else None
        )
        # Same discipline: a null risk engine is dropped outright so the
        # hot path never pays for an empty projection.
        self._risk = risk if risk is not None and not risk.is_null else None
        self._sessions: Dict[str, _Session] = {}
        self._markets: Dict[str, MarketData] = {}
        self._shared_agents: Dict[str, Agent] = {}
        self._private_seq = 0  # stable unique keys for unshared agents
        # strategy → (factory, takes n_assets?): inspect.signature is
        # ~10% of a create, so each factory is inspected once.
        self._factory_n_assets: Dict[str, Tuple[Callable, bool]] = {}
        self._lock = threading.RLock()
        self._started = time.monotonic()
        self._obs = obs if obs is not None else get_obs()
        self._metrics = counting_registry(self._obs)
        self._counts = StatsSeries(ServiceStats, self._metrics)
        if self._obs.enabled:
            self._m_latency = self._obs.histogram(
                "repro_rebalance_latency_seconds",
                help="rebalance_many wall-clock per call",
                component="service",
            )

    @property
    def obs(self):
        """The observability handle this service records into."""
        return self._obs

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry holding this service's counters."""
        return self._metrics

    @property
    def stats(self) -> ServiceStats:
        """The counters in :attr:`metrics`, read as one snapshot."""
        return self._counts.read()

    def uptime_seconds(self) -> float:
        """Seconds since this service instance was constructed."""
        return time.monotonic() - self._started

    @property
    def execution(self):
        """The active execution engine (``None`` when unset, or when
        the configured model was free and got dropped at construction)."""
        return self._execution

    @property
    def risk(self):
        """The active risk engine (``None`` when unset, or when the
        configured engine was null and got dropped at construction)."""
        return self._risk

    # -- markets -------------------------------------------------------
    def register_market(self, name: str, data: MarketData) -> str:
        """Register a market panel sessions can reference by name.

        Names are immutable once bound: live sessions and checkpoints
        reference panels by name, so rebinding would silently swap the
        data under them.  Re-registering the same panel is a no-op.
        """
        if not isinstance(data, MarketData):
            raise TypeError("data must be a MarketData panel")
        with self._lock:
            existing = self._markets.get(name)
            if existing is not None and existing is not data:
                raise ValueError(
                    f"market {name!r} is already registered with a different "
                    "panel; market names are immutable"
                )
            self._markets[name] = data
        return name

    def market_names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._markets))

    # -- sessions ------------------------------------------------------
    def create_session(
        self,
        session_id: str,
        strategy: str = "sdp",
        params: Optional[Mapping[str, Any]] = None,
        market: Optional[str] = None,
        data: Optional[MarketData] = None,
        observation: Optional[ObservationConfig] = None,
        start: Optional[int] = None,
        agent: Optional[Agent] = None,
        agent_key: Optional[str] = None,
    ) -> SessionInfo:
        """Open a session serving ``strategy`` over a market panel.

        The panel comes either from a registered market name
        (``market=...``) or inline (``data=...``, auto-registered under
        ``"session:<id>"``).  Learned strategies receive ``n_assets``
        automatically when the params omit it.  ``start`` overrides the
        first decision index (default: the observation's earliest index
        with a full window, matching ``run_backtest``).

        A *prebuilt* ``agent`` (e.g. one trained elsewhere, or loaded
        from an experiment artifact — see
        :meth:`create_session_from_artifact`) bypasses registry
        construction; ``strategy``/``params`` still describe it so
        checkpoints can rebuild it.  Stateless prebuilt agents sharing
        the same ``agent_key`` are shared across sessions like
        registry-built ones; without a key the agent stays private to
        this session.
        """
        params = dict(params or {})
        prebuilt = agent
        with self._lock:
            if session_id in self._sessions:
                raise ValueError(f"session {session_id!r} already exists")
            if (market is None) == (data is None):
                raise ValueError("pass exactly one of market= or data=")
            if market is not None:
                if market not in self._markets:
                    raise KeyError(
                        f"unknown market {market!r}; registered: "
                        f"{', '.join(self.market_names()) or '(none)'}"
                    )
                panel = self._markets[market]
                market_name = market
            else:
                panel = data
                market_name = f"session:{session_id}"

            if strategy not in self.registry:
                raise KeyError(
                    f"unknown strategy {strategy!r}; available: "
                    f"{', '.join(self.registry.names())}"
                )
            agent, agent_key, shared, build_params = self._resolve_agent(
                strategy, params, panel, prebuilt=prebuilt, prebuilt_key=agent_key
            )
            obs = observation
            if obs is None:
                obs = getattr(agent, "observation", None)
            if obs is None:
                obs = ObservationConfig()

            first = obs.first_decision_index()
            if first >= panel.n_periods - 1:
                raise ValueError(
                    f"panel too short: {panel.n_periods} periods for "
                    f"observation window {obs.window}"
                )
            t0 = int(start) if start is not None else first
            if not first <= t0 <= panel.n_periods - 2:
                raise ValueError(
                    f"start index {t0} outside decidable range "
                    f"[{first}, {panel.n_periods - 2}]"
                )

            # Register the inline panel and publish the shared agent only
            # after everything validated, so a failed create leaves no
            # ghost market or agent behind.  register_market keeps names
            # immutable even when a closed session's auto-name is still
            # referenced by others.
            if data is not None:
                self.register_market(market_name, panel)
            if shared:
                self._shared_agents[agent_key] = agent
            session = _Session(
                session_id=session_id,
                spec={"strategy": strategy, "params": build_params},
                agent=agent,
                agent_key=agent_key,
                shared=shared,
                market=market_name,
                data=panel,
                observation=obs,
                next_t=t0,
                start=t0,
                w_prev=self._initial_weights(panel),
            )
            if not shared:
                agent.begin_backtest(panel)
            self._sessions[session_id] = session
            self._counts.sessions_created.inc()
            return self._info(session)

    def create_session_from_artifact(
        self,
        session_id: str,
        store,
        shard_id: str,
        market: Optional[str] = None,
        data: Optional[MarketData] = None,
        observation: Optional[ObservationConfig] = None,
        start: Optional[int] = None,
    ) -> SessionInfo:
        """Open a session serving a strategy trained by the sweep engine.

        ``store`` is an :class:`~repro.experiments.ArtifactStore` (or
        its root path); the shard's persisted constructor params rebuild
        the exact agent and its trained weights are loaded — the same
        checkpoint-loading path the experiment layer uses.  Sessions
        created from the same shard share one agent instance (stateless
        strategies), so a fleet of live portfolios serving one trained
        policy micro-batches into single forwards.
        """
        from ..experiments.artifacts import ArtifactStore

        if not isinstance(store, ArtifactStore):
            store = ArtifactStore(store)
        # json-only spec read; the warm path (agent already shared from
        # an earlier session on this shard) never touches the npz files.
        spec = store.load_strategy_spec(shard_id)
        key = f"artifact:{Path(store.root).resolve()}:{shard_id}"
        with self._lock:
            agent = self._shared_agents.get(f"!{key}")
        if agent is None:
            agent = store.load_agent(shard_id, registry=self.registry)
        return self.create_session(
            session_id,
            strategy=spec["strategy"],
            params=spec["params"],
            market=market,
            data=data,
            observation=observation,
            start=start,
            agent=agent,
            agent_key=key,
        )

    def _resolve_agent(
        self,
        strategy: str,
        params: Dict[str, Any],
        panel: MarketData,
        prebuilt: Optional[Agent] = None,
        prebuilt_key: Optional[str] = None,
    ) -> Tuple[Agent, str, bool, Dict[str, Any]]:
        """Construct (or share) the strategy instance for a session.

        Returns the agent, its canonical key, whether it is shared, and
        the *effective* constructor params (``n_assets`` auto-injected
        when the strategy's factory accepts it — learned strategies,
        built-in or user-registered) — the spec checkpoints persist.
        """
        build_params = dict(params)
        if "n_assets" not in build_params and self._factory_takes_n_assets(
            strategy
        ):
            build_params["n_assets"] = panel.n_assets
        if prebuilt is not None:
            n = getattr(prebuilt, "n_assets", None)
            if n is not None and int(n) != panel.n_assets:
                raise ValueError(
                    f"prebuilt agent serves {int(n)} assets but the panel "
                    f"has {panel.n_assets}"
                )
            if prebuilt.stateless and prebuilt_key is not None:
                # Keyed prebuilt agents share like canonical ones; the
                # "!" prefix keeps the key out of spec-canonical space.
                key = f"!{prebuilt_key}"
                existing = self._shared_agents.get(key)
                if existing is not None:
                    return existing, key, True, build_params
                return prebuilt, key, True, build_params
            self._private_seq += 1
            return prebuilt, f"!private:{self._private_seq}", False, build_params
        canonical = _canonical_key(strategy, build_params)
        if canonical is not None and canonical in self._shared_agents:
            return self._shared_agents[canonical], canonical, True, build_params
        agent = self.registry.create(strategy, **build_params)
        if agent.stateless and canonical is not None:
            # Not cached yet: create_session publishes to _shared_agents
            # only after the whole create validates, so a failed create
            # leaves no ghost agent behind.
            return agent, canonical, True, build_params
        # Stateful agents are never shared, so their key must be unique
        # per instance — a spec-derived (or reusable id-based) key would
        # make checkpoints collapse same-spec sessions onto one agent.
        self._private_seq += 1
        return agent, f"!private:{self._private_seq}", False, build_params

    def _factory_takes_n_assets(self, strategy: str) -> bool:
        factory = self.registry.get_factory(strategy)
        if factory is None:
            return False
        cached = self._factory_n_assets.get(strategy)
        if cached is not None and cached[0] is factory:
            return cached[1]
        try:
            takes = "n_assets" in inspect.signature(factory).parameters
        except (TypeError, ValueError):  # builtins without signatures
            takes = False
        self._factory_n_assets[strategy] = (factory, takes)
        return takes

    @staticmethod
    def _initial_weights(panel: MarketData) -> np.ndarray:
        w = np.zeros(panel.n_assets + 1)
        w[0] = 1.0  # fully in cash, like PortfolioEnv.reset()
        return w

    def _info(self, session: _Session) -> SessionInfo:
        return SessionInfo(
            session_id=session.session_id,
            strategy=session.spec["strategy"],
            market=session.market,
            n_assets=session.data.n_assets,
            next_t=session.next_t,
            last_t=session.data.n_periods - 2,
            decisions=session.decisions,
            shared_agent=session.shared,
        )

    def close_session(self, session_id: str) -> None:
        with self._lock:
            self._breaker_dirty.discard(session_id)
            session = self._sessions.pop(session_id, None)
            if session is None:
                return
            # Drop resources nothing else references: the session's
            # auto-registered inline panel and its shared agent entry.
            if session.market.startswith("session:") and not any(
                s.market == session.market for s in self._sessions.values()
            ):
                self._markets.pop(session.market, None)
            if session.shared and not any(
                s.agent_key == session.agent_key
                for s in self._sessions.values()
            ):
                self._shared_agents.pop(session.agent_key, None)

    def agent_keys(self) -> Tuple[str, ...]:
        """Keys of the shared agents this service holds."""
        with self._lock:
            return tuple(self._shared_agents)

    def session_ids(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._sessions))

    def describe_session(self, session_id: str) -> SessionInfo:
        with self._lock:
            return self._info(self._session(session_id))

    def describe_sessions(self) -> Tuple[SessionInfo, ...]:
        """Atomic snapshot of every live session's description."""
        with self._lock:
            return tuple(
                self._info(session)
                for _, session in sorted(self._sessions.items())
            )

    def _session(self, session_id: str) -> _Session:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise KeyError(f"unknown session {session_id!r}") from None

    # -- serving -------------------------------------------------------
    def rebalance(self, request: Union[RebalanceRequest, str]) -> RebalanceResponse:
        """Serve one rebalance decision (accepts a bare session id)."""
        if isinstance(request, str):
            request = RebalanceRequest(session_id=request)
        return self.rebalance_many([request])[0]

    def rebalance_many(
        self, requests: Sequence[RebalanceRequest]
    ) -> List[RebalanceResponse]:
        """Serve a batch of rebalance requests, micro-batching across
        sessions.

        Requests hitting sessions that share a stateless strategy
        instance are decided in one ``decide_batch`` forward pass.
        Multiple requests for the *same* session keep their sequential
        semantics: they are processed in arrival order across rounds,
        each seeing the weights the previous one produced.

        The batch is transactional: decisions are computed against
        staged copies of the session state, and the sessions (and
        stats) are only updated after every request in the batch has
        produced a valid decision.  Any error — unknown session, index
        out of range, a strategy returning invalid weights — leaves
        every session untouched.

        With a :class:`ServingResilience` config the transaction is a
        best-effort outer shell instead: a strategy failure no longer
        fails the whole batch — the offending requests are isolated,
        their sessions' breaker counters advance, and circuit-broken
        sessions are served degraded hold-previous-weights responses
        (``degraded=True``) while healthy siblings commit normally.
        Client errors (unknown session, out-of-range index) still raise
        either way.
        """
        if not requests:
            return []
        obs_on = self._obs.enabled
        if obs_on:
            t0 = time.perf_counter()
        if self._resilience is None:
            responses = self._rebalance_transactional(requests)
        else:
            responses = self._rebalance_resilient(requests)
        if obs_on:
            self._m_latency.observe(time.perf_counter() - t0)
        return responses

    def _rebalance_resilient(
        self, requests: Sequence[RebalanceRequest]
    ) -> List[RebalanceResponse]:
        """The circuit-breaker shell around the transactional core."""
        with self._lock:
            if not self._breaker_dirty:
                # Hot path: every breaker closed and clean.  Serve the
                # whole batch through the transactional core with O(1)
                # extra work — the overhead budget CI's dispatch gate holds.
                try:
                    return self._rebalance_transactional(requests)
                except Exception:
                    pass
                responses: List[Optional[RebalanceResponse]] = [None] * len(requests)
                live: List[Tuple[int, RebalanceRequest]] = list(enumerate(requests))
            else:
                responses = [None] * len(requests)
                live = []
                for i, req in enumerate(requests):
                    session = self._session(req.session_id)
                    if session.breaker_cooldown > 0:
                        responses[i] = self._serve_degraded(session, req)
                    else:
                        live.append((i, req))
                if live:
                    try:
                        served = self._rebalance_transactional(
                            [req for _, req in live]
                        )
                    except Exception:
                        served = None
                    if served is not None:
                        for (i, _), resp in zip(live, served):
                            responses[i] = resp
                        for _, req in live:
                            self._reset_breaker(self._sessions[req.session_id])
                        live = []
            # The live batch failed as a whole; replay it one request at
            # a time so only the offenders degrade.  Earlier successes
            # in the replay stay committed — isolation trades away
            # all-or-nothing on purpose.
            for i, req in live:
                session = self._session(req.session_id)
                if session.breaker_cooldown > 0:
                    responses[i] = self._serve_degraded(session, req)
                    continue
                try:
                    responses[i] = self._rebalance_transactional([req])[0]
                    self._reset_breaker(session)
                except (KeyError, TypeError):
                    raise  # client error, breaker not at fault
                except Exception as exc:
                    if isinstance(exc, ValueError) and not isinstance(
                        exc, InvalidStrategyOutput
                    ):
                        raise  # bad index etc. — client error
                    self._record_breaker_failure(session)
                    responses[i] = self._serve_degraded(session, req)
            return responses  # type: ignore[return-value]

    def _serve_degraded(
        self, session: _Session, request: RebalanceRequest
    ) -> RebalanceResponse:
        """Hold-previous-weights response for a circuit-broken session.

        The cursor still advances (a live stream keeps flowing) but the
        strategy, the served weights, and the risk paper book are left
        untouched — the degraded period is a hold, not a trade.
        """
        t = int(request.t) if request.t is not None else session.next_t
        first = session.observation.first_decision_index()
        if not first <= t <= session.data.n_periods - 2:
            raise ValueError(
                f"session {session.session_id!r}: decision index {t} "
                f"outside decidable range "
                f"[{first}, {session.data.n_periods - 2}]"
            )
        session.next_t = t + 1
        session.decisions += 1
        if session.breaker_cooldown > 0:
            session.breaker_cooldown -= 1
        self._counts.requests_served.inc()
        self._counts.degraded_responses.inc()
        if self._obs.enabled:
            self._obs.event(
                "serving_degraded",
                level="warn",
                session=session.session_id,
                t=t,
            )
        return RebalanceResponse(
            session_id=session.session_id,
            t=t,
            weights=session.w_prev.copy(),
            strategy=session.spec["strategy"],
            degraded=True,
        )

    def _reset_breaker(self, session: _Session) -> None:
        """A successful live decision closes the session's breaker."""
        session.breaker_failures = 0
        if session.breaker_cooldown == 0:
            self._breaker_dirty.discard(session.session_id)

    def _record_breaker_failure(self, session: _Session) -> None:
        session.breaker_failures += 1
        self._breaker_dirty.add(session.session_id)
        if session.breaker_failures >= self._resilience.failure_threshold:
            session.breaker_cooldown = self._resilience.cooldown_decisions
            # Leave the counter one below the threshold: the half-open
            # probe after the cooldown reopens on a single failure,
            # while a success resets the counter to zero.
            session.breaker_failures = self._resilience.failure_threshold - 1
            self._counts.breaker_trips.inc()
            if self._obs.enabled:
                self._obs.event(
                    "breaker_trip",
                    level="warn",
                    session=session.session_id,
                    cooldown=session.breaker_cooldown,
                )

    def _rebalance_transactional(
        self, requests: Sequence[RebalanceRequest]
    ) -> List[RebalanceResponse]:
        with self._lock:
            # Resolve every request upfront: staged per-session cursor
            # and weights that rounds read and write without touching
            # the sessions themselves.
            staged: Dict[str, _StagedState] = {}
            resolved: List[Tuple[int, _Session, int]] = []
            for pos, req in enumerate(requests):
                session = self._session(req.session_id)
                state = staged.get(req.session_id)
                if state is None:
                    state = _StagedState(
                        w_prev=session.w_prev,
                        next_t=session.next_t,
                        risk_value=session.risk_value,
                        risk_w_drifted=session.risk_w_drifted,
                        lockout=(
                            session.lockout.copy()
                            if session.lockout is not None
                            else None
                        ),
                    )
                    staged[req.session_id] = state
                t = int(req.t) if req.t is not None else state.next_t
                first = session.observation.first_decision_index()
                if not first <= t <= session.data.n_periods - 2:
                    raise ValueError(
                        f"session {session.session_id!r}: decision index {t} "
                        f"outside decidable range "
                        f"[{first}, {session.data.n_periods - 2}]"
                    )
                state.next_t = t + 1
                resolved.append((pos, session, t))

            # Stateful strategies mutate internal state inside act()
            # (e.g. ONS's running Hessian), which staging cannot defer —
            # snapshot them (once per session) so an aborted batch can
            # roll the agents back.
            backups: Dict[str, Agent] = {}
            for _, session, _ in resolved:
                if (
                    not session.agent.stateless
                    and session.session_id not in backups
                ):
                    backups[session.session_id] = copy.deepcopy(session.agent)

            responses: List[Optional[RebalanceResponse]] = [None] * len(requests)
            tally = {"batched_forwards": 0, "single_decisions": 0, "largest_batch": 0}
            pending = resolved
            try:
                while pending:
                    this_round: List[Tuple[int, _Session, int]] = []
                    seen_sessions = set()
                    deferred = []
                    for item in pending:
                        if item[1].session_id in seen_sessions:
                            deferred.append(item)
                        else:
                            seen_sessions.add(item[1].session_id)
                            this_round.append(item)
                    self._serve_round(this_round, staged, responses, tally)
                    pending = deferred
            except BaseException:
                for session_id, agent in backups.items():
                    self._sessions[session_id].agent = agent
                raise

            # Everything decided cleanly: commit sessions and counts.
            for session_id, state in staged.items():
                session = self._sessions[session_id]
                session.w_prev = state.w_prev
                session.next_t = state.next_t
                if self._risk is not None:
                    session.risk_value = state.risk_value
                    session.risk_w_drifted = state.risk_w_drifted
                    session.lockout = state.lockout
                if session.decisions == 0 and state.first_t is not None:
                    # The session's true anchor is the first index it
                    # actually served (an explicit-t first request may
                    # seek past the default start) — checkpoint restore
                    # re-anchors stateful strategies here.
                    session.start = state.first_t
                session.decisions += state.decisions
            self._counts.requests_served.inc(len(requests))
            self._counts.batched_forwards.inc(tally["batched_forwards"])
            self._counts.single_decisions.inc(tally["single_decisions"])
            self._counts.largest_batch.set_max(tally["largest_batch"])
            return responses  # type: ignore[return-value]

    def _serve_round(
        self,
        items: List[Tuple[int, _Session, int]],
        staged: Dict[str, "_StagedState"],
        responses: List[Optional[RebalanceResponse]],
        tally: Dict[str, int],
    ) -> None:
        """Decide one round of requests over pairwise-distinct sessions,
        reading and writing only the staged state."""
        if self._injector is not None:
            # Chaos seams, keyed (session, t) so replays are identical:
            # slow sessions stall here (inside the round, where a real
            # slow forward would), injected forward failures raise —
            # aborting the transactional batch exactly like a genuine
            # strategy error, which is what the breaker shell isolates.
            for _, session, t in items:
                self._injector.maybe_stall(session.session_id, t)
                if self._injector.forward_fails(session.session_id, t):
                    raise InjectedFault(
                        "serving.forward", f"{session.session_id}:{t}"
                    )
        # Group batchable work by shared agent instance.
        groups: Dict[int, List[Tuple[int, _Session, int]]] = {}
        singles: List[Tuple[int, _Session, int]] = []
        for item in items:
            if item[1].agent.stateless:
                groups.setdefault(id(item[1].agent), []).append(item)
            else:
                singles.append(item)

        for group in groups.values():
            agent = group[0][1].agent
            # One prepare_rows call builds every session's features:
            # sessions serving the same market panel share its gathers
            # (the common case at scale), and rows stay in group order.
            slots: Dict[int, int] = {}
            panels: List[MarketData] = []
            which: List[int] = []
            for _, s, _ in group:
                if id(s.data) not in slots:
                    slots[id(s.data)] = len(panels)
                    panels.append(s.data)
                which.append(slots[id(s.data)])
            indices = np.array([t for _, _, t in group], dtype=np.int64)
            w_prev = np.stack([staged[s.session_id].w_prev for _, s, _ in group])
            states = agent.prepare_rows(panels, np.array(which), indices, w_prev)
            with no_grad():
                weights = np.asarray(agent.decide_batch(states))
            if weights.ndim != 2 or weights.shape[0] != len(group):
                raise InvalidStrategyOutput(
                    f"strategy {group[0][1].spec['strategy']!r}: decide_batch "
                    f"returned shape {weights.shape} for a batch of "
                    f"{len(group)} states"
                )
            if len(group) > 1:
                tally["batched_forwards"] += 1
                tally["largest_batch"] = max(tally["largest_batch"], len(group))
            else:
                tally["single_decisions"] += 1
            infos: List[Optional[Dict[str, float]]] = [None] * len(group)
            if self._execution is not None:
                # One vectorized estimate for the whole round's group —
                # the batched API the engine exposes for exactly this.
                infos = self._estimate_execution(group, w_prev, weights)
            self._stage_decisions(staged, group, weights, infos, responses)

        # Stateful strategies keep the ambient grad mode: act() is a
        # user extension point that may legitimately adapt online
        # (backprop inside act), unlike the stateless decide_batch path.
        for pos, session, t in singles:
            w = np.asarray(
                session.agent.act(
                    session.data, t, staged[session.session_id].w_prev
                )
            )
            tally["single_decisions"] += 1
            info = None
            if self._execution is not None:
                info = self._estimate_execution(
                    [(pos, session, t)],
                    staged[session.session_id].w_prev[None, :],
                    w[None, :],
                )[0]
            self._stage_decisions(
                staged, [(pos, session, t)], w[None], [info], responses
            )

    def _estimate_execution(
        self,
        items: List[Tuple[int, "_Session", int]],
        w_prev: np.ndarray,
        weights: np.ndarray,
    ) -> List[Dict[str, float]]:
        """Advisory pre-trade estimates for a round of decisions — one
        :meth:`~repro.execution.ExecutionEngine.estimate_batch` call for
        the whole batch (the tradable-volume rows are cached slices)."""
        engine = self._execution
        volumes = np.stack(
            [engine.tradable_volume(s.data, t) for _, s, t in items]
        )
        est = engine.estimate_batch(w_prev, weights, volumes)
        return [
            {
                "cost": float(est["cost"][i]),
                "max_participation": float(est["max_participation"][i]),
                "fill_ratio": float(est["fill_ratio"][i]),
            }
            for i in range(len(items))
        ]

    def _stage_decisions(
        self,
        staged: Dict[str, "_StagedState"],
        items: List[Tuple[int, _Session, int]],
        weights: np.ndarray,
        execution_infos: Sequence[Optional[Dict[str, float]]],
        responses: List[Optional[RebalanceResponse]],
    ) -> None:
        """Validate a round's decisions over pairwise-distinct sessions
        and stage them, reading and writing only the staged state.

        The same validation + normalisation the back-test applies, so
        served trajectories match back-tested ones exactly — and a
        misbehaving user strategy raises (aborting the whole untouched
        batch) instead of poisoning the session with NaN weights.
        """
        labels = [f"session {s.session_id!r}: strategy weights" for _, s, _ in items]
        risk_infos: List[Optional[Dict[str, Any]]] = [None] * len(items)
        try:
            if self._risk is None:
                weights = normalize_actions(
                    weights, items[0][1].data.n_assets + 1, labels
                )
            else:
                weights, risk_infos = self._step_paper_books(
                    staged, items, weights, labels
                )
        except InvalidAction as exc:
            raise InvalidStrategyOutput(str(exc)) from None
        for (pos, session, t), w, execution_info, risk_info in zip(
            items, weights, execution_infos, risk_infos
        ):
            state = staged[session.session_id]
            state.w_prev = w.copy()
            if state.decisions == 0:
                state.first_t = t
            state.decisions += 1
            responses[pos] = RebalanceResponse(
                session_id=session.session_id,
                t=t,
                weights=w,
                strategy=session.spec["strategy"],
                execution=execution_info,
                risk=risk_info,
            )

    def _step_paper_books(
        self,
        staged: Dict[str, "_StagedState"],
        items: List[Tuple[int, _Session, int]],
        weights: np.ndarray,
        labels: List[str],
    ) -> Tuple[np.ndarray, List[Dict[str, Any]]]:
        """Project a round's decisions and advance their paper books in
        one :func:`~repro.envs.book.step_book` pass.

        Each decision is projected against its book's drifted pre-trade
        weights and value; the book then grows through the decision's
        holding period (commission-only μ, the panel's realised price
        relative) so the *next* decision's drawdown guard sees it.  All
        writes go to the staged state; an aborted batch leaves the
        sessions' guardrails untouched.
        """
        states = [staged[s.session_id] for _, s, _ in items]
        for state in states:
            if state.risk_w_drifted is None:
                # Arm lazily: fresh sessions, and sessions restored from
                # pre-risk checkpoints, baseline the guard at the current
                # book (value 1.0, drift = last served target).
                state.risk_w_drifted = np.asarray(state.w_prev, dtype=np.float64).copy()
                state.lockout = self._risk.initial_state(state.risk_value)
        y = np.ones((len(items), items[0][1].data.n_assets + 1))
        y[:, 1:] = [s.data.close[t + 1] / s.data.close[t] for _, s, t in items]
        book = step_book(
            np.stack([state.risk_w_drifted for state in states]),
            weights,
            y,
            np.array([state.risk_value for state in states]),
            self.commission,
            labels=labels,
            risk=self._risk,
            t=np.array([t - s.start for _, s, t in items]),
            lockout=[state.lockout for state in states],
        )
        report = book.risk
        infos = []
        for row, state in enumerate(states):
            state.risk_value = float(book.value[row])
            state.risk_w_drifted = book.w_drifted[row]
            state.lockout = report.states[row]
            info: Dict[str, Any] = {
                "pre_turnover": float(report.pre_turnover[row]),
                "post_turnover": float(report.post_turnover[row]),
                "locked": bool(report.locked[row]),
                "binding": [
                    name for name in CONSTRAINT_NAMES if report.binding[name][row]
                ],
                "value": state.risk_value,
            }
            if state.lockout is not None:
                info["lockout"] = state.lockout.to_json_dict()
            infos.append(info)
        return book.weights, infos

    # -- checkpointing -------------------------------------------------
    def save_checkpoint(self, path: PathLike) -> Path:
        """Persist every registered market and every session to ``path``.

        ``path`` becomes a :class:`~repro.serving.SessionStateStore`
        directory — the markets, one :meth:`export_session` payload per
        session, then ``checkpoint.json`` as the commit mark — which
        also opens as a supervisor state dir.  Saving over an earlier
        checkpoint replaces it: markets and sessions this service no
        longer has are deleted, re-used names get their new content.
        """
        store = SessionStateStore(path)
        with self._lock:
            store.save_checkpoint(
                self.commission,
                self._markets,
                (self.export_session(sid) for sid in self._sessions),
            )
        if self._injector is not None:
            # Chaos seam: tear files after the clean save, emulating
            # disk corruption load_checkpoint must surface as
            # CheckpointCorrupt.
            self._injector.corrupt_checkpoint(store.root)
        return store.root

    @classmethod
    def load_checkpoint(
        cls, path: PathLike, registry: Optional[StrategyRegistry] = None,
        risk=None, faults=None,
    ) -> "PortfolioService":
        """Rebuild a service whose next decisions match the saved one's.

        Registers the checkpoint's markets and runs
        :meth:`import_session` on each of its sessions (version-1/2
        ``manifest.json`` checkpoints too, via the legacy reader).
        ``risk`` and ``faults`` are runtime settings; sessions saved
        without guardrail state arm fresh on their next decision.  A
        torn file raises :class:`~repro.serving.CheckpointCorrupt`
        naming it; a missing checkpoint raises ``FileNotFoundError``.
        """
        commission, markets, payloads = read_checkpoint(path)
        service = cls(
            registry=registry, commission=commission, risk=risk, faults=faults
        )
        for name, data in markets.items():
            service.register_market(name, data)
        for payload in payloads:
            service.import_session(payload)
        return service

    # -- session export/import -----------------------------------------
    def export_session(
        self, session_id: str, weights: bool = True
    ) -> Dict[str, Any]:
        """Portable snapshot of one session — the unit a
        :class:`~repro.serving.SessionStateStore` persists, and so the
        per-session unit of every checkpoint.

        The payload carries the session's spec (params tag-encoded, so
        the dict round-trips JSON), the *name* of its market panel (not
        the panel itself — panels are shared and persisted separately),
        its cursor/weights/guardrail state, and — for learned
        strategies — the network state dict as numpy arrays (the one
        non-JSON field; :class:`~repro.serving.SessionStateStore` spills
        it to an ``.npz`` sidecar).  :meth:`import_session` on any
        service with the same market registered rebuilds a session whose
        next decisions are bit-identical — the failover contract the
        multi-worker supervisor rehydrates through.  ``weights=False``
        leaves the ``"weights"`` entry out, skipping the state-dict copy
        for a caller whose store already holds the weights.

        The session's constant part (spec, market, sharing, observation)
        is encoded once and shared by every payload exported for it:
        the top-level dict and ``state`` are fresh, the values under
        ``spec`` and ``state["observation"]`` are read-only.
        """
        with self._lock:
            session = self._session(session_id)
            if session.constant is None:
                session.constant = self._encode_constant(session)
            state: Dict[str, Any] = {
                **session.constant["state"],
                "next_t": session.next_t,
                "start": session.start,
                "decisions": session.decisions,
                "w_prev": session.w_prev.tolist(),
            }
            if session.risk_w_drifted is not None:
                state["risk"] = {
                    "value": float(session.risk_value),
                    "w_drifted": session.risk_w_drifted.tolist(),
                    "lockout": (
                        session.lockout.to_json_dict()
                        if session.lockout is not None
                        else None
                    ),
                }
            payload = {**session.constant, "state": state}
            if weights:
                network = getattr(session.agent, "network", None)
                payload["weights"] = (
                    network.state_dict()
                    if network is not None and hasattr(network, "state_dict")
                    else None
                )
            return payload

    @staticmethod
    def _encode_constant(session: _Session) -> Dict[str, Any]:
        """The part of a session's export payload no round changes,
        tag-encoded: shared by every payload :meth:`export_session`
        returns for it, so read-only."""
        return {
            "version": 2,
            "session_id": session.session_id,
            "spec": {
                "strategy": session.spec["strategy"],
                "params": _encode_value(session.spec["params"]),
            },
            "market": session.market,
            "shared": session.shared,
            "agent_key": session.agent_key if session.shared else None,
            "state": {
                "observation": _encode_value(session.observation),
                # Denormalised so a store can describe evicted sessions
                # without loading their (large) market panel.
                "n_assets": session.data.n_assets,
                "last_t": session.data.n_periods - 2,
            },
        }

    def import_session(
        self, payload: Mapping[str, Any], data: Optional[MarketData] = None
    ) -> SessionInfo:
        """Recreate a session from an :meth:`export_session` payload.

        The payload's market must already be registered under the same
        name (or be supplied via ``data=``, which registers it).  A
        shared agent republishes under the key it was shared by — so
        two sessions imported with the same spec land on one instance
        and keep micro-batching into single forwards — while stateful
        agents are rebuilt private, re-anchored at the session's first
        served index (their state is spec + anchor).  This is the one
        decoder for persisted sessions: supervisor rehydration and
        :meth:`load_checkpoint` both run through it.
        """
        if payload.get("version") not in (1, 2):
            raise ValueError(
                f"unsupported session payload version {payload.get('version')!r}"
            )
        spec = {
            "strategy": payload["spec"]["strategy"],
            "params": _decode_value(payload["spec"]["params"]),
        }
        state = payload["state"]
        with self._lock:
            session_id = payload["session_id"]
            if session_id in self._sessions:
                raise ValueError(f"session {session_id!r} already exists")
            market_name = payload["market"]
            if data is not None:
                self.register_market(market_name, data)
            if market_name not in self._markets:
                raise KeyError(
                    f"unknown market {market_name!r}; register it before "
                    "importing sessions that reference it"
                )
            panel = self._markets[market_name]
            shared = bool(payload["shared"])
            # Spec-canonical for registry-built agents, the explicit
            # "!"-key for prebuilt/artifact agents: restoring an artifact
            # agent under the spec-canonical key would hand its trained
            # weights to later plain same-spec sessions.
            shared_key = payload.get("agent_key") or _canonical_key(
                spec["strategy"], spec["params"]
            )
            agent = (
                self._shared_agents.get(shared_key)
                if shared and shared_key is not None
                else None
            )
            if agent is None:
                agent = self.registry.create(spec["strategy"], **spec["params"])
                if payload.get("weights") is not None:
                    agent.network.load_state_dict(payload["weights"])
                if shared and shared_key is not None:
                    self._shared_agents[shared_key] = agent
            if not shared:
                self._private_seq += 1
            session = _Session(
                session_id=session_id,
                spec=spec,
                agent=agent,
                # Stateful agents need per-instance keys, or a later
                # export would dedup same-spec sessions onto one agent.
                agent_key=(
                    shared_key if shared else f"!private:{self._private_seq}"
                ),
                shared=shared,
                market=market_name,
                data=panel,
                observation=_decode_value(state["observation"]),
                next_t=int(state["next_t"]),
                start=int(state["start"]),
                w_prev=np.asarray(state["w_prev"], dtype=np.float64),
                decisions=int(state["decisions"]),
            )
            risk_state = state.get("risk")
            if risk_state is not None:
                session.risk_value = float(risk_state["value"])
                session.risk_w_drifted = np.asarray(
                    risk_state["w_drifted"], dtype=np.float64
                )
                if risk_state.get("lockout") is not None:
                    session.lockout = LockoutState.from_json_dict(
                        risk_state["lockout"]
                    )
            if not shared:
                agent.begin_backtest(panel)
                # Classical strategies anchor their relatives window at
                # the first served index; restore that cursor when the
                # session had already started.
                if session.decisions > 0 and hasattr(agent, "_start_index"):
                    agent._start_index = session.start
            self._sessions[session_id] = session
            return self._info(session)


# ----------------------------------------------------------------------
class _Slot:
    """Mailbox for one request passing through the micro-batcher."""

    __slots__ = ("response", "error", "done")

    def __init__(self):
        self.response: Optional[RebalanceResponse] = None
        self.error: Optional[BaseException] = None
        self.done = False


@dataclass(frozen=True)
class BatcherStats:
    """Backpressure counters for the micro-batcher's admission queue:
    a snapshot read from :attr:`MicroBatcher.metrics`."""

    submitted: int = stat(
        "repro_batcher_submitted_total", "requests admitted to the queue"
    )
    queue_rejections: int = stat(
        "repro_batcher_rejections_total", "requests shed at admission (QueueFull)"
    )
    deadline_expirations: int = stat(
        "repro_batcher_deadline_expirations_total", "requests expired waiting in queue"
    )
    max_queue_depth: int = stat(
        "repro_batcher_max_queue_depth", "high-water mark of pending requests", "gauge"
    )

    def to_json_dict(self) -> Dict[str, int]:
        return asdict(self)


class MicroBatcher:
    """Coalesces concurrent rebalance requests into batched service calls.

    Threads call :meth:`submit`; the first waiter becomes the *leader*,
    waits up to ``max_wait`` seconds (or until ``max_batch`` requests
    accumulate), then flushes the whole batch through
    :meth:`PortfolioService.rebalance_many` — one SNN forward for the
    lot — and distributes the responses.

    ``max_queue`` bounds admission: a request arriving with that many
    already pending is rejected with :class:`QueueFull` instead of
    growing the queue without limit.  ``request_timeout`` bounds the
    *queue wait*: a request still unclaimed by a leader when its
    deadline passes removes itself and raises :class:`DeadlineExceeded`
    (once a leader has taken it into a flush it is served normally —
    in-flight work is never abandoned).  Both default to unbounded,
    preserving the unhardened behaviour; :attr:`stats` counts
    rejections, expirations, and the queue's high-water mark.
    """

    def __init__(
        self,
        service: PortfolioService,
        max_batch: int = 64,
        max_wait: float = 0.005,
        max_queue: Optional[int] = None,
        request_timeout: Optional[float] = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be >= 1 (or None for unbounded)")
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError("request_timeout must be > 0 (or None)")
        self.service = service
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait)
        self.max_queue = None if max_queue is None else int(max_queue)
        self.request_timeout = (
            None if request_timeout is None else float(request_timeout)
        )
        self._cond = threading.Condition()
        self._pending: List[Tuple[RebalanceRequest, _Slot]] = []
        self._leader_active = False
        # Share the service's obs handle and registry so batcher series
        # land on the same /metrics page as the service's.
        svc_obs = getattr(service, "obs", None)
        self._obs = svc_obs if svc_obs is not None else get_obs()
        self._metrics = (
            getattr(service, "metrics", None) or counting_registry(self._obs)
        )
        self._counts = StatsSeries(BatcherStats, self._metrics)
        self._m_depth = self._metrics.gauge(
            "repro_batcher_queue_depth", help="pending requests in queue"
        )

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry holding this batcher's counters (its service's)."""
        return self._metrics

    @property
    def stats(self) -> BatcherStats:
        """The counters in :attr:`metrics`, read as one snapshot."""
        return self._counts.read()

    def submit(self, request: RebalanceRequest) -> RebalanceResponse:
        """Enqueue ``request`` and block until its decision is served.

        The calling thread either waits for a leader to serve it or
        becomes the leader itself; leadership hands over whenever a
        flush completes with requests still queued, so no waiter can
        be stranded past the batch cut.

        Raises :class:`QueueFull` when the admission queue is at
        ``max_queue``, and :class:`DeadlineExceeded` when the request
        is still queued after ``request_timeout`` seconds.
        """
        slot = _Slot()
        with self._cond:
            if (
                self.max_queue is not None
                and len(self._pending) >= self.max_queue
            ):
                self._counts.queue_rejections.inc()
                if self._obs.enabled:
                    self._obs.event(
                        "batcher_shed",
                        level="warn",
                        pending=len(self._pending),
                        max_queue=self.max_queue,
                    )
                raise QueueFull(
                    f"admission queue full ({len(self._pending)} pending, "
                    f"max_queue={self.max_queue})"
                )
            self._pending.append((request, slot))
            self._counts.submitted.inc()
            self._counts.max_queue_depth.set_max(len(self._pending))
            self._m_depth.set(len(self._pending))
            self._cond.notify_all()
        deadline = (
            None
            if self.request_timeout is None
            else time.monotonic() + self.request_timeout
        )
        while True:
            with self._cond:
                while not slot.done and (self._leader_active or not self._pending):
                    if deadline is None:
                        self._cond.wait()
                        continue
                    remaining = deadline - time.monotonic()
                    if remaining > 0:
                        self._cond.wait(remaining)
                        continue
                    # Deadline passed.  Still queued → withdraw and
                    # fail; already claimed by a leader → the decision
                    # is in flight, wait it out (it will be served).
                    withdrawn = False
                    for i, (_, pending_slot) in enumerate(self._pending):
                        if pending_slot is slot:
                            del self._pending[i]
                            withdrawn = True
                            break
                    if withdrawn:
                        self._counts.deadline_expirations.inc()
                        self._m_depth.set(len(self._pending))
                        raise DeadlineExceeded(
                            f"request for session "
                            f"{request.session_id!r} spent more than "
                            f"{self.request_timeout}s in the queue"
                        )
                    deadline = None
                if slot.done:
                    if slot.error is not None:
                        raise slot.error
                    return slot.response
                # No leader and work queued (our slot included): lead.
                self._leader_active = True
                batch = self._collect_locked()
            self._flush(batch)

    def _flush(self, batch: List[Tuple[RebalanceRequest, _Slot]]) -> None:
        """Serve ``batch`` outside the lock and wake its waiters.

        If the batched call rejects (one bad request fails the whole
        transactional batch, leaving every session untouched), fall
        back to serving each request individually so only the
        offenders see the error.  Backpressure (:class:`QueueFull`, and
        so a supervisor's ``LoadShed``, and :class:`Draining`) is the
        exception: it rejects the batch as a whole, so every request
        sees it and none is replayed (a replay would be refused, and a
        shed one counted, once more).

        Outcomes are tracked per slot as they commit: when a
        ``KeyboardInterrupt``/``SystemExit`` lands mid individual
        fallback, slots whose decisions already committed still get
        their real responses — only the requests that never ran see the
        interrupt.
        """
        # slot id -> (response, error); filled in as outcomes commit.
        outcomes: Dict[int, Tuple[Optional[RebalanceResponse], Optional[BaseException]]] = {}
        try:
            with self._obs.span("batcher.flush", size=len(batch)):
                try:
                    responses = self.service.rebalance_many(
                        [req for req, _ in batch]
                    )
                    for (_, s), resp in zip(batch, responses):
                        outcomes[id(s)] = (resp, None)
                except (QueueFull, Draining) as exc:
                    for _, s in batch:
                        outcomes[id(s)] = (None, exc)
                except Exception:
                    for req, s in batch:
                        try:
                            outcomes[id(s)] = (self.service.rebalance(req), None)
                        except Exception as exc:
                            outcomes[id(s)] = (None, exc)
        except BaseException as exc:
            # KeyboardInterrupt/SystemExit: report committed slots
            # accurately, fail only the undone ones, then propagate.
            with self._cond:
                for _, s in batch:
                    resp, err = outcomes.get(id(s), (None, exc))
                    s.response, s.error, s.done = resp, err, True
                self._leader_active = False
                self._cond.notify_all()
            raise
        with self._cond:
            for _, s in batch:
                resp, err = outcomes[id(s)]
                s.response, s.error, s.done = resp, err, True
            self._leader_active = False
            self._cond.notify_all()

    def _collect_locked(self) -> List[Tuple[RebalanceRequest, _Slot]]:
        """Wait (holding the lock) for the batch window, then drain."""
        deadline = time.monotonic() + self.max_wait
        while len(self._pending) < self.max_batch:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            self._cond.wait(remaining)
        batch = self._pending[: self.max_batch]
        self._pending = self._pending[self.max_batch :]
        self._m_depth.set(len(self._pending))
        return batch
