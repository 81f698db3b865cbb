"""String-keyed construction of every strategy in the repo.

The registry is the single public way to build a policy from
configuration — a name plus a parameter dict — instead of importing
concrete classes.  It is what :mod:`repro.serving` uses to turn a JSON
rebalance-session spec into a live agent, what the experiment runner
uses to build its learned agents, and the extension point for user
strategies::

    from repro import registry

    registry.create("sdp", n_assets=6)              # name + params
    registry.build({"strategy": "ons", "params": {"beta": 2.0}})

    @registry.register("my_momentum")
    class MyMomentum(ClassicalStrategy):
        ...

Built-in names: ``sdp``, ``jiang``, ``ons``, ``anticor``, ``crp``,
``ucrp``, ``bah`` (alias ``ubah``), ``best_stock``,
``follow_the_winner``, ``m0``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, Mapping, Optional, Tuple

from .agents.base import Agent
from .agents.jiang import JiangDRLAgent
from .agents.sdp import SDPAgent
from .backend import REFERENCE
from .baselines import CRP, M0, ONS, UBAH, UCRP, Anticor, BestStock, FollowTheWinner

if TYPE_CHECKING:
    from .experiments.config import ExperimentConfig

StrategyFactory = Callable[..., Agent]

__all__ = [
    "DEFAULT_REGISTRY",
    "FAST_TRAINABLE_STRATEGIES",
    "StrategyRegistry",
    "TRAINABLE_STRATEGIES",
    "available_strategies",
    "build",
    "create",
    "is_trainable",
    "register",
    "strategy_backend",
    "strategy_from_config",
    "strategy_params_from_config",
]


def _normalize(name: str) -> str:
    return name.strip().lower().replace("-", "_").replace(" ", "_")


class StrategyRegistry:
    """Maps strategy names to factories producing :class:`Agent` objects.

    Names are case-insensitive; ``-`` and spaces normalise to ``_``.
    """

    def __init__(self):
        self._factories: Dict[str, StrategyFactory] = {}

    # ------------------------------------------------------------------
    def register(
        self, name: str, factory: Optional[StrategyFactory] = None
    ) -> StrategyFactory:
        """Register ``factory`` under ``name``.

        Usable directly — ``registry.register("ons", ONS)`` — or as a
        class/function decorator: ``@registry.register("my_strategy")``.
        Re-registering a taken name raises ``ValueError``.
        """
        key = _normalize(name)

        def _store(f: StrategyFactory) -> StrategyFactory:
            if key in self._factories:
                raise ValueError(f"strategy {key!r} is already registered")
            if not callable(f):
                raise TypeError(f"factory for {key!r} must be callable")
            self._factories[key] = f
            return f

        if factory is None:
            return _store
        return _store(factory)

    def unregister(self, name: str) -> None:
        """Remove a registered strategy (no-op if absent)."""
        self._factories.pop(_normalize(name), None)

    def get_factory(self, name: str) -> Optional[StrategyFactory]:
        """The factory registered under ``name``, or ``None``."""
        return self._factories.get(_normalize(name))

    # ------------------------------------------------------------------
    def create(self, name: str, **params: Any) -> Agent:
        """Construct the strategy registered under ``name``.

        ``params`` are forwarded to the factory verbatim (e.g.
        ``n_assets`` for the learned strategies).
        """
        key = _normalize(name)
        try:
            factory = self._factories[key]
        except KeyError:
            raise KeyError(
                f"unknown strategy {name!r}; available: {', '.join(self.names())}"
            ) from None
        agent = factory(**params)
        if not isinstance(agent, Agent):
            raise TypeError(
                f"factory for {key!r} returned {type(agent).__name__}, "
                "expected an Agent"
            )
        return agent

    def build(self, spec: Mapping[str, Any]) -> Agent:
        """Construct a strategy from a spec dict.

        The spec names the strategy under ``"strategy"`` (or ``"name"``)
        and carries constructor parameters either nested under
        ``"params"`` or inline alongside the name — the JSON shape the
        serving layer speaks.
        """
        spec = dict(spec)
        strategy_key = spec.pop("strategy", None)
        name_key = spec.pop("name", None)
        name = strategy_key if strategy_key is not None else name_key
        if name is None:
            raise KeyError("spec must name a strategy under 'strategy' (or 'name')")
        params = dict(spec.pop("params", None) or {})
        params.update(spec)
        return self.create(name, **params)

    # ------------------------------------------------------------------
    def names(self) -> Tuple[str, ...]:
        """Registered strategy names, sorted."""
        return tuple(sorted(self._factories))

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and _normalize(name) in self._factories

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._factories)


#: The process-wide registry holding every built-in strategy.
DEFAULT_REGISTRY = StrategyRegistry()

DEFAULT_REGISTRY.register("sdp", SDPAgent)
DEFAULT_REGISTRY.register("jiang", JiangDRLAgent)
DEFAULT_REGISTRY.register("ons", ONS)
DEFAULT_REGISTRY.register("anticor", Anticor)
DEFAULT_REGISTRY.register("crp", CRP)
DEFAULT_REGISTRY.register("ucrp", UCRP)
DEFAULT_REGISTRY.register("bah", UBAH)
DEFAULT_REGISTRY.register("ubah", UBAH)
DEFAULT_REGISTRY.register("best_stock", BestStock)
DEFAULT_REGISTRY.register("follow_the_winner", FollowTheWinner)
DEFAULT_REGISTRY.register("m0", M0)


def register(name: str, factory: Optional[StrategyFactory] = None) -> StrategyFactory:
    """Register a user strategy in the default registry (decorator-friendly)."""
    return DEFAULT_REGISTRY.register(name, factory)


def create(name: str, **params: Any) -> Agent:
    """Construct a strategy by name from the default registry."""
    return DEFAULT_REGISTRY.create(name, **params)


def build(spec: Mapping[str, Any]) -> Agent:
    """Construct a strategy from a spec dict via the default registry."""
    return DEFAULT_REGISTRY.build(spec)


def available_strategies() -> Tuple[str, ...]:
    """Names constructible through the default registry."""
    return DEFAULT_REGISTRY.names()


#: Registry names of the strategies trained by :class:`PolicyTrainer`
#: (everything else is a parameter-free classical baseline to which
#: seeds and network hyper-parameters do not apply).
TRAINABLE_STRATEGIES: Tuple[str, ...] = ("sdp", "jiang")


#: The strategies the float32 ``fast`` backend can train: it runs the
#: SDP seed banks only (see :class:`~repro.agents.MultiSeedTrainer`).
FAST_TRAINABLE_STRATEGIES: Tuple[str, ...] = ("sdp",)


def is_trainable(name: str) -> bool:
    """True when ``name`` denotes a learned (trainable) strategy."""
    return _normalize(name) in TRAINABLE_STRATEGIES


def strategy_backend(name: str, backend: str) -> str:
    """The backend a ``name`` shard trains on when its sweep asks for
    ``backend``.

    A strategy the fast tier cannot train (Jiang, and the baselines,
    which never train) keeps the reference tier, so its shards equal
    those of a reference sweep.
    """
    if _normalize(name) in FAST_TRAINABLE_STRATEGIES:
        return backend
    return REFERENCE.name


def strategy_params_from_config(
    name: str,
    config: "ExperimentConfig",
    n_assets: Optional[int] = None,
    **overrides: Any,
) -> Dict[str, Any]:
    """Constructor params for strategy ``name`` under ``config``.

    The single definition of spec→strategy wiring: the experiment
    runner, the sweep engine, and artifact checkpoints all derive (and
    persist) exactly this dict, so a strategy rebuilt from a stored spec
    is constructed identically to the one the experiment ran.
    """
    key = _normalize(name)
    n = int(n_assets) if n_assets is not None else int(config.num_assets)
    params: Dict[str, Any]
    if key == "sdp":
        params = dict(
            n_assets=n,
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
    elif key == "jiang":
        params = dict(
            n_assets=n,
            observation=config.observation,
            seed=config.agent_seed,
        )
    else:
        params = {}
    params.update(overrides)
    return params


def strategy_from_config(
    name: str,
    config: "ExperimentConfig",
    n_assets: Optional[int] = None,
    **overrides: Any,
) -> Agent:
    """Build a strategy wired to an :class:`ExperimentConfig`.

    For the learned strategies the config's observation, network and
    seed hyper-parameters become constructor arguments (exactly the
    wiring the experiment runner uses); classical strategies take no
    config parameters.  ``overrides`` replace any derived argument.
    """
    key = _normalize(name)
    params = strategy_params_from_config(key, config, n_assets, **overrides)
    return DEFAULT_REGISTRY.create(key, **params)
