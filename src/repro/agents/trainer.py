"""Deterministic policy-gradient training loop (§II.C / eq. (1)).

Both the SDP network and the Jiang EIIE baseline are trained the same
way: the reward ``R = (1/t_f) Σ ln(μ_t · y_t · w_{t−1})`` is
differentiable in the action, so minimising ``−R`` over minibatches of
consecutive periods is direct policy optimisation — no critic, no
return-to-go estimation.  Minibatch mechanics follow Jiang et al.:

* batch starts drawn with geometric bias toward the present
  (:class:`~repro.envs.sampling.GeometricBatchSampler`);
* the previous-step weights entering the state and the cost term come
  from the portfolio-vector memory
  (:class:`~repro.envs.pvm.PortfolioVectorMemory`), which is rewritten
  with the fresh policy outputs after every step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Protocol

import numpy as np

from ..autograd import Tensor
from ..autograd.optim import Optimizer
from ..data.market import MarketData
from ..envs.costs import (
    DEFAULT_COMMISSION,
    fused_training_loss_banked,
    transaction_remainder_approx,
)
from ..envs.observations import ObservationConfig
from ..envs.pvm import PortfolioVectorMemory
from ..envs.sampling import DEFAULT_GEOMETRIC_BIAS, GeometricBatchSampler
from ..obs import get_obs
from ..utils.rng import make_rng


class TrainablePolicy(Protocol):
    """What the trainer needs from an agent."""

    def policy_forward(
        self, data: MarketData, indices: np.ndarray, w_prev: np.ndarray
    ) -> Tensor:
        """Batched differentiable action computation, shape (B, N)."""
        ...

    def parameters(self):  # noqa: D102 — autograd parameter list
        ...


class FusedTrainablePolicy(TrainablePolicy, Protocol):
    """A policy that additionally exposes the fused STBP training path.

    Implementations set ``supports_fused_training = True`` and provide
    the pair below; the trainer then skips the closure-graph ``Tensor``
    machinery entirely.  The contract is strict: the fused forward must
    be *bit-identical* to ``policy_forward(...).data`` and the fused
    backward must produce parameter gradients bit-identical to
    ``loss.backward()`` on the graph path, so both trainer paths yield
    the same weight trajectory (``autograd.gradcheck.
    check_fused_training_parity`` gates this).

    The fused backward *sets* each parameter's ``.grad`` to the
    gradient of the last fused forward instead of accumulating into
    what ``.grad`` held before: the SDP networks point ``.grad`` at
    their training bank's gradient buffers.  (The EIIE kernel still
    accumulates; callers must not rely on either.)  Trainers zero the
    grads before every backward, so the two agree there.
    """

    supports_fused_training: bool

    def policy_forward_fused(
        self,
        data: MarketData,
        indices: np.ndarray,
        w_prev: np.ndarray,
        asset_perm: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Recorded batched forward; plain ``(B, N)`` action array.

        With ``asset_perm`` given, ``data`` and ``w_prev`` are in the
        panel's native asset order and the policy must return the
        actions it would produce on ``data.permute_assets(asset_perm)``
        with correspondingly permuted previous weights — i.e. actions in
        the *permuted* order, cash first.  This lets the trainer's
        permute-assets augmentation permute a ``(B, ...)`` state batch
        instead of materialising a whole permuted panel every step.
        """
        ...

    def policy_backward_fused(self, grad_actions: np.ndarray) -> None:
        """Set the parameter grads of the last fused forward."""
        ...


@dataclass(frozen=True)
class TrainConfig:
    """Training-loop hyper-parameters (defaults follow Table 2).

    ``learning_rate`` defaults to the paper's 1e-5 ("10e-5" in Table 2
    read as 10^-5); the experiment harness overrides it when it pairs
    the loop with Adam, which tolerates larger steps.

    ``permute_assets`` enables asset-permutation augmentation: each
    minibatch sees the assets in a random order (states, previous
    weights, price relatives, and the PVM write-back all permuted
    consistently).  A policy trained this way must be permutation-
    equivariant — it scores assets by their *behaviour* (momentum,
    volatility) instead of memorising which column was the past
    winner.  The EIIE baseline is equivariant by construction (shared
    per-asset weights), so the augmentation levels the field for the
    SDP's fully-connected network.
    """

    steps: int = 2000
    batch_size: int = 128
    commission: float = DEFAULT_COMMISSION
    geometric_bias: float = DEFAULT_GEOMETRIC_BIAS
    log_every: int = 100
    permute_assets: bool = False

    def __post_init__(self):
        if self.steps <= 0 or self.batch_size <= 0:
            raise ValueError("steps and batch_size must be positive")


@dataclass
class TrainHistory:
    """Loss/reward trace of one training run."""

    steps: List[int] = field(default_factory=list)
    loss: List[float] = field(default_factory=list)
    reward: List[float] = field(default_factory=list)

    def record(self, step: int, loss: float, reward: float) -> None:
        self.steps.append(step)
        self.loss.append(loss)
        self.reward.append(reward)


class PolicyTrainer:
    """Minibatch trainer shared by the SDP and EIIE agents.

    Policies that expose the fused STBP fast path
    (:class:`FusedTrainablePolicy`) are routed through it by default —
    analytic forward/backward kernels on a static tape instead of the
    closure-graph ``Tensor`` machinery — which is several times faster
    per step and produces bit-identical weight trajectories.  Pass
    ``use_fused=False`` to force the reference graph path (custom
    :class:`TrainablePolicy` implementations without the fused pair
    always use it).
    """

    def __init__(
        self,
        policy: TrainablePolicy,
        data: MarketData,
        optimizer: Optimizer,
        observation: Optional[ObservationConfig] = None,
        config: Optional[TrainConfig] = None,
        seed: int = 0,
        use_fused: Optional[bool] = None,
        obs=None,
    ):
        self.policy = policy
        self.data = data
        self.optimizer = optimizer
        supports_fused = bool(getattr(policy, "supports_fused_training", False))
        if use_fused is None:
            use_fused = supports_fused
        elif use_fused and not supports_fused:
            raise ValueError(
                "use_fused=True requires the policy to implement the fused "
                "training path (supports_fused_training / "
                "policy_forward_fused / policy_backward_fused)"
            )
        self.use_fused = use_fused
        self.observation = observation if observation is not None else ObservationConfig()
        self.config = config if config is not None else TrainConfig()

        n = data.n_periods
        # Decision index t needs: a full window ending at t, a previous
        # period (for the PVM drift y_t), and a next period (for the
        # reward's y_{t+1}).
        self.first_index = max(self.observation.first_decision_index(), 1)
        self.last_index = n - 2
        if self.last_index - self.first_index + 1 < self.config.batch_size:
            raise ValueError(
                f"training panel too short: decisions "
                f"[{self.first_index}, {self.last_index}] vs batch "
                f"{self.config.batch_size}"
            )
        self.pvm = PortfolioVectorMemory(n, data.n_assets)
        self.sampler = GeometricBatchSampler.for_seed(
            self.first_index,
            self.last_index,
            self.config.batch_size,
            seed,
            bias=self.config.geometric_bias,
        )
        # Precompute price relatives (with cash) for the whole panel.
        rel = data.close[1:] / data.close[:-1]
        self._relatives = np.concatenate([np.ones((n - 1, 1)), rel], axis=1)
        self._perm_rng = make_rng(seed + 1)
        #: Total train steps this trainer has executed (resume cursor).
        self.completed_steps = 0
        # Observability: resolved once; the process-global null handle
        # costs one attribute check per step and nothing else.
        self._obs = obs if obs is not None else get_obs()
        if self._obs.enabled:
            self._m_step_seconds = self._obs.histogram(
                "repro_train_step_seconds", help="trainer step wall-clock"
            )
            self._m_steps = self._obs.counter(
                "repro_train_steps_total", help="trainer steps executed"
            )

    # ------------------------------------------------------------------
    def _drift(self, w: np.ndarray, y: np.ndarray) -> np.ndarray:
        growth = w * y
        return growth / growth.sum(axis=1, keepdims=True)

    def _prepare_batch(self):
        """Shared minibatch prologue: sample, permute, read/drift the PVM.

        Consumes the sampler and permutation RNG streams identically on
        both trainer paths, so graph and fused runs see the same batches.
        Returns weights/relatives in the *permuted* action order plus
        the native-order PVM rows (the fused path permutes state batches
        instead of panels).
        """
        indices = self.sampler.sample()
        m = self.data.n_assets
        if self.config.permute_assets:
            perm = self._perm_rng.permutation(m)
        else:
            perm = np.arange(m)
        # Index 0 is cash and never permutes.
        action_perm = np.concatenate([[0], 1 + perm])

        w_prev_native = self.pvm.read(indices - 1)
        w_prev = w_prev_native[:, action_perm]
        # Drift the cached previous weights by the already-realised move
        # y_t = close_t / close_{t-1} (row t-1 of the relatives array).
        y_t = self._relatives[np.ix_(indices - 1, action_perm)]
        w_drifted = self._drift(w_prev, y_t)
        y_next = self._relatives[np.ix_(indices, action_perm)]  # y_{t+1}
        return indices, perm, action_perm, w_prev_native, w_prev, w_drifted, y_next

    def _permuted_view(self, perm: np.ndarray) -> MarketData:
        """Panel view for the graph path's augmentation step.

        ``permute_assets`` skips the full-panel re-validation and reuses
        the parent's cached log panels (bit-identical features).
        """
        return self.data.permute_assets(perm)

    def train_step(self) -> Dict[str, float]:
        """One minibatch update; returns loss/reward diagnostics.

        With an enabled obs handle, each step feeds the
        ``repro_train_step_seconds`` histogram and emits a debug-level
        ``train_step`` event carrying loss / reward / gradient norm /
        duration.  The instrumentation only reads clocks and gradients
        already produced by the update, so the weight trajectory is
        bit-identical with obs on or off.
        """
        obs_on = self._obs.enabled
        if obs_on:
            t0 = time.perf_counter()
        stats = (
            self._train_step_fused() if self.use_fused else self._train_step_graph()
        )
        self.completed_steps += 1
        if obs_on:
            elapsed = time.perf_counter() - t0
            self._m_step_seconds.observe(elapsed)
            self._m_steps.inc()
            self._obs.event(
                "train_step",
                level="debug",
                step=self.completed_steps,
                loss=stats["loss"],
                reward=stats["reward"],
                grad_norm=self.grad_norm(),
                seconds=round(elapsed, 9),
            )
        return stats

    def grad_norm(self) -> float:
        """L2 norm of the parameter gradients from the last update."""
        total = 0.0
        for param in self.policy.parameters():
            grad = getattr(param, "grad", None)
            if grad is not None:
                flat = np.asarray(grad).ravel()
                total += float(flat @ flat)
        return float(np.sqrt(total))

    def _train_step_graph(self) -> Dict[str, float]:
        """Reference path: closure-graph forward + ``backward()``."""
        indices, perm, action_perm, _, w_prev, w_drifted, y_next = (
            self._prepare_batch()
        )
        view = (
            self._permuted_view(perm) if self.config.permute_assets else self.data
        )
        actions = self.policy.policy_forward(view, indices, w_prev)
        mu = transaction_remainder_approx(
            Tensor(w_drifted), actions, self.config.commission
        )
        growth = (actions * Tensor(y_next)).sum(axis=1)
        log_return = (mu * growth).log()
        loss = -log_return.mean()

        self.optimizer.zero_grad()
        loss.backward()
        self.optimizer.step()

        # Write the PVM back in the original asset order.
        unpermuted = np.empty_like(actions.data)
        unpermuted[:, action_perm] = actions.data
        self.pvm.write(indices, unpermuted)
        return {
            "loss": float(loss.data),
            "reward": float(log_return.data.mean()),
        }

    def _train_step_fused(self) -> Dict[str, float]:
        """Fused fast path: analytic kernels on the policy's static tape.

        The SDP policies run on the one-seed bank of
        :mod:`repro.snn.banked` and the objective is
        :func:`~repro.envs.costs.fused_training_loss_banked` with one
        seed — the kernels :class:`~repro.agents.multiseed.
        MultiSeedTrainer` runs S seeds on.  Bit-identical to
        :meth:`_train_step_graph` — same RNG streams, same actions, same
        gradients, same PVM write-back — without building (or walking) a
        closure graph.  The permute-assets
        augmentation is applied to the prepared ``(B, ...)`` state batch
        (``asset_perm``) instead of materialising a permuted panel, and
        the simplex re-validation is skipped on the PVM's hot write-back
        (the actions come straight off the policy's softmax).
        """
        indices, perm, action_perm, w_prev_native, _, w_drifted, y_next = (
            self._prepare_batch()
        )
        asset_perm = perm if self.config.permute_assets else None
        actions = self.policy.policy_forward_fused(
            self.data, indices, w_prev_native, asset_perm=asset_perm
        )
        losses, rewards, grad_actions = fused_training_loss_banked(
            actions, w_drifted, y_next, n_seeds=1, commission=self.config.commission
        )
        self.optimizer.zero_grad()
        self.policy.policy_backward_fused(grad_actions)
        self.optimizer.step()

        unpermuted = np.empty_like(actions)
        unpermuted[:, action_perm] = actions
        self.pvm.write(indices, unpermuted, validate=False)
        return {"loss": float(losses[0]), "reward": float(rewards[0])}

    def train(
        self,
        steps: Optional[int] = None,
        callback: Optional[Callable[[int, Dict[str, float]], None]] = None,
    ) -> TrainHistory:
        """Run ``steps`` more updates; returns the loss/reward history.

        Step numbering continues from :attr:`completed_steps`, so a
        resumed trainer (fresh instance + :meth:`load_state_dict`, or
        the same instance trained in instalments) logs a history that
        lines up with the uninterrupted run.
        """
        steps = steps if steps is not None else self.config.steps
        history = TrainHistory()
        first = self.completed_steps + 1
        last = self.completed_steps + steps
        for step in range(first, last + 1):
            stats = self.train_step()
            if step % self.config.log_every == 0 or step == last:
                history.record(step, stats["loss"], stats["reward"])
            if callback is not None:
                callback(step, stats)
        return history

    # -- resumable training state --------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Everything mutable the loop owns: step cursor, PVM, both RNG
        streams, and the optimiser moments.

        The policy's *parameters* are deliberately not included — they
        belong to the network (``network.state_dict()``), so a full
        training checkpoint is ``(network state, trainer state)``.
        Restoring both into a freshly-constructed trainer continues the
        exact update sequence: same minibatches, same permutations, same
        gradients.
        """
        return {
            "completed_steps": self.completed_steps,
            "pvm": self.pvm.snapshot(),
            "sampler_rng": self.sampler._rng.bit_generator.state,
            "perm_rng": self._perm_rng.bit_generator.state,
            "optimizer": self.optimizer.state_dict(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`state_dict` output into this trainer."""
        self.completed_steps = int(state["completed_steps"])
        self.pvm.restore(state["pvm"])
        self.sampler._rng.bit_generator.state = state["sampler_rng"]
        self._perm_rng.bit_generator.state = state["perm_rng"]
        self.optimizer.load_state_dict(state["optimizer"])
