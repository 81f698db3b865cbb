"""The serial trainer: one seed of the policy-gradient training loop.

The loop itself — minibatch sampling, the portfolio-vector memory, the
eq. (1) objective, resume state, observability — lives once, in
:class:`~repro.agents.multiseed.MultiSeedTrainer`.
:class:`PolicyTrainer` runs it with S = 1 and keeps the closure-graph
path as the parity oracle for the fused kernels.  This module also
states what the loop needs from a policy (:class:`TrainablePolicy`,
:class:`FusedTrainablePolicy`).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Protocol, Union

import numpy as np

from ..autograd import Tensor
from ..autograd.optim import Optimizer
from ..backend import Backend
from ..data.market import MarketData
from ..envs.observations import ObservationConfig
from ..envs.pvm import PortfolioVectorMemory
from ..envs.sampling import GeometricBatchSampler
from .multiseed import MultiSeedTrainer, TrainConfig, TrainHistory

__all__ = [
    "FusedTrainablePolicy",
    "PolicyTrainer",
    "TrainConfig",
    "TrainHistory",
    "TrainablePolicy",
]


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


class PolicyTrainer(MultiSeedTrainer):
    """Minibatch trainer for one policy: the S = 1 front of
    :class:`~repro.agents.multiseed.MultiSeedTrainer`.

    Policies that expose the fused STBP fast path
    (:class:`FusedTrainablePolicy`) are routed through it by default —
    analytic forward/backward kernels on a static tape instead of the
    closure-graph ``Tensor`` machinery — which is several times faster
    per step and produces bit-identical weight trajectories.  Pass
    ``use_fused=False`` to force the reference graph path (custom
    :class:`TrainablePolicy` implementations without the fused pair
    always use it).  Both paths read their batches from the same
    prologue, so they consume the same RNG streams: sampler
    ``make_rng(seed)``, permutations ``make_rng(seed + 1)``.
    ``backend`` selects the numeric tier, as for the multi-seed trainer
    (``"fast"`` needs the fused SDP path).
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
        backend: Union[None, str, Backend] = None,
    ):
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
        super().__init__(
            [policy], data, [optimizer], observation, config, seeds=[seed],
            backend=backend,
        )

    @property
    def policy(self) -> TrainablePolicy:
        return self.policies[0]

    @property
    def optimizer(self) -> Optimizer:
        return self.optimizers[0]

    @property
    def pvm(self) -> PortfolioVectorMemory:
        return self.pvms[0]

    @property
    def sampler(self) -> GeometricBatchSampler:
        return self.samplers[0]

    def train_step(self) -> Dict[str, float]:
        """One minibatch update; returns the ``loss``/``reward`` floats."""
        losses, rewards = self._step()
        return {"loss": float(losses[0]), "reward": float(rewards[0])}

    def train(
        self,
        steps: Optional[int] = None,
        callback: Optional[Callable[[int, Dict[str, float]], None]] = None,
    ) -> TrainHistory:
        """Run ``steps`` more updates; returns the loss/reward history
        (see :meth:`MultiSeedTrainer.train`)."""
        return super().train(steps, callback)[0]

    def grad_norm(self) -> float:
        """L2 norm of the parameter gradients from the last update."""
        return self.grad_norms()[0]
