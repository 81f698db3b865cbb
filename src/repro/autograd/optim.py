"""First-order optimisers for :class:`~repro.autograd.nn.Parameter` lists.

The paper trains SDP with a learning rate of ``1e-5`` (Table 2) using
gradient descent through STBP; we additionally provide Adam and RMSProp,
which the Jiang et al. baseline framework uses, plus plain SGD with
momentum for ablations.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from .tensor import Tensor


class Optimizer:
    """Base optimiser: holds parameters, applies per-step updates.

    A subclass writes its update once, as :meth:`_update` — an in-place
    chain of elementwise ops over plain arrays (parameter, gradient,
    state buffers, scratch) with scalar hyperparameters.  :meth:`step`
    calls it per parameter; :class:`~repro.agents.multiseed.
    MultiSeedTrainer` calls the same method once per seed-stacked
    parameter bank, which updates every seed's slice exactly as its own
    optimizer would.
    """

    #: Names of per-parameter state-buffer lists a subclass carries
    #: (moments, running averages) — what :meth:`state_dict` persists.
    #: Scratch buffers are deliberately excluded: their contents never
    #: survive a step.
    _state_buffer_names: Tuple[str, ...] = ()
    #: Scalar attributes :meth:`_update` reads; optimizers that agree on
    #: all of them (and on the step count) can update as one bank.
    _hyper_names: Tuple[str, ...] = ("lr",)

    def __init__(self, params: Iterable[Tensor], lr: float):
        self.params: List[Tensor] = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self._step_count = 0

    def _init_buffers(self, n_scratch: int) -> None:
        """Zeroed state buffers and ``n_scratch`` scratch arrays per
        parameter."""
        for name in self._state_buffer_names:
            setattr(self, name, [np.zeros_like(p.data) for p in self.params])
        self._scratch = [
            [np.empty_like(p.data) for _ in range(n_scratch)] for p in self.params
        ]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self._step_count += 1
        names = self._state_buffer_names
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            self._update(
                p.data, p.grad, [getattr(self, n)[i] for n in names], self._scratch[i]
            )

    def _update(
        self,
        param: np.ndarray,
        grad: np.ndarray,
        state: List[np.ndarray],
        scratch: List[np.ndarray],
    ) -> None:
        """Update ``param`` and ``state`` (ordered as
        ``_state_buffer_names``) in place from ``grad``, never writing
        into ``grad``.  ``scratch`` arrays have ``param``'s shape and
        their contents do not survive the call.  Every array may carry
        a leading seed axis."""
        raise NotImplementedError

    # -- resumable state ------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Snapshot of the optimiser's mutable state (step counter plus
        per-parameter moment buffers).  Loading it into a same-shaped
        optimiser resumes the exact update sequence."""
        state: Dict[str, Any] = {"step_count": self._step_count}
        for name in self._state_buffer_names:
            state[name] = [buf.copy() for buf in getattr(self, name)]
        return state

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`state_dict` output (in-place on the buffers)."""
        self._step_count = int(state["step_count"])
        for name in self._state_buffer_names:
            buffers = getattr(self, name)
            saved = state[name]
            if len(saved) != len(buffers):
                raise ValueError(
                    f"state {name!r} has {len(saved)} buffers for "
                    f"{len(buffers)} parameters"
                )
            for buf, value in zip(buffers, saved):
                value = np.asarray(value)
                if value.shape != buf.shape:
                    raise ValueError(
                        f"state {name!r} buffer shape {value.shape} does not "
                        f"match parameter shape {buf.shape}"
                    )
                np.copyto(buf, value)


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay.

    Updates run fully in place on preallocated state buffers — no array
    is allocated per step — and are bit-identical to the textbook
    out-of-place formulas (same operations, same order).
    """

    _state_buffer_names = ("_velocity",)
    _hyper_names = ("lr", "momentum", "weight_decay")

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._init_buffers(1)

    def _update(self, param, grad, state, scratch) -> None:
        (buf,) = scratch
        if self.weight_decay:
            np.multiply(param, self.weight_decay, out=buf)
            np.add(grad, buf, out=buf)
            grad = buf
        if self.momentum:
            (velocity,) = state
            np.multiply(velocity, self.momentum, out=velocity)
            np.add(velocity, grad, out=velocity)
            grad = velocity
        np.multiply(grad, self.lr, out=buf)
        np.subtract(param, buf, out=param)


class RMSProp(Optimizer):
    """RMSProp (Tieleman & Hinton), used by the original EIIE code.

    In-place on preallocated buffers; bit-identical to the out-of-place
    formulation (every ufunc keeps its operand order).
    """

    _state_buffer_names = ("_square_avg",)
    _hyper_names = ("lr", "alpha", "eps", "weight_decay")

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float,
        alpha: float = 0.99,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr)
        self.alpha = alpha
        self.eps = eps
        self.weight_decay = weight_decay
        self._init_buffers(2)

    def _update(self, param, grad, state, scratch) -> None:
        buf, buf2 = scratch
        if self.weight_decay:
            np.multiply(param, self.weight_decay, out=buf2)
            np.add(grad, buf2, out=buf2)
            grad = buf2
        (avg,) = state
        np.multiply(avg, self.alpha, out=avg)
        # ((1 − α) · g) · g, matching the reference's evaluation order.
        np.multiply(grad, 1.0 - self.alpha, out=buf)
        np.multiply(buf, grad, out=buf)
        np.add(avg, buf, out=avg)
        np.sqrt(avg, out=buf)
        np.add(buf, self.eps, out=buf)
        np.multiply(grad, self.lr, out=buf2)
        np.divide(buf2, buf, out=buf2)
        np.subtract(param, buf2, out=param)


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction."""

    _state_buffer_names = ("_m", "_v")
    _hyper_names = ("lr", "beta1", "beta2", "eps", "weight_decay")

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        # A third scratch array holds the decayed gradient.
        self._init_buffers(3 if weight_decay else 2)

    def _update(self, param, grad, state, scratch) -> None:
        """In-place Adam step, bit-identical to the out-of-place formulas."""
        buf, buf2 = scratch[0], scratch[1]
        if self.weight_decay:
            decayed = scratch[2]
            np.multiply(param, self.weight_decay, out=decayed)
            np.add(grad, decayed, out=decayed)
            grad = decayed
        m, v = state
        np.multiply(m, self.beta1, out=m)
        np.multiply(grad, 1.0 - self.beta1, out=buf)
        np.add(m, buf, out=m)
        np.multiply(v, self.beta2, out=v)
        # ((1 − β₂) · g) · g, matching the reference's evaluation order.
        np.multiply(grad, 1.0 - self.beta2, out=buf)
        np.multiply(buf, grad, out=buf)
        np.add(v, buf, out=v)
        np.divide(m, 1.0 - self.beta1 ** self._step_count, out=buf)    # m_hat
        np.divide(v, 1.0 - self.beta2 ** self._step_count, out=buf2)   # v_hat
        np.sqrt(buf2, out=buf2)
        np.add(buf2, self.eps, out=buf2)
        np.multiply(buf, self.lr, out=buf)
        np.divide(buf, buf2, out=buf)
        np.subtract(param, buf, out=param)


class GradientClipper:
    """Clip the global gradient norm of a parameter list before a step."""

    def __init__(self, max_norm: float):
        if max_norm <= 0:
            raise ValueError(f"max_norm must be positive, got {max_norm}")
        self.max_norm = max_norm

    def clip(self, params: Iterable[Tensor]) -> float:
        """Scale gradients in-place; returns the pre-clip global norm."""
        params = [p for p in params if p.grad is not None]
        total = float(np.sqrt(sum(float((p.grad ** 2).sum()) for p in params)))
        if total > self.max_norm and total > 0:
            scale = self.max_norm / total
            for p in params:
                np.multiply(p.grad, scale, out=p.grad)
        return total
