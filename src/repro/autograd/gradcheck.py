"""Gradient verification: finite differences and fused-kernel parity.

Used by the test suite to validate every op in the engine and the
surrogate-gradient-free parts of the spiking stack, and — via
:func:`check_fused_training_parity` — to gate the hand-derived analytic
kernels of the fused STBP training path against the closure-graph
reference.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

import numpy as np

from .tensor import Tensor


def numerical_gradient(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    index: int,
    eps: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradient of ``sum(fn(*inputs))`` w.r.t. one input."""
    target = inputs[index]
    grad = np.zeros_like(target.data)
    flat = target.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = float(fn(*inputs).data.sum())
        flat[i] = original - eps
        minus = float(fn(*inputs).data.sum())
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2.0 * eps)
    return grad


def check_gradients(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    atol: float = 1e-5,
    rtol: float = 1e-4,
    eps: float = 1e-6,
) -> None:
    """Assert analytic gradients of ``fn`` match finite differences.

    ``fn`` must be a pure function of its tensor inputs returning a
    tensor of any shape (the check sums it to a scalar).
    Raises ``AssertionError`` with a diagnostic message on mismatch.
    """
    for p in inputs:
        p.zero_grad()
    out = fn(*inputs)
    out.sum().backward()
    for i, inp in enumerate(inputs):
        if not inp.requires_grad:
            continue
        analytic = inp.grad if inp.grad is not None else np.zeros_like(inp.data)
        numeric = numerical_gradient(fn, inputs, i, eps=eps)
        if not np.allclose(analytic, numeric, atol=atol, rtol=rtol):
            worst = np.abs(analytic - numeric).max()
            raise AssertionError(
                f"gradient mismatch for input {i}: max abs err {worst:.3e}\n"
                f"analytic:\n{analytic}\nnumeric:\n{numeric}"
            )


def check_fused_training_parity(
    policy,
    data,
    indices: np.ndarray,
    w_prev: np.ndarray,
    w_drifted: np.ndarray,
    y_next: np.ndarray,
    commission: float = 0.0025,
    atol: float = 1e-9,
) -> Dict[str, float]:
    """Gate the fused STBP kernels against the closure-graph reference.

    Runs the trainer's objective once through ``policy_forward`` +
    ``backward()`` and once through ``policy_forward_fused`` +
    ``policy_backward_fused`` from the *same* parameters and inputs,
    then asserts:

    * actions are **bit-identical** between the two paths;
    * the scalar loss is bit-identical;
    * every parameter gradient matches within ``atol`` (the kernels are
      written to be exactly identical; ``atol`` only bounds the check).

    Returns the per-parameter max-abs gradient differences (keyed by
    parameter index) for diagnostics.  Parameter ``.grad`` slots are
    cleared on exit; parameter values are never touched.
    """
    # Lazy import: envs.costs sits above autograd in the layer stack.
    from ..envs.costs import (
        fused_training_loss_banked,
        transaction_remainder_approx,
    )

    params = list(policy.parameters())
    for p in params:
        p.zero_grad()
    actions = policy.policy_forward(data, indices, w_prev)
    mu = transaction_remainder_approx(Tensor(w_drifted), actions, commission)
    growth = (actions * Tensor(y_next)).sum(axis=1)
    log_return = (mu * growth).log()
    loss = -log_return.mean()
    loss.backward()
    ref_loss = float(loss.data)
    ref_grads = [None if p.grad is None else p.grad.copy() for p in params]

    for p in params:
        p.zero_grad()
    actions_fused = policy.policy_forward_fused(data, indices, w_prev)
    if not np.array_equal(actions_fused, actions.data):
        worst = np.abs(actions_fused - actions.data).max()
        raise AssertionError(
            f"fused forward diverged from the graph path "
            f"(max abs diff {worst:.3e})"
        )
    losses, _, grad_actions = fused_training_loss_banked(
        actions_fused, w_drifted, y_next, n_seeds=1, commission=commission
    )
    fused_loss = float(losses[0])
    if fused_loss != ref_loss:
        raise AssertionError(
            f"fused loss {fused_loss!r} != graph loss {ref_loss!r}"
        )
    policy.policy_backward_fused(grad_actions)

    diffs: Dict[str, float] = {}
    try:
        for i, (p, ref) in enumerate(zip(params, ref_grads)):
            if ref is None or p.grad is None:
                raise AssertionError(
                    f"parameter {i}: gradient missing on "
                    f"{'graph' if ref is None else 'fused'} path"
                )
            worst = float(np.abs(p.grad - ref).max())
            diffs[f"param_{i}"] = worst
            if worst > atol:
                raise AssertionError(
                    f"parameter {i} (shape {p.data.shape}): fused gradient "
                    f"differs from graph path by {worst:.3e} > atol {atol:.1e}"
                )
    finally:
        for p in params:
            p.zero_grad()
    return diffs
