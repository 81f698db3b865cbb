"""Population decoding of output spikes into a portfolio action (eqs. (8)-(10)).

The last spiking layer is organised as ``N`` populations of
``pop_size`` neurons (N = M + 1 actions: M assets plus cash).  After the
``T``-step unroll:

1. spikes are summed over time and divided by ``T`` → firing rates
   (eq. (8));
2. each population's rates are combined with learned weights
   ``w_d^{(i)}`` and bias ``b_d^{(i)}`` and exponentiated, per
   Algorithm 1: ``tempAction(i) = exp(w_d(i)·rate(i) + b_d(i))``
   (the exponential makes the subsequent normalisation a softmax and
   guarantees non-negative weights);
3. actions are normalised to the probability simplex (eq. (10)).

The decoder is fully differentiable, so the parameter updates of
eq. (12) arise from ordinary backpropagation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autograd import Tensor
from ..autograd.nn import Module, Parameter


def softmax_head_forward(
    logits: np.ndarray,
    temp: np.ndarray,
    temp_sum: np.ndarray,
    action: np.ndarray,
) -> np.ndarray:
    """Stable softmax into caller buffers (Algorithm 1's exp + eq. (10)).

    The exact op sequence of every graph-path policy head — shift by the
    row max, exponentiate, normalise — written into the supplied
    ``temp``/``temp_sum``/``action`` buffers so the fused forwards stay
    allocation-free and bit-identical.  One implementation for all
    fused heads; pairs with :func:`softmax_head_backward`.
    """
    np.subtract(logits, logits.max(axis=1, keepdims=True), out=temp)
    np.exp(temp, out=temp)
    np.sum(temp, axis=1, keepdims=True, out=temp_sum)
    np.divide(temp, temp_sum, out=action)
    return action


def softmax_head_backward(
    grad_action: np.ndarray, temp: np.ndarray, temp_sum: np.ndarray
) -> np.ndarray:
    """Analytic backward of ``action = temp / temp.sum()`` with
    ``temp = exp(logits − max)``.

    Mirrors the closure-graph ops (div backward, sum backward, exp
    backward; the stability ``max`` is a constant) so the returned
    gradient into the logits is bit-identical to the graph path.  The
    single implementation is shared by every fused policy head (both
    SDP networks and the EIIE baseline) — the bit-identity contract
    must not fork.
    """
    g_temp = grad_action / temp_sum
    g_ts = (-grad_action * temp / (temp_sum ** 2)).sum(axis=(1,), keepdims=True)
    return (g_temp + np.broadcast_to(g_ts, temp.shape)) * temp


class PopulationDecoder(Module):
    """Decode summed output-layer spikes into a simplex action vector."""

    def __init__(
        self,
        num_actions: int,
        pop_size: int,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if num_actions <= 0:
            raise ValueError(f"num_actions must be positive, got {num_actions}")
        if pop_size <= 0:
            raise ValueError(f"pop_size must be positive, got {pop_size}")
        rng = rng if rng is not None else np.random.default_rng()
        self.num_actions = num_actions
        self.pop_size = pop_size
        scale = 1.0 / np.sqrt(pop_size)
        self.weight = Parameter(rng.uniform(-scale, scale, (num_actions, pop_size)))
        self.bias = Parameter(np.zeros(num_actions))

    @property
    def num_neurons(self) -> int:
        """Size of the spiking output layer this decoder consumes."""
        return self.num_actions * self.pop_size

    def forward(self, sum_spikes: Tensor, timesteps: int) -> Tensor:
        """Map summed spikes to an action on the simplex.

        Parameters
        ----------
        sum_spikes:
            Tensor of shape ``(batch, num_actions * pop_size)`` holding
            ``Σ_t o^{(L)}(t)``.
        timesteps:
            The unroll length ``T`` used to convert counts to rates.

        Returns
        -------
        Tensor of shape ``(batch, num_actions)``; rows are non-negative
        and sum to 1 (eq. (10)).
        """
        if timesteps <= 0:
            raise ValueError(f"timesteps must be positive, got {timesteps}")
        batch = sum_spikes.shape[0]
        rates = sum_spikes * (1.0 / timesteps)  # eq. (8)
        rates = rates.reshape(batch, self.num_actions, self.pop_size)
        # eq. (9) / Algorithm 1: logit_i = w_d(i)·rate(i) + b_d(i)
        logits = (rates * self.weight.expand_dims(0)).sum(axis=2) + self.bias
        # Algorithm 1 applies exp(); eq. (10) normalises -> softmax.
        # Subtract the max for numerical stability (invariant under the
        # normalisation).
        shifted = logits - Tensor(logits.data.max(axis=1, keepdims=True))
        temp_action = shifted.exp()
        return temp_action / temp_action.sum(axis=1, keepdims=True)

    def firing_rates(self, sum_spikes: np.ndarray, timesteps: int) -> np.ndarray:
        """Plain-numpy firing rates grouped by population (diagnostics)."""
        rates = np.asarray(sum_spikes, dtype=np.float64) / timesteps
        return rates.reshape(rates.shape[0], self.num_actions, self.pop_size)
