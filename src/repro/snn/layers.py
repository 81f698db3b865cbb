"""Spiking layers: weighted synapses feeding two-state LIF populations.

A :class:`SpikingLinear` owns the synaptic weight matrix and the LIF
population it projects onto.  During a forward unroll the caller drives
it step by step; the layer threads its :class:`~repro.snn.neurons.LIFState`
through the autograd graph so STBP (eq. (13)) emerges from ordinary
backpropagation over the unrolled graph.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..autograd import Tensor
from ..autograd import functional as F
from ..autograd.nn import Module, Parameter, kaiming_uniform
from .neurons import LIFParameters, LIFState, lif_step
from .surrogate import SurrogateGradient, rectangular


class SpikingLinear(Module):
    """Fully-connected synapses followed by a two-state LIF population."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        lif: Optional[LIFParameters] = None,
        surrogate: Optional[SurrogateGradient] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError(
                f"invalid layer size ({in_features}, {out_features})"
            )
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.lif = lif if lif is not None else LIFParameters()
        self.surrogate = surrogate if surrogate is not None else rectangular()
        self.weight = Parameter(
            kaiming_uniform((out_features, in_features), in_features, rng)
        )
        self.bias = Parameter(np.zeros(out_features))
        self._state: Optional[LIFState] = None

    # ------------------------------------------------------------------
    def reset(self, batch_size: int) -> None:
        """Zero the LIF state ahead of a fresh ``T``-step unroll."""
        self._state = LIFState.zeros((batch_size, self.out_features))

    @property
    def state(self) -> LIFState:
        if self._state is None:
            raise RuntimeError("layer state not initialised; call reset() first")
        return self._state

    def step(self, input_spikes: Tensor) -> Tensor:
        """One timestep: synaptic integration + LIF dynamics.

        Parameters
        ----------
        input_spikes:
            ``(batch, in_features)`` spike (or encoder-output) tensor.

        Returns
        -------
        ``(batch, out_features)`` output spike tensor for this step.
        """
        if self._state is None:
            raise RuntimeError("layer state not initialised; call reset() first")
        drive = F.linear(input_spikes, self.weight, self.bias)
        self._state = lif_step(drive, self._state, self.lif, self.surrogate)
        return self._state.spikes

    def __repr__(self) -> str:
        return (
            f"SpikingLinear({self.in_features}, {self.out_features}, "
            f"Vth={self.lif.v_threshold}, dc={self.lif.current_decay}, "
            f"dv={self.lif.voltage_decay})"
        )


class SpikingStack(Module):
    """A stack of :class:`SpikingLinear` layers stepped together.

    Corresponds to the ``for k = 1..L`` loop of Algorithm 1.
    """

    def __init__(self, layers: List[SpikingLinear]):
        super().__init__()
        if not layers:
            raise ValueError("SpikingStack requires at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if prev.out_features != nxt.in_features:
                raise ValueError(
                    f"layer size mismatch: {prev.out_features} -> {nxt.in_features}"
                )
        self.layers = layers

    @property
    def in_features(self) -> int:
        return self.layers[0].in_features

    @property
    def out_features(self) -> int:
        return self.layers[-1].out_features

    def reset(self, batch_size: int) -> None:
        for layer in self.layers:
            layer.reset(batch_size)
