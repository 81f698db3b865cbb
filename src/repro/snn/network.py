"""The Spiking Deterministic Policy network (Algorithm 1 / Fig. 1).

``SDPNetwork`` wires together the Gaussian population encoder
(eqs. (2)-(4)), a stack of two-state LIF layers (eqs. (5)-(7)), and the
population decoder (eqs. (8)-(10)).  A forward pass unrolls the network
for ``T`` timesteps and returns a portfolio-weight vector on the
probability simplex.

The network also exposes :meth:`forward_with_activity`, which records
the spike and synaptic-operation counts the Loihi energy model
(:mod:`repro.loihi.energy`) consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..autograd import Tensor
from ..autograd.nn import Module
from .banked import (
    MonolithicSDPBank,
    SharedSDPBank,
    monolithic_inference,
    shared_inference,
)
from .decoding import PopulationDecoder
from .encoding import EncoderConfig, PopulationEncoder
from .layers import SpikingLinear, SpikingStack
from .neurons import LIFParameters
from .surrogate import rectangular

# Table 2: two hidden layers of 128 neurons; T = 5.
DEFAULT_HIDDEN_SIZES = (128, 128)
DEFAULT_TIMESTEPS = 5


@dataclass(frozen=True)
class SDPConfig:
    """Complete hyper-parameter set of the SDP network.

    Defaults follow Table 2 of the paper; encoder/decoder population
    sizes follow the population-coding literature the paper builds on
    (Tang et al. 2020).
    """

    state_dim: int
    num_actions: int
    hidden_sizes: Tuple[int, ...] = DEFAULT_HIDDEN_SIZES
    timesteps: int = DEFAULT_TIMESTEPS
    encoder_pop_size: int = 10
    decoder_pop_size: int = 10
    state_range: Tuple[float, float] = (-1.0, 1.0)
    encoder_mode: str = "deterministic"
    lif: LIFParameters = field(default_factory=LIFParameters)
    surrogate_amplifier: float = 9.0
    surrogate_window: float = 0.4

    def __post_init__(self):
        if self.timesteps <= 0:
            raise ValueError(f"timesteps must be positive, got {self.timesteps}")
        if not self.hidden_sizes:
            raise ValueError("at least one hidden layer is required")
        if self.num_actions < 2:
            raise ValueError(
                f"num_actions must be >= 2 (assets + cash), got {self.num_actions}"
            )


@dataclass
class ActivityRecord:
    """Spike/synop counts of one forward pass (for energy modelling).

    Attributes
    ----------
    timesteps:
        Unroll length T.
    batch_size:
        Number of inferences represented.
    input_spikes:
        Total encoder spikes delivered over all steps.
    layer_spikes:
        Total output spikes per spiking layer over all steps.
    synaptic_ops:
        Total synaptic operations (input spike × fan-out) per layer.
    neuron_updates:
        Total neuron-update events (neurons × steps) per layer.
    """

    timesteps: int
    batch_size: int
    input_spikes: float
    layer_spikes: List[float]
    synaptic_ops: List[float]
    neuron_updates: List[float]

    @property
    def total_spikes(self) -> float:
        return self.input_spikes + sum(self.layer_spikes)

    @property
    def total_synops(self) -> float:
        return sum(self.synaptic_ops)

    @property
    def total_neuron_updates(self) -> float:
        return sum(self.neuron_updates)

    @classmethod
    def from_counts(
        cls, counts: List[float], stack: SpikingStack, timesteps: int,
        batch_size: int, rows: int,
    ) -> "ActivityRecord":
        """The record of an unroll over ``rows`` population rows, from its
        spike totals: ``counts[0]`` encoder spikes, ``counts[k + 1]``
        layer ``k``'s output spikes.  Each presynaptic spike touches
        every postsynaptic neuron once: synops = input spikes × fan-out.
        """
        layers = stack.layers
        return cls(
            timesteps=timesteps,
            batch_size=batch_size,
            input_spikes=counts[0],
            layer_spikes=counts[1:],
            synaptic_ops=[counts[k] * l.out_features for k, l in enumerate(layers)],
            neuron_updates=[
                float(l.out_features * timesteps * rows) for l in layers
            ],
        )

    def per_inference(self) -> "ActivityRecord":
        """Normalise counts to a single inference."""
        b = max(self.batch_size, 1)
        return ActivityRecord(
            timesteps=self.timesteps,
            batch_size=1,
            input_spikes=self.input_spikes / b,
            layer_spikes=[s / b for s in self.layer_spikes],
            synaptic_ops=[s / b for s in self.synaptic_ops],
            neuron_updates=[n / b for n in self.neuron_updates],
        )


@dataclass(frozen=True)
class SharedSDPConfig:
    """Hyper-parameters of the weight-shared SDP variant.

    One spiking scorer (population encoder → LIF stack → rate readout)
    is applied to every asset's feature vector with *shared weights*;
    a learned cash bias joins the per-asset scores and eq. (10)'s
    normalisation (a softmax) produces the portfolio vector.  This is
    Algorithm 1 applied per asset — the spiking dynamics, STBP training,
    and Loihi mapping are identical — but the weight sharing gives the
    gradient 11× the signal per parameter, which is what makes the
    policy trainable at reproduction scale (see DESIGN.md §6).
    """

    feature_dim: int
    hidden_sizes: Tuple[int, ...] = DEFAULT_HIDDEN_SIZES
    timesteps: int = DEFAULT_TIMESTEPS
    encoder_pop_size: int = 10
    output_pop_size: int = 10
    state_range: Tuple[float, float] = (-1.0, 1.0)
    encoder_mode: str = "deterministic"
    lif: LIFParameters = field(default_factory=LIFParameters)
    surrogate_amplifier: float = 9.0
    surrogate_window: float = 0.4

    def __post_init__(self):
        if self.timesteps <= 0:
            raise ValueError(f"timesteps must be positive, got {self.timesteps}")
        if not self.hidden_sizes:
            raise ValueError("at least one hidden layer is required")
        if self.feature_dim <= 0:
            raise ValueError(f"feature_dim must be positive, got {self.feature_dim}")


class SharedSDPNetwork(Module):
    """Weight-shared population-coded spiking policy (per-asset scorer)."""

    def __init__(
        self, config: SharedSDPConfig, rng: Optional[np.random.Generator] = None
    ):
        super().__init__()
        from ..autograd.nn import Parameter

        rng = rng if rng is not None else np.random.default_rng()
        self.config = config
        encoder_cfg = EncoderConfig(
            state_dim=config.feature_dim,
            pop_size=config.encoder_pop_size,
            v_min=config.state_range[0],
            v_max=config.state_range[1],
            mode=config.encoder_mode,
        )
        self.encoder = PopulationEncoder(encoder_cfg, rng=rng)
        surrogate = rectangular(config.surrogate_amplifier, config.surrogate_window)
        sizes = (
            [encoder_cfg.num_neurons]
            + list(config.hidden_sizes)
            + [config.output_pop_size]
        )
        layers = [
            SpikingLinear(sizes[i], sizes[i + 1], lif=config.lif,
                          surrogate=surrogate, rng=rng)
            for i in range(len(sizes) - 1)
        ]
        self.stack = SpikingStack(layers)
        scale = 1.0 / np.sqrt(config.output_pop_size)
        self.readout_weight = Parameter(
            rng.uniform(-scale, scale, config.output_pop_size)
        )
        self.readout_bias = Parameter(np.zeros(1))
        self.cash_bias = Parameter(np.zeros(1))

    # ------------------------------------------------------------------
    @property
    def timesteps(self) -> int:
        return self.config.timesteps

    def layer_sizes(self) -> List[Tuple[int, int]]:
        return [(l.in_features, l.out_features) for l in self.stack.layers]

    # ------------------------------------------------------------------
    def forward(
        self, asset_features: np.ndarray, timesteps: Optional[int] = None
    ) -> "Tensor":
        """Portfolio weights from per-asset features.

        Parameters
        ----------
        asset_features:
            ``(batch, n_assets, feature_dim)`` array.

        Returns
        -------
        ``(batch, n_assets + 1)`` tensor on the simplex, cash first.
        """
        action, _ = self._run(asset_features, timesteps, record=False)
        return action

    def forward_with_activity(
        self, asset_features: np.ndarray, timesteps: Optional[int] = None
    ) -> Tuple["Tensor", ActivityRecord]:
        return self._run(asset_features, timesteps, record=True)

    def forward_inference(
        self, asset_features: np.ndarray, timesteps: Optional[int] = None
    ) -> np.ndarray:
        """Graph-free forward; bit-identical to :meth:`forward`.

        Runs the seed bank's unroll without recording
        (:func:`~repro.snn.banked.shared_inference`): one LIF time slice
        per layer, operands read off the live parameters, buffers
        allocated per call — safe for concurrent callers and beside a
        running trainer.  Returns a plain ``(batch, n_assets + 1)``
        ndarray; no autograd nodes are created anywhere.
        """
        action, _ = self._infer(asset_features, timesteps, record=False)
        return action

    def forward_inference_with_activity(
        self, asset_features: np.ndarray, timesteps: Optional[int] = None
    ) -> Tuple[np.ndarray, ActivityRecord]:
        """:meth:`forward_inference` plus the Loihi activity counts, taken
        from the same unroll."""
        return self._infer(asset_features, timesteps, record=True)

    def _features(self, asset_features) -> np.ndarray:
        """``(batch, n_assets, feature_dim)`` float64 features."""
        feats = np.asarray(asset_features, dtype=np.float64)
        if feats.ndim == 2:
            feats = feats[None]
        if feats.shape[2] != self.config.feature_dim:
            raise ValueError(
                f"expected feature_dim={self.config.feature_dim}, "
                f"got {feats.shape[2]}"
            )
        return feats

    def _infer(self, asset_features, timesteps, record):
        timesteps = timesteps if timesteps is not None else self.config.timesteps
        feats = self._features(asset_features)
        counts = [0.0] * (len(self.stack.layers) + 1) if record else None
        action = shared_inference(self, feats, timesteps, counts)
        if not record:
            return action, None
        batch, n_assets = feats.shape[:2]
        # One *inference* covers all assets.
        return action, ActivityRecord.from_counts(
            counts, self.stack, timesteps, batch, batch * n_assets
        )

    # -- training: the S=1 seed bank ------------------------------------
    def _train_bank(self) -> SharedSDPBank:
        """This network's one-seed training bank, rebuilt whenever it no
        longer owns the parameters' storage (after ``load_state_dict``,
        a copy, or another bank over this network)."""
        bank = getattr(self, "_bank", None)
        if bank is None or not bank.owns_parameters():
            bank = self._bank = SharedSDPBank([self])
        return bank

    def policy_forward_fused(
        self, asset_features: np.ndarray, timesteps: Optional[int] = None
    ) -> np.ndarray:
        """Recorded fused forward for training; bit-identical to
        :meth:`forward`.

        Runs on this network's one-seed :class:`~repro.snn.banked.
        SharedSDPBank` — the same kernel the multi-seed trainer runs S
        seeds on — whose tape buffers are reused across train steps, so
        the hot training loop allocates almost nothing.  Call
        :meth:`policy_backward_fused` afterwards — before any parameter
        update — to set the parameters' gradients.  The returned action
        array is a tape buffer, valid until the next fused forward.  Not
        thread-safe: one trainer per network instance.
        """
        return self._train_bank().forward(self._features(asset_features), timesteps)

    def policy_backward_fused(self, grad_action: np.ndarray) -> None:
        """Analytic backward of :meth:`policy_forward_fused`.

        Replays the recorded tape backward — softmax head, readout, then
        BPTT through the spiking stack — mirroring every closure-graph
        op, and *sets* each parameter's ``.grad`` to the bit-identical
        gradient of the last fused forward (it does not accumulate).
        Must run against the parameters the forward saw.
        """
        bank = getattr(self, "_bank", None)
        if bank is None:
            raise RuntimeError("policy_forward_fused must be called first")
        bank.backward(grad_action)

    def _run(self, asset_features, timesteps, record):
        from ..autograd import Tensor as _T
        from ..autograd import concatenate

        timesteps = timesteps if timesteps is not None else self.config.timesteps
        feats = self._features(asset_features)
        batch, n_assets, d = feats.shape
        flat = feats.reshape(batch * n_assets, d)
        spike_trains = self.encoder.encode(flat, timesteps)
        self.stack.reset(batch * n_assets)

        sum_spikes = None
        counts = [0.0] * (len(self.stack.layers) + 1)
        for t in range(timesteps):
            spikes = _T(spike_trains[t])
            if record:
                counts[0] += float(spike_trains[t].sum())
            for k, layer in enumerate(self.stack.layers):
                spikes = layer.step(spikes)
                if record:
                    counts[k + 1] += float(spikes.data.sum())
            sum_spikes = spikes if sum_spikes is None else sum_spikes + spikes

        rates = sum_spikes * (1.0 / timesteps)
        scores = rates @ self.readout_weight + self.readout_bias
        scores = scores.reshape(batch, n_assets)
        cash = self.cash_bias.reshape(1, 1) * _T(np.ones((batch, 1)))
        logits = concatenate([cash, scores], axis=1)
        shifted = logits - _T(logits.data.max(axis=1, keepdims=True))
        temp = shifted.exp()
        action = temp / temp.sum(axis=1, keepdims=True)

        if not record:
            return action, None
        # One *inference* covers all assets.
        return action, ActivityRecord.from_counts(
            counts, self.stack, timesteps, batch, batch * n_assets
        )

    def act(self, asset_features: np.ndarray, timesteps: Optional[int] = None) -> np.ndarray:
        action = self.forward_inference(np.asarray(asset_features)[None], timesteps)
        return action[0]


class SDPNetwork(Module):
    """Population-coded spiking policy network (the paper's SDP)."""

    def __init__(self, config: SDPConfig, rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.config = config

        encoder_cfg = EncoderConfig(
            state_dim=config.state_dim,
            pop_size=config.encoder_pop_size,
            v_min=config.state_range[0],
            v_max=config.state_range[1],
            mode=config.encoder_mode,
        )
        self.encoder = PopulationEncoder(encoder_cfg, rng=rng)
        self.decoder = PopulationDecoder(
            config.num_actions, config.decoder_pop_size, rng=rng
        )

        surrogate = rectangular(config.surrogate_amplifier, config.surrogate_window)
        sizes = (
            [encoder_cfg.num_neurons]
            + list(config.hidden_sizes)
            + [self.decoder.num_neurons]
        )
        layers = [
            SpikingLinear(
                sizes[i],
                sizes[i + 1],
                lif=config.lif,
                surrogate=surrogate,
                rng=rng,
            )
            for i in range(len(sizes) - 1)
        ]
        self.stack = SpikingStack(layers)

    # ------------------------------------------------------------------
    @property
    def timesteps(self) -> int:
        return self.config.timesteps

    def layer_sizes(self) -> List[Tuple[int, int]]:
        """(in, out) of each spiking layer, for quantisation/energy models."""
        return [(l.in_features, l.out_features) for l in self.stack.layers]

    # ------------------------------------------------------------------
    def forward(self, states: np.ndarray, timesteps: Optional[int] = None) -> Tensor:
        """Compute portfolio weights for a batch of states (Algorithm 1).

        Parameters
        ----------
        states:
            ``(batch, state_dim)`` array of continuous observations.
        timesteps:
            Optional override of the configured T (used by the T-sweep
            ablation bench).

        Returns
        -------
        ``(batch, num_actions)`` tensor on the probability simplex.
        """
        action, _ = self._run(states, timesteps, record=False)
        return action

    def forward_with_activity(
        self, states: np.ndarray, timesteps: Optional[int] = None
    ) -> Tuple[Tensor, ActivityRecord]:
        """Forward pass that also returns spike/synop counts."""
        return self._run(states, timesteps, record=True)

    def forward_inference(
        self, states: np.ndarray, timesteps: Optional[int] = None
    ) -> np.ndarray:
        """Graph-free forward; bit-identical to :meth:`forward`.

        Runs the seed bank's unroll without recording
        (:func:`~repro.snn.banked.monolithic_inference`; see
        :meth:`SharedSDPNetwork.forward_inference`) and returns a plain
        ``(batch, num_actions)`` ndarray.
        """
        action, _ = self._infer(states, timesteps, record=False)
        return action

    def forward_inference_with_activity(
        self, states: np.ndarray, timesteps: Optional[int] = None
    ) -> Tuple[np.ndarray, ActivityRecord]:
        """:meth:`forward_inference` plus the Loihi activity counts, taken
        from the same unroll."""
        return self._infer(states, timesteps, record=True)

    def _infer(self, states, timesteps, record):
        timesteps = timesteps if timesteps is not None else self.config.timesteps
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        counts = [0.0] * (len(self.stack.layers) + 1) if record else None
        action = monolithic_inference(self, states, timesteps, counts)
        if not record:
            return action, None
        batch = len(states)
        return action, ActivityRecord.from_counts(
            counts, self.stack, timesteps, batch, batch
        )

    # -- training: the S=1 seed bank ------------------------------------
    def _train_bank(self) -> MonolithicSDPBank:
        """See :meth:`SharedSDPNetwork._train_bank`."""
        bank = getattr(self, "_bank", None)
        if bank is None or not bank.owns_parameters():
            bank = self._bank = MonolithicSDPBank([self])
        return bank

    def policy_forward_fused(
        self, states: np.ndarray, timesteps: Optional[int] = None
    ) -> np.ndarray:
        """Recorded fused forward for training; bit-identical to
        :meth:`forward` (see :meth:`SharedSDPNetwork.policy_forward_fused`
        for the contract — tape reuse, buffer lifetime, thread-safety).
        """
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        return self._train_bank().forward(states, timesteps)

    def policy_backward_fused(self, grad_action: np.ndarray) -> None:
        """Analytic backward of :meth:`policy_forward_fused`; sets
        gradients bit-identical to the closure-graph path."""
        bank = getattr(self, "_bank", None)
        if bank is None:
            raise RuntimeError("policy_forward_fused must be called first")
        bank.backward(grad_action)

    # ------------------------------------------------------------------
    def _run(
        self, states: np.ndarray, timesteps: Optional[int], record: bool
    ) -> Tuple[Tensor, Optional[ActivityRecord]]:
        timesteps = timesteps if timesteps is not None else self.config.timesteps
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        batch = states.shape[0]

        spike_trains = self.encoder.encode(states, timesteps)
        self.stack.reset(batch)

        sum_spikes: Optional[Tensor] = None
        counts = [0.0] * (len(self.stack.layers) + 1)
        for t in range(timesteps):
            spikes = Tensor(spike_trains[t])
            if record:
                counts[0] += float(spike_trains[t].sum())
            for k, layer in enumerate(self.stack.layers):
                spikes = layer.step(spikes)
                if record:
                    counts[k + 1] += float(spikes.data.sum())
            sum_spikes = spikes if sum_spikes is None else sum_spikes + spikes

        action = self.decoder(sum_spikes, timesteps)
        if not record:
            return action, None
        return action, ActivityRecord.from_counts(
            counts, self.stack, timesteps, batch, batch
        )

    def act(self, state: np.ndarray, timesteps: Optional[int] = None) -> np.ndarray:
        """Single-state convenience wrapper returning a numpy action."""
        action = self.forward_inference(np.atleast_2d(state), timesteps)
        return action[0]
