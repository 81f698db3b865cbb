"""The SDP agent: the paper's primary contribution, wrapped for training
and back-testing.

Two architectures are provided:

* ``"shared"`` (default) — :class:`~repro.snn.network.SharedSDPNetwork`:
  one population-coded spiking scorer applied to every asset with
  shared weights, plus a learned cash bias.  Algorithm 1's dynamics and
  STBP training are unchanged; the sharing is what makes the policy
  sample-efficient enough to train at reproduction scale (DESIGN.md §6).
* ``"monolithic"`` — :class:`~repro.snn.network.SDPNetwork`: the
  verbatim Algorithm 1 network over the full flat state.  Kept for the
  architecture ablation bench and the paper-exact Table 2 configuration.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..autograd import Tensor
from ..data.market import MarketData
from ..envs.observations import (
    ObservationConfig,
    sdp_asset_features_rows,
    sdp_state_perm_columns,
    sdp_state_rows,
)
from ..snn import (
    ActivityRecord,
    LIFParameters,
    SDPConfig,
    SDPNetwork,
    SharedSDPConfig,
    SharedSDPNetwork,
)
from ..utils.rng import make_rng
from .base import Agent

ARCHITECTURES = ("shared", "monolithic")


class SDPAgent(Agent):
    """Spiking Deterministic Policy agent.

    Parameters
    ----------
    n_assets:
        Number of traded assets M; the action dimension is M + 1.
    observation:
        Observation window/scaling (shared with the environment).
    architecture:
        ``"shared"`` (weight-shared per-asset scorer, default) or
        ``"monolithic"`` (Algorithm 1 verbatim over the flat state).
    hidden_sizes, timesteps, encoder_pop_size, decoder_pop_size, lif:
        SDP network hyper-parameters (Table 2 defaults).
    seed:
        Network initialisation seed.
    """

    name = "SDP"
    stateless = True
    #: Both SDP architectures implement the fused STBP training path
    #: (policy_forward_fused / policy_backward_fused), so the trainers
    #: route them through the analytic kernels (the seed banks) by
    #: default.
    supports_fused_training = True

    def __init__(
        self,
        n_assets: int,
        observation: Optional[ObservationConfig] = None,
        architecture: str = "shared",
        hidden_sizes: Tuple[int, ...] = (128, 128),
        timesteps: int = 5,
        encoder_pop_size: int = 10,
        decoder_pop_size: int = 10,
        encoder_mode: str = "deterministic",
        lif: Optional[LIFParameters] = None,
        surrogate_amplifier: float = 9.0,
        surrogate_window: float = 0.4,
        seed: int = 0,
    ):
        if n_assets <= 0:
            raise ValueError(f"n_assets must be positive, got {n_assets}")
        if architecture not in ARCHITECTURES:
            raise ValueError(
                f"unknown architecture {architecture!r}; choose from {ARCHITECTURES}"
            )
        self.n_assets = n_assets
        self.architecture = architecture
        self.observation = observation if observation is not None else ObservationConfig()
        lif = lif if lif is not None else LIFParameters()

        if architecture == "shared":
            self.config = SharedSDPConfig(
                feature_dim=self.observation.sdp_asset_feature_dim(),
                hidden_sizes=tuple(hidden_sizes),
                timesteps=timesteps,
                encoder_pop_size=encoder_pop_size,
                output_pop_size=decoder_pop_size,
                encoder_mode=encoder_mode,
                lif=lif,
                surrogate_amplifier=surrogate_amplifier,
                surrogate_window=surrogate_window,
            )
            self.network = SharedSDPNetwork(self.config, rng=make_rng(seed))
        else:
            self.config = SDPConfig(
                state_dim=self.observation.sdp_state_dim(n_assets),
                num_actions=n_assets + 1,
                hidden_sizes=tuple(hidden_sizes),
                timesteps=timesteps,
                encoder_pop_size=encoder_pop_size,
                decoder_pop_size=decoder_pop_size,
                encoder_mode=encoder_mode,
                state_range=(-1.0, 1.0),
                lif=lif,
                surrogate_amplifier=surrogate_amplifier,
                surrogate_window=surrogate_window,
            )
            self.network = SDPNetwork(self.config, rng=make_rng(seed))

    # ------------------------------------------------------------------
    def parameters(self):
        return self.network.parameters()

    def num_parameters(self) -> int:
        return int(sum(p.size for p in self.network.parameters()))

    # ------------------------------------------------------------------
    def prepare_rows(
        self,
        panels: Sequence[MarketData],
        which: np.ndarray,
        indices: np.ndarray,
        w_prev: np.ndarray,
    ) -> np.ndarray:
        """Architecture-aware state batch (flat or per-asset features)
        over ``(panel, t, w_prev)`` rows."""
        if self.architecture == "shared":
            return sdp_asset_features_rows(
                panels, which, indices, w_prev, self.observation
            )
        return sdp_state_rows(panels, which, indices, w_prev, self.observation)

    def prepare_states(
        self, data: MarketData, indices: np.ndarray, w_prev: np.ndarray
    ) -> np.ndarray:
        """The one-panel front of :meth:`prepare_rows` (what the
        trainers call)."""
        indices = np.asarray(indices, dtype=np.int64)
        return self.prepare_rows([data], np.zeros_like(indices), indices, w_prev)

    def permute_states(self, states: np.ndarray, perms: np.ndarray) -> np.ndarray:
        """Apply per-seed asset permutations to a prepared state batch.

        ``states`` is :meth:`prepare_states` output in native asset
        order whose rows form S equal seed blocks; block ``s`` comes
        back as if built on ``data.permute_assets(perms[s])`` with
        correspondingly permuted previous weights.  Every state feature
        is per-asset elementwise, so the gather is bit-identical to that
        rebuild.  ``perms`` is ``(S, M)``.
        """
        if self.architecture == "shared":
            cols = perms  # states are (rows, assets, features)
        else:
            cols = sdp_state_perm_columns(perms, self.observation)
        rows = len(states)
        per_row = np.repeat(cols, rows // len(perms), axis=0)
        return states[np.arange(rows)[:, None], per_row]

    def decide_batch(self, states: np.ndarray) -> np.ndarray:
        """One batched SNN forward over a prepared state batch.

        Inference never takes a gradient, so this runs the seed bank's
        unroll without recording (:meth:`SDPNetwork.forward_inference`):
        bit-identical decisions to the autograd path, no bank built (a
        running trainer keeps its parameter storage) and buffers
        allocated per call, so concurrent callers may share the agent.
        Training goes through :meth:`policy_forward_fused`.
        """
        return self.network.forward_inference(states)

    def policy_forward(
        self, data: MarketData, indices: np.ndarray, w_prev: np.ndarray
    ) -> Tensor:
        """Differentiable batched action computation for the trainer."""
        return self.network.forward(self.prepare_states(data, indices, w_prev))

    def policy_forward_fused(
        self,
        data: MarketData,
        indices: np.ndarray,
        w_prev: np.ndarray,
        asset_perm: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Fused STBP training forward; bit-identical to
        :meth:`policy_forward` without building a closure graph.

        With ``asset_perm``, ``data``/``w_prev`` are in native order and
        the permutation is applied to the prepared state batch — a
        ``(B, ...)`` gather instead of a whole permuted panel — which is
        bit-identical because every state feature is per-asset
        elementwise.  The returned array is a tape buffer, valid until
        the next fused forward; call :meth:`policy_backward_fused`
        before any parameter update to set the gradients.
        """
        states = self.prepare_states(data, indices, w_prev)
        if asset_perm is not None:
            states = self.permute_states(states, np.asarray(asset_perm)[None])
        return self.network.policy_forward_fused(states)

    def policy_backward_fused(self, grad_actions: np.ndarray) -> None:
        """Set the parameter grads of the last fused forward."""
        self.network.policy_backward_fused(grad_actions)

    def act(self, data: MarketData, t: int, w_prev: np.ndarray) -> np.ndarray:
        states = self.prepare_states(
            data, np.array([t]), np.asarray(w_prev)[None, :]
        )
        return self.decide_batch(states)[0]

    # ------------------------------------------------------------------
    def inference_activity(
        self, data: MarketData, t: int, w_prev: np.ndarray,
        timesteps: Optional[int] = None,
    ) -> ActivityRecord:
        """Spike/synop counts of one inference (Loihi energy model input)."""
        states = self.prepare_states(data, np.array([t]), np.asarray(w_prev)[None, :])
        _, activity = self.network.forward_inference_with_activity(states, timesteps)
        return activity

    def dense_equivalent_macs(self) -> int:
        """MAC count if the same topology ran as a dense ANN on CPU/GPU.

        One multiply–accumulate per synapse per forward pass (the
        conventional ANN cost the paper's CPU/GPU baselines pay), times
        the T repeats an SNN needs; the shared architecture pays per
        asset.
        """
        total = sum(i * o for i, o in self.network.layer_sizes())
        repeats = self.n_assets if self.architecture == "shared" else 1
        return total * self.config.timesteps * repeats
