"""Population coding of continuous states into spike trains (eqs. (2)-(4)).

Each dimension of the M-dimensional state is represented by a population
of ``pop_size`` neurons with Gaussian receptive fields.  Receptive-field
means are evenly spaced over the (configurable) state range and the
shared standard deviation keeps "non-zero population activity in all
state spaces" (paper §II.B).

Two spike-generation modes are implemented:

* ``deterministic`` — one-step soft-reset LIF accumulators driven by the
  stimulation strength (eqs. (3)-(4)); this is the mode the paper
  deploys on Loihi.
* ``probabilistic`` — Bernoulli spikes with per-step probability equal
  to the stimulation strength.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

DEFAULT_POP_SIZE = 10
DEFAULT_EPSILON = 1e-3


@dataclass
class EncoderBuffers:
    """Preallocated scratch for :meth:`PopulationEncoder.encode_buffered`.

    One set per (batch, timesteps); the fused training path reuses it
    across train steps so encoding allocates nothing per step, while
    :meth:`PopulationEncoder.encode` and inference build fresh ones per
    call.  Built by :meth:`PopulationEncoder.make_buffers`.
    """

    stim: np.ndarray      # (batch, state_dim, pop_size) receptive-field scratch
    scaled: np.ndarray    # (batch, state_dim, pop_size) activation scratch
    voltage: np.ndarray   # (batch, num_neurons) accumulator
    fired: np.ndarray     # (batch, num_neurons) bool threshold mask
    spikes: np.ndarray    # (timesteps, batch, num_neurons) output train


@dataclass(frozen=True)
class EncoderConfig:
    """Configuration of the Gaussian population encoder.

    Parameters
    ----------
    state_dim:
        Number of continuous state dimensions (M).
    pop_size:
        Neurons per dimension; total encoder neurons = M · pop_size.
    v_min, v_max:
        State-space range covered by the receptive-field means μ.  States
        are expected (but not required) to lie inside; values outside
        still stimulate the nearest population tails.
    sigma_scale:
        σ as a multiple of the spacing between adjacent means, chosen so
        adjacent receptive fields overlap (population activity is nowhere
        zero).
    epsilon:
        Soft-reset constant ε of eq. (4): threshold is ``1 − ε``.
    mode:
        ``"deterministic"`` or ``"probabilistic"``.
    """

    state_dim: int
    pop_size: int = DEFAULT_POP_SIZE
    v_min: float = -1.0
    v_max: float = 1.0
    sigma_scale: float = 0.5
    epsilon: float = DEFAULT_EPSILON
    mode: str = "deterministic"

    def __post_init__(self):
        if self.state_dim <= 0:
            raise ValueError(f"state_dim must be positive, got {self.state_dim}")
        if self.pop_size < 2:
            raise ValueError(f"pop_size must be >= 2, got {self.pop_size}")
        if self.v_max <= self.v_min:
            raise ValueError(
                f"invalid state range [{self.v_min}, {self.v_max}]"
            )
        if self.mode not in ("deterministic", "probabilistic"):
            raise ValueError(f"unknown encoding mode {self.mode!r}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")

    @property
    def num_neurons(self) -> int:
        return self.state_dim * self.pop_size


class PopulationEncoder:
    """Gaussian receptive-field population encoder.

    The encoder is stateless across calls: each :meth:`encode` starts
    with zero accumulator voltages, matching the per-inference reset of
    Algorithm 1.
    """

    def __init__(
        self, config: EncoderConfig, rng: Optional[np.random.Generator] = None
    ):
        self.config = config
        self._rng = rng if rng is not None else np.random.default_rng(0)
        spacing = (config.v_max - config.v_min) / (config.pop_size - 1)
        # Evenly spaced means over the state range (paper: "μ equals the
        # equal distribution of state space").
        self.means = np.linspace(config.v_min, config.v_max, config.pop_size)
        self.sigma = config.sigma_scale * spacing

    # ------------------------------------------------------------------
    def stimulation(self, states: np.ndarray) -> np.ndarray:
        """Stimulation strength A_E of eq. (2) for a batch of states.

        Parameters
        ----------
        states:
            Array of shape ``(batch, state_dim)``.

        Returns
        -------
        Array of shape ``(batch, state_dim * pop_size)`` with values in
        (0, 1].
        """
        states = np.asarray(states, dtype=np.float64)
        if states.ndim == 1:
            states = states[None, :]
        if states.shape[1] != self.config.state_dim:
            raise ValueError(
                f"expected state_dim={self.config.state_dim}, "
                f"got states of shape {states.shape}"
            )
        # (B, M, 1) vs (P,) -> (B, M, P)
        z = (states[:, :, None] - self.means[None, None, :]) / self.sigma
        activation = np.exp(-0.5 * z * z)
        return activation.reshape(states.shape[0], -1)

    # ------------------------------------------------------------------
    def encode(self, states: np.ndarray, timesteps: int) -> np.ndarray:
        """Generate spike trains for ``timesteps`` steps.

        Returns an array of shape ``(timesteps, batch, num_neurons)``
        with entries in {0, 1}.  Deterministic mode runs
        :meth:`encode_buffered` on fresh buffers.
        """
        if timesteps <= 0:
            raise ValueError(f"timesteps must be positive, got {timesteps}")
        if self.config.mode == "deterministic":
            states = np.atleast_2d(np.asarray(states, dtype=np.float64))
            buffers = self.make_buffers(states.shape[0], timesteps)
            return self.encode_buffered(states, timesteps, buffers)
        return self._encode_probabilistic(self.stimulation(states), timesteps)

    def make_buffers(
        self, batch: int, timesteps: int, dtype=np.float64
    ) -> EncoderBuffers:
        """Preallocated scratch for :meth:`encode_buffered`."""
        cfg = self.config
        field_shape = (batch, cfg.state_dim, cfg.pop_size)
        return EncoderBuffers(
            stim=np.empty(field_shape, dtype=dtype),
            scaled=np.empty(field_shape, dtype=dtype),
            voltage=np.empty((batch, cfg.num_neurons), dtype=dtype),
            fired=np.empty((batch, cfg.num_neurons), dtype=bool),
            spikes=np.empty((timesteps, batch, cfg.num_neurons), dtype=dtype),
        )

    def encode_buffered(
        self, states: np.ndarray, timesteps: int, buffers: EncoderBuffers
    ) -> np.ndarray:
        """:meth:`encode` on caller ``buffers``, allocating nothing.

        Deterministic mode runs the stimulation chain (eq. (2)) and the
        soft-reset accumulator loop (eqs. (3)-(4)) entirely on
        ``buffers``; the probabilistic mode falls back to :meth:`encode`
        (its Bernoulli draws must consume the RNG stream identically).
        Returns ``buffers.spikes`` — valid until the next call.
        """
        if self.config.mode != "deterministic":
            return self.encode(states, timesteps)
        if timesteps <= 0:
            raise ValueError(f"timesteps must be positive, got {timesteps}")
        states = np.asarray(states, dtype=np.float64)
        if states.ndim == 1:
            states = states[None, :]
        if states.shape[1] != self.config.state_dim:
            raise ValueError(
                f"expected state_dim={self.config.state_dim}, "
                f"got states of shape {states.shape}"
            )
        # Stimulation A_E (eq. (2)): same ops as stimulation(), buffered.
        np.subtract(states[:, :, None], self.means[None, None, :], out=buffers.stim)
        np.divide(buffers.stim, self.sigma, out=buffers.stim)          # z
        np.multiply(buffers.stim, -0.5, out=buffers.scaled)
        np.multiply(buffers.scaled, buffers.stim, out=buffers.scaled)  # −z²/2
        np.exp(buffers.scaled, out=buffers.scaled)
        drive = buffers.scaled.reshape(states.shape[0], -1)
        # Soft-reset accumulators (eqs. (3)-(4)), in place.
        threshold = 1.0 - self.config.epsilon
        voltage, fired, spikes = buffers.voltage, buffers.fired, buffers.spikes
        voltage.fill(0.0)
        for t in range(timesteps):
            np.add(voltage, drive, out=voltage)
            np.greater(voltage, threshold, out=fired)
            spikes[t] = fired
            # Unmasked soft reset: voltage ≥ 0 and threshold · 0.0 is
            # 0.0, so the same bits as subtracting where fired.
            np.subtract(voltage, threshold * spikes[t], out=voltage)
        return spikes

    def _encode_probabilistic(self, drive: np.ndarray, timesteps: int) -> np.ndarray:
        """Bernoulli spikes with per-step probability A_E."""
        probs = np.clip(drive, 0.0, 1.0)
        draws = self._rng.random((timesteps,) + probs.shape)
        return (draws < probs).astype(np.float64)

    # ------------------------------------------------------------------
    def expected_rate(self, states: np.ndarray) -> np.ndarray:
        """Long-run firing rate per neuron for a batch of states.

        For deterministic encoding the asymptotic rate is
        ``A_E / (1 − ε)`` (clipped to 1); for probabilistic it is
        ``A_E`` itself.  Useful as a test oracle and for encoder
        visualisation.
        """
        drive = self.stimulation(states)
        if self.config.mode == "deterministic":
            return np.minimum(drive / (1.0 - self.config.epsilon), 1.0)
        return np.clip(drive, 0.0, 1.0)
