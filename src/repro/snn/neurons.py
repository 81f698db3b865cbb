"""Leaky-Integrate-and-Fire neuron dynamics (eqs. (5)-(7) / Algorithm 1).

The paper's SDP uses *two-state* current-based LIF neurons: synaptic
current ``c`` decays with factor ``dc`` and integrates weighted input
spikes (eq. (5)); membrane voltage ``v`` decays with factor ``dv``,
is hard-reset by the previous spike (Algorithm 1's ``v·(1−o)`` gating),
and integrates the current (eq. (6)).  A spike is emitted when the
voltage crosses ``V_th`` (eq. (7)); the reset to 0 is implemented by the
``(1−o)`` gate at the next step so gradients can flow through the
surrogate at the threshold crossing.

All functions are differentiable through :mod:`repro.autograd`, with the
Heaviside spike replaced by a surrogate gradient from
:mod:`repro.snn.surrogate` on the backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..autograd import Tensor, custom_op, is_grad_enabled
from .surrogate import SurrogateGradient, rectangular

# Paper defaults (Table 2): Vth, dc, dv = 0.5, 0.5, 0.80
DEFAULT_V_THRESHOLD = 0.5
DEFAULT_CURRENT_DECAY = 0.5
DEFAULT_VOLTAGE_DECAY = 0.80


@dataclass(frozen=True)
class LIFParameters:
    """Hyper-parameters of a two-state LIF population (Table 2 defaults)."""

    v_threshold: float = DEFAULT_V_THRESHOLD
    current_decay: float = DEFAULT_CURRENT_DECAY
    voltage_decay: float = DEFAULT_VOLTAGE_DECAY

    def __post_init__(self):
        if self.v_threshold <= 0:
            raise ValueError(f"v_threshold must be positive, got {self.v_threshold}")
        for name, value in (
            ("current_decay", self.current_decay),
            ("voltage_decay", self.voltage_decay),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass
class LIFState:
    """Mutable per-unroll state of a LIF population.

    Attributes hold autograd tensors so BPTT can traverse the whole
    unrolled time dimension (STBP).
    """

    current: Tensor
    voltage: Tensor
    spikes: Tensor

    @classmethod
    def zeros(cls, shape: Tuple[int, ...]) -> "LIFState":
        return cls(
            current=Tensor(np.zeros(shape)),
            voltage=Tensor(np.zeros(shape)),
            spikes=Tensor(np.zeros(shape)),
        )


def spike_function(
    voltage: Tensor,
    v_threshold: float,
    surrogate: Optional[SurrogateGradient] = None,
) -> Tensor:
    """Heaviside spike with surrogate gradient.

    Forward: ``o = 1[v > V_th]``.  Backward: ``do/dv = z(v)`` where ``z``
    is the rectangular window of eq. (11) unless another surrogate is
    supplied.

    The surrogate window is only evaluated when a gradient can actually
    flow back (``voltage`` requires grad and grad mode is enabled);
    inference steps skip that array entirely.
    """
    spikes = (voltage.data > v_threshold).astype(voltage.data.dtype)
    if not (voltage.requires_grad and is_grad_enabled()):
        return Tensor(spikes)
    surrogate = surrogate if surrogate is not None else rectangular()
    pseudo = surrogate(voltage.data, v_threshold)

    def backward(g: np.ndarray):
        return (g * pseudo,)

    return custom_op([voltage], spikes, backward, name="spike")


def lif_step(
    synaptic_input: Tensor,
    state: LIFState,
    params: LIFParameters,
    surrogate: Optional[SurrogateGradient] = None,
) -> LIFState:
    """Advance a two-state LIF population by one timestep.

    Implements Algorithm 1's inner loop::

        c(t) = dc · c(t−1) + I(t)
        v(t) = dv · v(t−1) · (1 − o(t−1)) + c(t)
        o(t) = Threshold(v(t))

    where ``I(t)`` is the already-weighted synaptic input
    (``W o_pre + b``), computed by the calling layer.
    """
    current = state.current * params.current_decay + synaptic_input
    voltage = state.voltage * params.voltage_decay * (1.0 - state.spikes) + current
    spikes = spike_function(voltage, params.v_threshold, surrogate)
    return LIFState(current=current, voltage=voltage, spikes=spikes)


@dataclass
class LIFTrainTape:
    """Static buffers of one ``T``-step LIF unroll, in one of two modes.

    *Recording* (training, ``zeros(T, shape)``): the fused STBP kernel
    (:mod:`repro.snn.banked`) records, per timestep, only what the
    analytic backward needs — the membrane voltage (for the surrogate
    window and the reset-gate gradient) and the emitted spikes (for the
    ``1 − o`` gate and as the next layer's input).  Slice ``0`` of the
    ``voltage``/``spikes`` arrays holds the zero initial state and is
    never written, so :func:`lif_backward_step` can treat ``t − 1``
    uniformly.  The buffers are preallocated once and reused across
    train steps: neither the forward unroll (:func:`lif_step_train`)
    nor the backward replay (:func:`lif_backward_step`) allocates.

    *Non-recording* (inference, ``zeros(0, shape)``): the tape records
    no step — ``voltage``/``spikes`` are the running ``(batch, n)``
    state, overwritten every step — and has no backward carries.
    """

    voltage: np.ndarray    # (T+1, batch, n) recorded v(t), index 0 = initial 0;
                           # the running (batch, n) v when not recording
    spikes: np.ndarray     # likewise for o(t)
    current: np.ndarray    # (batch, n) running synaptic current c(t)
    drive: np.ndarray      # (batch, n) scratch for the weighted input I(t)
    scratch: np.ndarray    # (batch, n) transient terms (gate, surrogate, ...)
    timesteps: int         # recorded steps T; 0 when not recording
    g_voltage: Optional[np.ndarray] = None  # carry: dL/dv flowing back from t+1
    g_current: Optional[np.ndarray] = None  # carry: dL/dc (doubles as dL/dI(t))
    g_gate: Optional[np.ndarray] = None     # carry: dL/do(t) from the t+1 reset gate
    g_spikes: Optional[np.ndarray] = None   # scratch: total dL/do(t)

    @classmethod
    def zeros(
        cls, timesteps: int, shape: Tuple[int, ...], dtype=np.float64
    ) -> "LIFTrainTape":
        """A tape recording ``timesteps`` steps (0: a non-recording one)."""
        if timesteps < 0:
            raise ValueError(f"timesteps must be non-negative, got {timesteps}")
        shape = tuple(shape)
        if not timesteps:  # one running state; begin() zeroes it
            return cls(
                voltage=np.empty(shape, dtype=dtype),
                spikes=np.empty(shape, dtype=dtype),
                current=np.empty(shape, dtype=dtype),
                drive=np.empty(shape, dtype=dtype),
                scratch=np.empty(shape, dtype=dtype),
                timesteps=0,
            )
        tape = cls(
            voltage=np.zeros((timesteps + 1,) + shape, dtype=dtype),
            spikes=np.zeros((timesteps + 1,) + shape, dtype=dtype),
            current=np.zeros(shape, dtype=dtype),
            drive=np.empty(shape, dtype=dtype),
            scratch=np.empty(shape, dtype=dtype),
            timesteps=timesteps,
        )
        tape.g_voltage, tape.g_current, tape.g_gate, tape.g_spikes = (
            np.empty(shape, dtype=dtype) for _ in range(4)
        )
        return tape

    def begin(self) -> None:
        """Reset the running state ahead of a fresh unroll (recorded
        slices 0 stay zero by construction)."""
        self.current.fill(0.0)
        if not self.timesteps:
            self.voltage.fill(0.0)
            self.spikes.fill(0.0)


def lif_step_train(
    synaptic_input: np.ndarray,
    tape: LIFTrainTape,
    params: LIFParameters,
    t: int,
) -> np.ndarray:
    """Fused LIF forward step ``t`` (1-based) on ``tape``.

    Performs the exact elementwise operations of :func:`lif_step`, in
    the same order — so the unroll is bit-identical to the closure-graph
    path while allocating nothing.  A recording tape receives
    ``v(t)``/``o(t)`` in its per-timestep slices; a non-recording one
    overwrites its running state, each op reading ``v(t−1)``/``o(t−1)``
    before it writes.

    Returns the spike slice ``o(t)`` (valid until the tape is reused).
    """
    if tape.timesteps:
        v_prev, o_prev = tape.voltage[t - 1], tape.spikes[t - 1]
        v, o = tape.voltage[t], tape.spikes[t]
    else:
        v_prev = v = tape.voltage
        o_prev = o = tape.spikes
    c = tape.current
    # c(t) = dc · c(t−1) + I(t)
    np.multiply(c, params.current_decay, out=c)
    np.add(c, synaptic_input, out=c)
    # v(t) = dv · v(t−1) · (1 − o(t−1)) + c(t)
    np.multiply(v_prev, params.voltage_decay, out=v)
    np.subtract(1.0, o_prev, out=tape.scratch)
    np.multiply(v, tape.scratch, out=v)
    np.add(v, c, out=v)
    # o(t) = 1[v(t) > V_th]; unsafe casting writes the bool result
    # straight into the float buffer (True → 1.0, same as astype).
    np.greater(v, params.v_threshold, out=o, casting="unsafe")
    return o


def lif_backward_step(
    grad_spikes: np.ndarray,
    tape: LIFTrainTape,
    params: LIFParameters,
    surrogate: SurrogateGradient,
    t: int,
) -> np.ndarray:
    """Analytic BPTT backward through LIF step ``t`` (call t = T..1).

    ``grad_spikes`` is the downstream gradient into ``o(t)`` (from the
    next layer's synapses and/or the rate readout); the tape's
    ``g_voltage``/``g_current``/``g_gate`` buffers carry the recurrent
    terms from step ``t + 1``:

    .. math::

        \\partial v(t{+}1)/\\partial v(t) &= d_v (1 - o(t)) \\\\
        \\partial v(t{+}1)/\\partial o(t) &= -d_v\\, v(t) \\\\
        \\partial c(t{+}1)/\\partial c(t) &= d_c

    with the spike surrogate ``do/dv = z(v)`` closing the loop.  Every
    operation mirrors an op of the closure-graph backward (same inputs,
    same order), so the returned ``dL/dI(t)`` — ``tape.g_current``,
    valid until the next call — is bit-identical to the graph path.
    ``grad_spikes`` is never mutated.
    """
    last = t == tape.timesteps
    v = tape.voltage[t]
    # Total dL/do(t): reset-gate carry (arrives first in the graph's
    # reverse-topological order) plus the downstream gradient.
    if last:
        g_o = grad_spikes
    else:
        np.add(tape.g_gate, grad_spikes, out=tape.g_spikes)
        g_o = tape.g_spikes
    # Spike op: dL/dv(t) += g_o · z(v(t))  (surrogate, eq. (11)).
    surrogate.into(v, params.v_threshold, out=tape.scratch)
    if last:
        np.multiply(g_o, tape.scratch, out=tape.g_voltage)
    else:
        np.multiply(g_o, tape.scratch, out=tape.scratch)
        np.add(tape.g_voltage, tape.scratch, out=tape.g_voltage)
    # v(t) = ... + c(t) is an identity edge into c(t); add the c(t+1)
    # decay carry (graph order: carry first, then the voltage term).
    if last:
        np.copyto(tape.g_current, tape.g_voltage)
    else:
        np.multiply(tape.g_current, params.current_decay, out=tape.g_current)
        np.add(tape.g_current, tape.g_voltage, out=tape.g_current)
    # Carries for step t−1 through the reset gate
    # v(t) = dv · v(t−1) · (1 − o(t−1)) + c(t).
    if t > 1:
        np.multiply(tape.voltage[t - 1], params.voltage_decay, out=tape.scratch)
        np.multiply(tape.g_voltage, tape.scratch, out=tape.g_gate)
        np.negative(tape.g_gate, out=tape.g_gate)
        np.subtract(1.0, tape.spikes[t - 1], out=tape.scratch)
        np.multiply(tape.g_voltage, tape.scratch, out=tape.g_voltage)
        np.multiply(tape.g_voltage, params.voltage_decay, out=tape.g_voltage)
    return tape.g_current


def integrate_and_fire_rate(
    stimulation: np.ndarray,
    timesteps: int,
    epsilon: float = 1e-3,
) -> np.ndarray:
    """Closed-form spike count of the one-step soft-reset encoder LIF.

    For the encoder neurons of eqs. (3)–(4) (no leak, soft reset by the
    threshold ``1−ε``), the number of spikes emitted in ``T`` steps under
    constant drive ``A_E`` is ``floor(T·A_E / (1−ε))`` up to boundary
    effects.  Used by tests as an analytic oracle.
    """
    threshold = 1.0 - epsilon
    return np.floor(timesteps * np.asarray(stimulation) / threshold + 1e-12)
