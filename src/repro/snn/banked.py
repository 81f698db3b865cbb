"""The fused SDP kernel: Algorithm 1's unroll on stacked buffers, in two modes.

This module *is* the SDP forward and training kernel.  The
closure-graph path (``network.forward`` + ``backward()``) stays the
parity oracle it is checked against.  The ``T``-step encode → LIF →
decode unroll runs in one of two modes:

* **Recording** (training).  :class:`SharedSDPBank` /
  :class:`MonolithicSDPBank` record the unroll onto preallocated
  ``T``-deep tapes and replay it backward analytically (eq. (13)).
  :class:`~repro.agents.multiseed.MultiSeedTrainer` runs S seeds on one
  bank, the serial :class:`~repro.agents.trainer.PolicyTrainer` is that
  trainer with S = 1, and ``policy_forward_fused`` holds a one-network
  bank for direct callers.
* **Non-recording** (inference).  :func:`shared_inference` /
  :func:`monolithic_inference` run the same unroll and heads at S = 1
  for ``forward_inference`` — and so for ``decide_batch``, back-tests,
  serving and the Loihi activity counts.  Each layer keeps one time
  slice of LIF state and no backward buffer; the GEMM operands are read
  off the live parameters (no bank is built, so a running trainer's
  bank keeps its storage); every buffer is allocated per call, so one
  network serves concurrent callers.

Almost every op is row-independent — encoder chain, LIF dynamics
(:func:`~repro.snn.neurons.lif_step_train` /
:func:`~repro.snn.neurons.lif_backward_step`), surrogate, softmax rows
— so S seeds' batches ride one static ``(S·B, …)`` tape and every
elementwise op steps all seeds per call.  The weighted ops (layer
GEMMs, readout, decoder) see per-seed parameters; they run as *banks*:
one BLAS-batched 3-D ``np.matmul`` over the ``(S, rows, ·)`` stack,
with the per-seed weight matrices stored as contiguous slices of one
C-contiguous bank array.

Bit-parity
----------

Every op mirrors the closure-graph op it replaces (same inputs, same
order), so each seed's actions and gradients are bit-identical to
``forward`` + ``backward()`` on that seed's network.  numpy's batched
matmul loops the same BLAS GEMM over axis-0 slices, so when every
per-seed operand slice has the graph operand's memory layout — the
same values with the same strides — each slice issues the identical
BLAS call.  The banks preserve those layouts exactly: one
``(S, out, in)`` C-contiguous bank per layer whose slices are ``W``
(used directly for the input gradient ``g @ W``), with the forward
drive ``x @ W.T`` taking the bank's axis-swapped *view* — the same
transposed-view operand ``F.linear`` hands BLAS.  Mixing orientations
(e.g. a contiguous copy where the graph passes a transposed view)
changes the BLAS kernel's memory-access order and flips last-ulp
roundings at some shapes, so operand layout mirroring is load-bearing,
not a convenience.

Elementwise bank ops (bias broadcast, reductions over the per-seed row
axis) reduce the same values in the same order for every seed.  The
parity suite asserts the end-to-end guarantee: on the ``reference`` (float64) backend every seed's weight
trajectory and PVM are bit-identical to the graph path and to S serial
runs.  On the ``fast`` backend the same code runs on float32 tapes and
float32-cast weights — close, not bit-identical; see
:mod:`repro.backend`.

Row layout is seed-blocked: rows ``[s·R, (s+1)·R)`` belong to seed
``s``, so every per-seed view is a contiguous axis-0 slice of a
C-contiguous buffer.

Parameter banking
-----------------

Banks *own* the parameter storage: at construction each per-seed
:class:`~repro.autograd.nn.Parameter`'s ``.data`` is rebound to its
contiguous slice of the float64 bank (same values, same shape — the
live networks keep working for inference and ``state_dict``).
Gradients land in matching float64 grad banks, freshly written every
step, and each parameter's ``.grad`` is pointed at its slice — so a
per-seed ``optimizer.step()`` loop still works, while the
:class:`~repro.agents.multiseed.MultiSeedTrainer` can instead update
whole banks with one elementwise op per optimizer state buffer.

Anything that rebinds a ``Parameter.data`` afterwards —
``Module.load_state_dict``, ``copy.deepcopy``, another bank over the
same network — ends that ownership.  A bank checks
:meth:`ParamBank.owned` before every forward and refuses to train on
storage it no longer owns; the trainer and the networks' S = 1 banks
build a new bank instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from ..autograd.tensor import Tensor
from .decoding import softmax_head_backward, softmax_head_forward
from .encoding import EncoderBuffers, PopulationEncoder
from .layers import SpikingLinear, SpikingStack
from .neurons import LIFParameters, LIFTrainTape, lif_backward_step, lif_step_train

if TYPE_CHECKING:  # network.py imports this module
    from .network import SDPNetwork, SharedSDPNetwork

__all__ = [
    "ParamBank",
    "BankedLinearTape",
    "SpikingLinearBank",
    "SpikingStackBank",
    "SharedSDPBank",
    "MonolithicSDPBank",
    "shared_inference",
    "monolithic_inference",
]

# One layer's forward operands: the ``(S, in, out)`` transposed weight
# view, the ``(S, 1, out)`` bias view, and the LIF parameters.
_LayerOperands = Tuple[np.ndarray, np.ndarray, LIFParameters]


# ----------------------------------------------------------------------
# parameter banking
# ----------------------------------------------------------------------

@dataclass
class ParamBank:
    """One logical parameter across S seeds, stored as one array.

    ``bank[s]`` *is* seed ``s``'s live parameter storage (the
    Parameter's ``.data`` is a view into it) and ``grad[s]`` its
    gradient, rewritten every training step.  Both stay float64 on
    every backend tier.
    """

    bank: np.ndarray          # (S,) + param shape, float64
    grad: np.ndarray          # (S,) + param shape, float64
    params: List[Tensor]      # per-seed Parameters; params[s].data is bank[s]

    def owned(self) -> bool:
        """Whether every seed's ``.data`` still lives in this bank.

        ``load_state_dict`` and ``copy.deepcopy`` give a parameter a
        fresh array and another bank gives it a view of *its* bank; all
        three leave a ``.data`` whose ``base`` is not this bank.
        """
        bank = self.bank
        return all(p.data.base is bank for p in self.params)


def _bank_params(params: Sequence[Tensor]) -> ParamBank:
    """Stack per-seed parameters into a bank and rebind their storage."""
    params = list(params)
    bank = np.stack([np.asarray(p.data, dtype=np.float64) for p in params])
    for s, p in enumerate(params):
        p.data = bank[s]
    return ParamBank(bank=bank, grad=np.zeros_like(bank), params=params)


def _publish_grads(pb: ParamBank) -> None:
    """Point each seed's ``.grad`` at its freshly written bank slice."""
    for s, p in enumerate(pb.params):
        p.grad = pb.grad[s]


# ----------------------------------------------------------------------
# the unroll, shared by both modes
# ----------------------------------------------------------------------

def _spiking_step(
    input_spikes: np.ndarray, operands: _LayerOperands, lif_tape: LIFTrainTape,
    t: int,
) -> np.ndarray:
    """One banked layer at timestep ``t`` (1-based): all seeds'
    ``x @ W.T + b`` (the graph's ``F.linear``) into the tape's drive,
    then one stacked LIF update on ``lif_tape``.  Returns ``o(t)``."""
    weight_t, bias, lif = operands
    drive = lif_tape.drive
    S, n_in, n_out = weight_t.shape
    R = drive.shape[0] // S
    d3 = drive.reshape(S, R, n_out)
    np.matmul(input_spikes.reshape(S, R, n_in), weight_t, out=d3)
    np.add(d3, bias, out=d3)
    return lif_step_train(drive, lif_tape, lif, t)


def _unroll(
    operands: Sequence[_LayerOperands], tape, spike_trains: np.ndarray,
    counts: Optional[List[float]] = None,
) -> None:
    """Run the ``T``-step unroll of encoded ``(T, rows, N)`` spike trains
    on a network tape (recording or not), summing the top layer's spikes
    into ``tape.sum_spikes``.  ``counts``, when given, is a zeroed list
    that receives the encoder's spike total and each layer's output
    spike total (:meth:`~repro.snn.network.ActivityRecord.from_counts`).
    """
    tape.spike_trains = spike_trains
    for lt in tape.layer_tapes:
        lt.lif.begin()
    for t in range(1, len(spike_trains) + 1):
        spikes = tape.spike_trains[t - 1]
        if counts is not None:
            counts[0] += float(spikes.sum())
        for k, (ops, lt) in enumerate(zip(operands, tape.layer_tapes)):
            spikes = _spiking_step(spikes, ops, lt.lif, t)
            if counts is not None:
                counts[k + 1] += float(spikes.sum())
        if t == 1:
            np.copyto(tape.sum_spikes, spikes)
        else:
            np.add(tape.sum_spikes, spikes, out=tape.sum_spikes)


# ----------------------------------------------------------------------
# layer-level banks
# ----------------------------------------------------------------------

@dataclass
class BankedLinearTape:
    """Static tape of one :class:`SpikingLinearBank` unroll.

    The LIF tape covers all seeds' rows at once.  The weight-gradient
    accumulators keep the ``(in, out)`` orientation of the per-step
    ``xᵀ @ g`` (one 3-D slot per seed) and are transposed once when
    flushed; the per-step scratch pair carries the t < T accumulate;
    ``g_input`` is the gradient handed to the layer below.  Allocated
    once per (batch, T) and reused across train steps.  A
    non-recording tape has a one-slice LIF tape and no gradient buffers.
    """

    lif: LIFTrainTape                        # stacked (T+1, S·R, out)
    g_weight: Optional[np.ndarray] = None    # (S, in, out)
    g_weight_step: Optional[np.ndarray] = None  # (S, in, out)
    g_bias: Optional[np.ndarray] = None      # (S, out)
    g_bias_step: Optional[np.ndarray] = None  # (S, out)
    g_input: Optional[np.ndarray] = None     # (S·R, in)


class SpikingLinearBank:
    """S same-shaped :class:`SpikingLinear` layers stepped on one tape."""

    def __init__(
        self,
        layers: Sequence[SpikingLinear],
        dtype=np.float64,
    ):
        layers = list(layers)
        if not layers:
            raise ValueError("bank needs at least one layer")
        first = layers[0]
        for layer in layers[1:]:
            if (
                layer.in_features != first.in_features
                or layer.out_features != first.out_features
            ):
                raise ValueError(
                    "banked layers must share shapes: "
                    f"({first.in_features}, {first.out_features}) vs "
                    f"({layer.in_features}, {layer.out_features})"
                )
            if layer.lif != first.lif:
                raise ValueError("banked layers must share LIF parameters")
        self.n_seeds = len(layers)
        self.in_features = first.in_features
        self.out_features = first.out_features
        self.lif = first.lif
        self.surrogate = first.surrogate
        self.dtype = np.dtype(dtype)

        # Live parameter banks: w (S, out, in) and b (S, out); the
        # layers' Parameters become views into them.  Both GEMM
        # orientations come from this one bank — the input gradient
        # uses it directly, the forward drive its axis-swapped view
        # (mirroring the graph operands' layouts exactly; see the
        # module docstring's bit-parity note).
        self.w = _bank_params([layer.weight for layer in layers])
        self.b = _bank_params([layer.bias for layer in layers])
        if self.dtype != np.float64:
            self._w_cast = np.empty_like(self.w.bank, dtype=self.dtype)
            self._b_cast = np.empty_like(self.b.bank, dtype=self.dtype)
        else:
            self._w_cast = None
            self._b_cast = None

    # -- buffers -------------------------------------------------------
    def make_tape(self, rows_per_seed: int, timesteps: int) -> BankedLinearTape:
        S, R = self.n_seeds, rows_per_seed
        dt = self.dtype
        return BankedLinearTape(
            lif=LIFTrainTape.zeros(timesteps, (S * R, self.out_features), dt),
            g_weight=np.empty((S, self.in_features, self.out_features), dtype=dt),
            g_weight_step=np.empty(
                (S, self.in_features, self.out_features), dtype=dt
            ),
            g_bias=np.empty((S, self.out_features), dtype=dt),
            g_bias_step=np.empty((S, self.out_features), dtype=dt),
            g_input=np.empty((S * R, self.in_features), dtype=dt),
        )

    def refresh(self) -> None:
        """Re-cast the live float64 banks into the fast tier's float32
        GEMM operands (call once per train step, after the optimizer
        moved them).  No-op on the reference tier, which runs GEMMs
        straight off the live banks."""
        if self.dtype != np.float64:
            np.copyto(self._w_cast, self.w.bank, casting="same_kind")
            np.copyto(self._b_cast, self.b.bank, casting="same_kind")

    # GEMM operands for the active tier.
    def _fw_weight(self) -> np.ndarray:   # (S, in, out) transposed view
        w = self.w.bank if self._w_cast is None else self._w_cast
        return w.transpose(0, 2, 1)

    def _bw_weight(self) -> np.ndarray:   # (S, out, in), contiguous
        return self.w.bank if self._w_cast is None else self._w_cast

    def _fw_bias(self) -> np.ndarray:     # (S, 1, out) broadcast view
        b = self.b.bank if self._b_cast is None else self._b_cast
        return b.reshape(self.n_seeds, 1, self.out_features)

    def operands(self) -> _LayerOperands:
        """The forward operands for the active tier (after :meth:`refresh`)."""
        return self._fw_weight(), self._fw_bias(), self.lif

    # -- forward -------------------------------------------------------
    def step_train(
        self, input_spikes: np.ndarray, tape: BankedLinearTape, t: int
    ) -> np.ndarray:
        """Fused training forward for timestep ``t`` (1-based), recorded
        onto ``tape``; see :func:`_spiking_step`."""
        return _spiking_step(input_spikes, self.operands(), tape.lif, t)

    # -- backward ------------------------------------------------------
    def backward_step_train(
        self,
        grad_spikes: np.ndarray,
        input_spikes: np.ndarray,
        tape: BankedLinearTape,
        t: int,
        need_input_grad: bool = True,
    ) -> Optional[np.ndarray]:
        """Analytic backward through timestep ``t`` (call t = T..1).

        Replays the LIF recurrences via
        :func:`~repro.snn.neurons.lif_backward_step`, then mirrors the
        closure-graph linear backward: ``dW += (xᵀ @ dI)ᵀ`` and
        ``db += dI.sum(axis=0)`` per seed, accumulated in the graph's
        t = T..1 order (first write at t = T) and, when requested,
        returns ``dI @ W`` — the gradient into this layer's input spikes
        (``tape.g_input``, valid until the next call).
        """
        g_drive = lif_backward_step(
            grad_spikes, tape.lif, self.lif, self.surrogate, t
        )
        S = self.n_seeds
        R = g_drive.shape[0] // S
        x3 = input_spikes.reshape(S, R, self.in_features)
        g3 = g_drive.reshape(S, R, self.out_features)
        if t == tape.lif.timesteps:
            np.matmul(x3.transpose(0, 2, 1), g3, out=tape.g_weight)
            np.add.reduce(g3, axis=1, out=tape.g_bias)
        else:
            np.matmul(x3.transpose(0, 2, 1), g3, out=tape.g_weight_step)
            np.add(tape.g_weight, tape.g_weight_step, out=tape.g_weight)
            np.add.reduce(g3, axis=1, out=tape.g_bias_step)
            np.add(tape.g_bias, tape.g_bias_step, out=tape.g_bias)
        if need_input_grad:
            gi3 = tape.g_input.reshape(S, R, self.in_features)
            np.matmul(g3, self._bw_weight(), out=gi3)
            return tape.g_input
        return None

    def finalize_train_grads(self, tape: BankedLinearTape) -> None:
        """Flush the tape's accumulated gradients into the grad banks.

        The transpose back to the parameter's ``(out, in)`` orientation
        is an elementwise copy (value-identical to the graph's ``.T``
        accumulate), widening float32 tapes to float64 exactly.
        """
        self.w.grad[:] = tape.g_weight.transpose(0, 2, 1)
        self.b.grad[:] = tape.g_bias
        _publish_grads(self.w)
        _publish_grads(self.b)

    def param_banks(self) -> List[ParamBank]:
        return [self.w, self.b]


class SpikingStackBank:
    """Per-layer :class:`SpikingLinearBank` chain over S spiking stacks."""

    def __init__(
        self,
        stacks: Sequence[SpikingStack],
        dtype=np.float64,
    ):
        stacks = list(stacks)
        depth = len(stacks[0].layers)
        for stack in stacks[1:]:
            if len(stack.layers) != depth:
                raise ValueError("banked stacks must share depth")
        self.banks = [
            SpikingLinearBank([stack.layers[k] for stack in stacks], dtype=dtype)
            for k in range(depth)
        ]
        self.n_seeds = len(stacks)
        self.out_features = stacks[0].out_features

    def make_tapes(self, rows_per_seed: int, timesteps: int) -> List[BankedLinearTape]:
        return [bank.make_tape(rows_per_seed, timesteps) for bank in self.banks]

    def refresh(self) -> None:
        for bank in self.banks:
            bank.refresh()

    def operands(self) -> List[_LayerOperands]:
        return [bank.operands() for bank in self.banks]

    def backward(
        self,
        tapes: List[BankedLinearTape],
        spike_trains: np.ndarray,
        grad_sum_spikes: np.ndarray,
        timesteps: int,
    ) -> None:
        """Replay a recorded unroll backward through time (eq. (13)).

        Walks t = T..1 with layers in top-down order — the schedule the
        closure graph's reverse-topological traversal produces — handing
        each layer the gradient into its output spikes (the rate-readout
        term for the top layer, the synaptic back-projection for hidden
        ones), then flushes every layer's weight/bias gradients.
        """
        banks = self.banks
        for t in range(timesteps, 0, -1):
            g = grad_sum_spikes
            for k in range(len(banks) - 1, -1, -1):
                inp = tapes[k - 1].lif.spikes[t] if k > 0 else spike_trains[t - 1]
                g = banks[k].backward_step_train(
                    g, inp, tapes[k], t, need_input_grad=k > 0
                )
        for bank, tape in zip(banks, tapes):
            bank.finalize_train_grads(tape)

    def param_banks(self) -> List[ParamBank]:
        out: List[ParamBank] = []
        for bank in self.banks:
            out.extend(bank.param_banks())
        return out


# ----------------------------------------------------------------------
# network-level banks
# ----------------------------------------------------------------------

class _SDPBank:
    """What both network banks share: the encoder and the banked spiking
    stack, the recorded unroll, and the parameter-ownership check.

    Subclasses bank their head parameters, list them in
    ``self._param_banks`` after the stack's, and implement ``forward``
    and ``backward``.
    """

    def __init__(self, networks: Sequence, dtype):
        networks = list(networks)
        if not networks:
            raise ValueError("bank needs at least one network")
        first = networks[0]
        for net in networks[1:]:
            if net.config != first.config:
                raise ValueError(
                    "banked networks must share a config (only the seed may differ)"
                )
        if len(networks) > 1 and first.config.encoder_mode != "deterministic":
            raise ValueError(
                "seed-banked training requires the deterministic encoder: the "
                "probabilistic mode consumes a per-network RNG stream that a "
                "shared stacked encode cannot reproduce"
            )
        # No reference to the networks is kept: a network holds its own
        # S = 1 bank, and a back-reference would form a cycle that keeps
        # every discarded network's tapes alive until the cyclic GC runs.
        self.n_seeds = len(networks)
        self.timesteps = first.config.timesteps
        self.dtype = np.dtype(dtype)
        self.stack_bank = SpikingStackBank(
            [net.stack for net in networks], dtype=self.dtype
        )
        self.encoder = first.encoder
        self._param_banks: List[ParamBank] = self.stack_bank.param_banks()
        self._train_tape = None

    def param_banks(self) -> List[ParamBank]:
        return list(self._param_banks)

    def owns_parameters(self) -> bool:
        """Whether every banked parameter still stores its data here
        (see :meth:`ParamBank.owned`)."""
        return all(pb.owned() for pb in self._param_banks)

    def _refresh(self) -> None:
        self.stack_bank.refresh()

    def _unroll(self, rows: np.ndarray, timesteps: int) -> None:
        """Run the recorded unroll of ``rows`` into the current tape."""
        if not self.owns_parameters():
            raise RuntimeError(
                "bank no longer owns its parameters' storage (rebound by "
                "load_state_dict, a copy, or another bank); build a new bank"
            )
        self._refresh()
        tape = self._train_tape
        spike_trains = self.encoder.encode_buffered(rows, timesteps, tape.encoder)
        _unroll(self.stack_bank.operands(), tape, spike_trains)

    def _recorded_tape(self):
        tape = self._train_tape
        if tape is None or tape.spike_trains is None:
            raise RuntimeError("forward must be called first")
        return tape


@dataclass
class _SharedBankTape:
    """Buffers of one :class:`SharedSDPBank` pass (a train pass, or a
    non-recording inference call without the encoder scratch and the
    backward buffers)."""

    layer_tapes: List[BankedLinearTape]
    sum_spikes: np.ndarray   # (S·batch·assets, P)
    rates: np.ndarray        # (S·batch·assets, P)
    scores: np.ndarray       # (S·batch·assets,)
    logits: np.ndarray       # (S·batch, assets + 1)
    temp: np.ndarray         # (S·batch, assets + 1)
    temp_sum: np.ndarray     # (S·batch, 1)
    action: np.ndarray       # (S·batch, assets + 1)
    batch: int               # per-seed batch
    n_assets: int
    timesteps: int
    encoder: Optional[EncoderBuffers] = None
    g_rates: Optional[np.ndarray] = None  # (S·batch·assets, P)
    g_sum: Optional[np.ndarray] = None    # (S·batch·assets, P)
    spike_trains: Optional[np.ndarray] = None

    @classmethod
    def allocate(
        cls, layer_tapes: List[BankedLinearTape], S: int, batch: int,
        n_assets: int, timesteps: int, dtype,
        encoder: Optional[PopulationEncoder] = None,
    ) -> "_SharedBankTape":
        """Head buffers; given the ``encoder``, a recording tape that also
        holds its reused scratch and the backward buffers."""
        rows = S * batch * n_assets
        P = layer_tapes[-1].lif.current.shape[1]
        tape = cls(
            layer_tapes=layer_tapes,
            sum_spikes=np.empty((rows, P), dtype=dtype),
            rates=np.empty((rows, P), dtype=dtype),
            scores=np.empty(rows, dtype=dtype),
            logits=np.empty((S * batch, n_assets + 1), dtype=dtype),
            temp=np.empty((S * batch, n_assets + 1), dtype=dtype),
            temp_sum=np.empty((S * batch, 1), dtype=dtype),
            action=np.empty((S * batch, n_assets + 1), dtype=dtype),
            batch=batch,
            n_assets=n_assets,
            timesteps=timesteps,
        )
        if encoder is not None:
            tape.encoder = encoder.make_buffers(rows, timesteps, dtype)
            tape.g_rates, tape.g_sum = (np.empty((rows, P), dtype=dtype),
                                        np.empty((rows, P), dtype=dtype))
        return tape


def _shared_head(
    tape: _SharedBankTape, readout_w: np.ndarray, readout_b: np.ndarray,
    cash_b: np.ndarray,
) -> np.ndarray:
    """Rate readout (``(S, P)`` weights, ``(S, 1)`` biases), cash column
    and softmax; returns the tape's stacked ``(S·B, A + 1)`` actions."""
    S, P = readout_w.shape
    batch, n_assets = tape.batch, tape.n_assets
    R = batch * n_assets
    np.multiply(tape.sum_spikes, 1.0 / tape.timesteps, out=tape.rates)
    # Batched per-seed matvec rates @ w: (S, R, P) @ (S, P, 1).
    rates3 = tape.rates.reshape(S, R, P)
    scores3 = tape.scores.reshape(S, R, 1)
    np.matmul(rates3, readout_w.reshape(S, P, 1), out=scores3)
    np.add(scores3, readout_b.reshape(S, 1, 1), out=scores3)
    # Concatenate [cash | per-asset scores]; the cash column is the
    # learned bias broadcast over the batch (bias · 1 ≡ bias).
    logits3 = tape.logits.reshape(S, batch, n_assets + 1)
    logits3[:, :, 0] = cash_b
    tape.logits[:, 1:] = tape.scores.reshape(S * batch, n_assets)
    return softmax_head_forward(
        tape.logits, tape.temp, tape.temp_sum, tape.action
    )


class SharedSDPBank(_SDPBank):
    """S :class:`SharedSDPNetwork` instances trained on one stacked tape.

    Mirrors :meth:`SharedSDPNetwork.forward` and its closure-graph
    backward op for op; the readout head runs as a batched matvec over
    contiguous per-seed weight banks and batched per-seed-axis
    reductions — each seed's slice sees exactly the graph's arithmetic
    (same values, same reduction order), so the reference tier stays
    bit-identical.
    """

    def __init__(
        self,
        networks: Sequence["SharedSDPNetwork"],
        dtype=np.float64,
    ):
        networks = list(networks)
        super().__init__(networks, dtype)
        # Head banks: readout weight (S, P), readout bias (S, 1),
        # cash bias (S, 1).
        self.r_w = _bank_params([net.readout_weight for net in networks])
        self.r_b = _bank_params([net.readout_bias for net in networks])
        self.c_b = _bank_params([net.cash_bias for net in networks])
        self._param_banks += [self.r_w, self.r_b, self.c_b]
        self._r_w_cast = (
            np.empty_like(self.r_w.bank, dtype=self.dtype)
            if self.dtype != np.float64
            else None
        )
        self._r_b_cast = (
            np.empty_like(self.r_b.bank, dtype=self.dtype)
            if self.dtype != np.float64
            else None
        )

    # -- buffers -------------------------------------------------------
    def _ensure_tape(
        self, batch: int, n_assets: int, timesteps: int
    ) -> _SharedBankTape:
        tape = self._train_tape
        if (
            tape is None
            or tape.batch != batch
            or tape.n_assets != n_assets
            or tape.timesteps != timesteps
        ):
            tape = self._train_tape = _SharedBankTape.allocate(
                self.stack_bank.make_tapes(batch * n_assets, timesteps),
                self.n_seeds, batch, n_assets, timesteps, self.dtype,
                encoder=self.encoder,
            )
        return tape

    def _refresh(self) -> None:
        self.stack_bank.refresh()
        if self._r_w_cast is not None:
            np.copyto(self._r_w_cast, self.r_w.bank, casting="same_kind")
            np.copyto(self._r_b_cast, self.r_b.bank, casting="same_kind")

    def _readout_w(self) -> np.ndarray:   # (S, P)
        return self.r_w.bank if self._r_w_cast is None else self._r_w_cast

    def _readout_b(self) -> np.ndarray:   # (S, 1)
        return self.r_b.bank if self._r_b_cast is None else self._r_b_cast

    # -- forward -------------------------------------------------------
    def forward(
        self, stacked_features: np.ndarray, timesteps: Optional[int] = None
    ) -> np.ndarray:
        """Fused forward over a seed-stacked ``(S·B, A, D)`` feature batch.

        Returns the stacked ``(S·B, A + 1)`` action buffer (rows
        ``[s·B, (s+1)·B)`` belong to seed ``s``), valid until the next
        forward.  ``timesteps`` overrides the configured ``T``.
        """
        feats = np.asarray(stacked_features, dtype=np.float64)
        S = self.n_seeds
        if feats.ndim != 3 or feats.shape[0] % S:
            raise ValueError(
                f"expected (S·B, assets, features) with S={S}, got {feats.shape}"
            )
        batch = feats.shape[0] // S
        n_assets = feats.shape[1]
        if timesteps is None:
            timesteps = self.timesteps
        tape = self._ensure_tape(batch, n_assets, timesteps)
        self._unroll(
            feats.reshape(feats.shape[0] * n_assets, feats.shape[2]), timesteps
        )
        return _shared_head(
            tape, self._readout_w(), self._readout_b(), self.c_b.bank
        )

    # -- backward ------------------------------------------------------
    def backward(self, grad_action: np.ndarray) -> None:
        """Analytic backward of the last :meth:`forward`: softmax head,
        readout, then BPTT through the spiking stack.  Writes every
        seed's parameter gradients (see the module docstring)."""
        tape = self._recorded_tape()
        grad_action = np.asarray(grad_action, dtype=self.dtype)
        S = self.n_seeds
        batch, n_assets = tape.batch, tape.n_assets
        R = batch * n_assets
        P = self.stack_bank.out_features
        g_logits = softmax_head_backward(grad_action, tape.temp, tape.temp_sum)
        g_scores = g_logits[:, 1:].reshape(S * R)
        # Head gradients, batched over the per-seed row axis.  Each
        # reduction runs over one seed's values in the graph's order;
        # results land in the float64 grad banks (widening float32
        # exactly).
        g_logits3 = g_logits.reshape(S, batch, n_assets + 1)
        self.c_b.grad[:] = g_logits3[:, :, :1].sum(axis=1)
        self.r_b.grad[:, 0] = g_scores.reshape(S, R).sum(axis=1)
        self.r_w.grad[:] = (
            tape.rates * g_scores[:, None]
        ).reshape(S, R, P).sum(axis=1)
        g_scores3 = g_scores.reshape(S, R, 1)
        g_rates3 = tape.g_rates.reshape(S, R, P)
        np.multiply(
            g_scores3, self._readout_w().reshape(S, 1, P), out=g_rates3
        )
        np.multiply(tape.g_rates, 1.0 / tape.timesteps, out=tape.g_sum)
        self.stack_bank.backward(
            tape.layer_tapes, tape.spike_trains, tape.g_sum, tape.timesteps
        )
        _publish_grads(self.r_w)
        _publish_grads(self.r_b)
        _publish_grads(self.c_b)


@dataclass
class _MonolithicBankTape:
    """Buffers of one :class:`MonolithicSDPBank` pass (a train pass, or
    a non-recording inference call without the encoder scratch and the
    backward buffer).

    The decoder head runs in float64 on every tier; its buffers are
    stacked across seeds.
    """

    layer_tapes: List[BankedLinearTape]
    sum_spikes: np.ndarray   # (S·batch, N·P)
    rates: np.ndarray        # (S·batch, N, P) float64 decoder rates
    temp: np.ndarray         # (S·batch, N) float64
    temp_sum: np.ndarray     # (S·batch, 1) float64
    action: np.ndarray       # (S·batch, N) float64
    batch: int               # per-seed batch
    timesteps: int
    encoder: Optional[EncoderBuffers] = None
    g_sum: Optional[np.ndarray] = None  # (S·batch, N·P)
    spike_trains: Optional[np.ndarray] = None

    @classmethod
    def allocate(
        cls, layer_tapes: List[BankedLinearTape], S: int, batch: int,
        timesteps: int, N: int, P: int, dtype,
        encoder: Optional[PopulationEncoder] = None,
    ) -> "_MonolithicBankTape":
        """See :meth:`_SharedBankTape.allocate`."""
        rows = S * batch
        tape = cls(
            layer_tapes=layer_tapes,
            sum_spikes=np.empty((rows, N * P), dtype=dtype),
            rates=np.empty((rows, N, P)),
            temp=np.empty((rows, N)),
            temp_sum=np.empty((rows, 1)),
            action=np.empty((rows, N)),
            batch=batch,
            timesteps=timesteps,
        )
        if encoder is not None:
            tape.encoder = encoder.make_buffers(rows, timesteps, dtype)
            tape.g_sum = np.empty((rows, N * P), dtype=dtype)
        return tape


def _monolithic_head(
    tape: _MonolithicBankTape, decoder_w: np.ndarray, decoder_b: np.ndarray
) -> np.ndarray:
    """Decoder forward (eqs. (8)-(10)) — the graph's
    :meth:`PopulationDecoder.forward` ops on seed-stacked rows, with
    ``(S, N, P)`` weights and ``(S, N)`` biases; returns the tape's
    stacked ``(S·B, N)`` actions."""
    S, N, P = decoder_w.shape
    batch = tape.batch
    rows = S * batch
    np.multiply(tape.sum_spikes.reshape(rows, N, P), 1.0 / tape.timesteps,
                out=tape.rates)
    rates4 = tape.rates.reshape(S, batch, N, P)
    logits = (rates4 * decoder_w[:, None]).sum(axis=3) + decoder_b[:, None, :]
    return softmax_head_forward(
        logits.reshape(rows, N), tape.temp, tape.temp_sum, tape.action
    )


class MonolithicSDPBank(_SDPBank):
    """S :class:`SDPNetwork` instances trained on one stacked tape."""

    def __init__(
        self,
        networks: Sequence["SDPNetwork"],
        dtype=np.float64,
    ):
        networks = list(networks)
        super().__init__(networks, dtype)
        # Decoder head banks: weight (S, N, P), bias (S, N).
        self.d_w = _bank_params([net.decoder.weight for net in networks])
        self.d_b = _bank_params([net.decoder.bias for net in networks])
        self._param_banks += [self.d_w, self.d_b]
        decoder = networks[0].decoder
        self._n_actions, self._pop_size = decoder.num_actions, decoder.pop_size

    def _ensure_tape(self, batch: int, timesteps: int) -> _MonolithicBankTape:
        tape = self._train_tape
        if tape is None or tape.batch != batch or tape.timesteps != timesteps:
            tape = self._train_tape = _MonolithicBankTape.allocate(
                self.stack_bank.make_tapes(batch, timesteps), self.n_seeds,
                batch, timesteps, self._n_actions, self._pop_size, self.dtype,
                encoder=self.encoder,
            )
        return tape

    def forward(
        self, stacked_states: np.ndarray, timesteps: Optional[int] = None
    ) -> np.ndarray:
        """Fused forward over a seed-stacked ``(S·B, D)`` state batch;
        ``timesteps`` overrides the configured ``T``."""
        states = np.asarray(stacked_states, dtype=np.float64)
        S = self.n_seeds
        if states.ndim != 2 or states.shape[0] % S:
            raise ValueError(
                f"expected (S·B, state_dim) with S={S}, got {states.shape}"
            )
        batch = states.shape[0] // S
        if timesteps is None:
            timesteps = self.timesteps
        self._ensure_tape(batch, timesteps)
        self._unroll(states, timesteps)
        return _monolithic_head(self._train_tape, self.d_w.bank, self.d_b.bank)

    def backward(self, grad_action: np.ndarray) -> None:
        """Analytic backward of the last :meth:`forward`: decoder head,
        then BPTT through the spiking stack.  Writes every seed's
        parameter gradients (see the module docstring)."""
        tape = self._recorded_tape()
        grad_action = np.asarray(grad_action, dtype=np.float64)
        S, batch = self.n_seeds, tape.batch
        N, P = self._n_actions, self._pop_size
        rows = S * batch
        # Decoder backward — the graph's softmax (div / exp), logit
        # contraction and rate scaling; per-seed reductions run over the
        # seed's own rows.
        g_logits = softmax_head_backward(grad_action, tape.temp, tape.temp_sum)
        g_logits3 = g_logits.reshape(S, batch, N)
        self.d_b.grad[:] = g_logits3.sum(axis=1)
        g_exp = np.broadcast_to(g_logits3[..., None], (S, batch, N, P))
        rates4 = tape.rates.reshape(S, batch, N, P)
        g_rates = g_exp * self.d_w.bank[:, None]
        self.d_w.grad[:] = (g_exp * rates4).sum(axis=1)
        g_flat = g_rates.reshape(rows, N * P)
        tape.g_sum[:] = g_flat * (1.0 / tape.timesteps)
        self.stack_bank.backward(
            tape.layer_tapes, tape.spike_trains, tape.g_sum, tape.timesteps
        )
        _publish_grads(self.d_w)
        _publish_grads(self.d_b)


# ----------------------------------------------------------------------
# the non-recording forward (inference)
# ----------------------------------------------------------------------

def _live_operands(layers: Sequence[SpikingLinear]) -> List[_LayerOperands]:
    """S = 1 forward operands read off the layers' live parameters:
    ``W[None]`` has an S = 1 bank slice's layout wherever ``W`` is
    stored (its own array, a network's or a trainer's bank), so nothing
    is stacked, copied or rebound."""
    return [
        (layer.weight.data[None].transpose(0, 2, 1),
         layer.bias.data.reshape(1, 1, layer.out_features), layer.lif)
        for layer in layers
    ]


def _one_slice_tapes(stack: SpikingStack, rows: int) -> List[BankedLinearTape]:
    return [BankedLinearTape(lif=LIFTrainTape.zeros(0, (rows, layer.out_features)))
            for layer in stack.layers]


def shared_inference(
    network: "SharedSDPNetwork", features: np.ndarray, timesteps: int,
    counts: Optional[List[float]] = None,
) -> np.ndarray:
    """Non-recording forward of one :class:`SharedSDPNetwork` over
    float64 ``(B, A, D)`` features: the :class:`SharedSDPBank` unroll
    and head at S = 1, in float64 on every tier, on buffers allocated
    for this call (the encoder's scratch is freed before the unroll).
    Returns ``(B, A + 1)`` actions; ``counts`` as in :func:`_unroll`."""
    batch, n_assets, dim = features.shape
    rows = batch * n_assets
    spike_trains = network.encoder.encode(features.reshape(rows, dim), timesteps)
    tape = _SharedBankTape.allocate(
        _one_slice_tapes(network.stack, rows), 1, batch, n_assets, timesteps,
        np.float64,
    )
    _unroll(_live_operands(network.stack.layers), tape, spike_trains, counts)
    return _shared_head(tape, network.readout_weight.data[None],
                        network.readout_bias.data[None],
                        network.cash_bias.data[None])


def monolithic_inference(
    network: "SDPNetwork", states: np.ndarray, timesteps: int,
    counts: Optional[List[float]] = None,
) -> np.ndarray:
    """Non-recording forward of one :class:`SDPNetwork` over float64
    ``(B, D)`` states; see :func:`shared_inference`."""
    batch, decoder = len(states), network.decoder
    spike_trains = network.encoder.encode(states, timesteps)
    tape = _MonolithicBankTape.allocate(
        _one_slice_tapes(network.stack, batch), 1, batch, timesteps,
        decoder.num_actions, decoder.pop_size, np.float64,
    )
    _unroll(_live_operands(network.stack.layers), tape, spike_trains, counts)
    return _monolithic_head(tape, decoder.weight.data[None],
                            decoder.bias.data[None])
