"""The policy-gradient training loop (§II.C / eq. (1)), S seeds at once.

Both the SDP network and the Jiang EIIE baseline are trained the same
way: the reward ``R = (1/t_f) Σ ln(μ_t · y_t · w_{t−1})`` is
differentiable in the action, so minimising ``−R`` over minibatches of
consecutive periods is direct policy optimisation — no critic, no
return-to-go estimation.  Minibatch mechanics follow Jiang et al.:

* batch starts drawn with geometric bias toward the present
  (:class:`~repro.envs.sampling.GeometricBatchSampler`);
* the previous-step weights entering the state and the cost term come
  from the portfolio-vector memory
  (:class:`~repro.envs.pvm.PortfolioVectorMemory`), which is rewritten
  with the fresh policy outputs after every step.

:class:`MultiSeedTrainer` is the one implementation of that loop.  A
seed sweep trains the *same* configuration S times with different RNG
streams — same panel, same network shapes, same tape layout — so the
trainer holds S independent policy / optimizer / PVM banks but steps
them all per kernel call; the serial
:class:`~repro.agents.trainer.PolicyTrainer` is the same loop with
S = 1.  Per train step the per-seed work is reduced to the two RNG
draws (minibatch indices and the asset permutation) — everything else
runs stacked:

* the prologue (PVM reads, price-relative gathers, drift) as
  ``(S, B, ·)`` gathers against a seed-banked PVM;
* for SDP, state preparation as one row-independent builder call over
  the concatenated index batch, then the SNN forward/backward on one
  static ``(S·B, …)`` tape with BLAS-batched per-seed GEMM banks
  (:mod:`repro.snn.banked`); other fused policies (the EIIE conv net)
  run their own agent-level fused pair once per seed;
* the optimizer as one elementwise update per parameter *bank*
  (:class:`ParamBank`) instead of S × params Python-level updates.

The RNG-stream contract, per seed:

* minibatch draws come from
  :meth:`~repro.envs.sampling.GeometricBatchSampler.for_seed`
  (``make_rng(seed)``),
* the permute-assets stream is ``make_rng(seed + 1)``,
* network weights are initialised from ``make_rng(seed)`` at agent
  construction (the caller builds agents exactly as for serial runs).

So a seed's run does not depend on which seeds ride along.  On the
``reference`` backend every seed's weight trajectory and PVM are
**bit-identical** to that seed trained alone, and to the closure-graph
path the serial trainer keeps as its parity oracle: every stacked op
either is the graph op on a contiguous per-seed slice (same BLAS call,
same reduction order) or an elementwise op over identical values; the
parity suite (``tests/test_multiseed.py``) enforces the end-to-end
guarantee.  The ``fast`` backend (float32 tapes + float32-cast weight
banks) is a documented-tolerance approximation of the reference and
is rejected by every parity gate; see :mod:`repro.backend`.  Within
the fast tier, too, a seed trained alone equals its stacked slice.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..autograd import Tensor
from ..autograd.optim import SGD, Adam, Optimizer, RMSProp
from ..backend import Backend, resolve_backend
from ..data.market import MarketData
from ..envs.costs import (
    DEFAULT_COMMISSION,
    fused_training_loss_banked,
    transaction_remainder_approx,
)
from ..envs.observations import ObservationConfig
from ..envs.pvm import PortfolioVectorMemory
from ..envs.sampling import DEFAULT_GEOMETRIC_BIAS, GeometricBatchSampler
from ..obs import get_obs
from ..snn.banked import MonolithicSDPBank, ParamBank, SharedSDPBank
from ..utils.rng import make_rng
from .sdp import SDPAgent

__all__ = ["MultiSeedTrainer", "TrainConfig", "TrainHistory"]


@dataclass(frozen=True)
class TrainConfig:
    """Training-loop hyper-parameters (defaults follow Table 2).

    ``learning_rate`` defaults to the paper's 1e-5 ("10e-5" in Table 2
    read as 10^-5); the experiment harness overrides it when it pairs
    the loop with Adam, which tolerates larger steps.

    ``permute_assets`` enables asset-permutation augmentation: each
    minibatch sees the assets in a random order (states, previous
    weights, price relatives, and the PVM write-back all permuted
    consistently).  A policy trained this way must be permutation-
    equivariant — it scores assets by their *behaviour* (momentum,
    volatility) instead of memorising which column was the past
    winner.  The EIIE baseline is equivariant by construction (shared
    per-asset weights), so the augmentation levels the field for the
    SDP's fully-connected network.
    """

    steps: int = 2000
    batch_size: int = 128
    commission: float = DEFAULT_COMMISSION
    geometric_bias: float = DEFAULT_GEOMETRIC_BIAS
    log_every: int = 100
    permute_assets: bool = False

    def __post_init__(self):
        if self.steps <= 0 or self.batch_size <= 0:
            raise ValueError("steps and batch_size must be positive")


@dataclass
class TrainHistory:
    """Loss/reward trace of one training run."""

    steps: List[int] = field(default_factory=list)
    loss: List[float] = field(default_factory=list)
    reward: List[float] = field(default_factory=list)

    def record(self, step: int, loss: float, reward: float) -> None:
        self.steps.append(step)
        self.loss.append(loss)
        self.reward.append(reward)


# ----------------------------------------------------------------------
# banked optimizer execution
# ----------------------------------------------------------------------

class _BankedOptimizer:
    """Run S same-hyperparameter optimizers as bank-wide updates.

    An optimizer's update (:meth:`~repro.autograd.optim.Optimizer.
    _update`) is one elementwise chain with scalar hyperparameters, so
    calling the first optimizer's chain on the ``(S,) + shape``
    parameter / gradient / state banks updates every seed's slice
    exactly as its own optimizer would — bit-identical, S× fewer Python
    dispatches.

    The per-seed optimizers stay truthful: their state-buffer entries
    are rebound to views into the state banks and their step counters
    are kept in sync, so ``state_dict()`` on any of them reflects the
    live state.
    """

    def __init__(self, optimizers: Sequence[Optimizer], banks: Sequence[ParamBank]):
        self.optimizers = list(optimizers)
        self.banks = list(banks)
        first = self.optimizers[0]
        # Per-bank, per-seed parameter indices into each optimizer.
        idx_maps = [
            {id(p): i for i, p in enumerate(opt.params)} for opt in self.optimizers
        ]
        indices: List[List[int]] = []
        covered = [set() for _ in self.optimizers]
        for pb in self.banks:
            idxs = []
            for s, p in enumerate(pb.params):
                i = idx_maps[s].get(id(p))
                if i is None:
                    raise LookupError("parameter not owned by its optimizer")
                idxs.append(i)
                covered[s].add(i)
            indices.append(idxs)
        for s, opt in enumerate(self.optimizers):
            if len(covered[s]) != len(opt.params):
                raise LookupError("optimizer holds parameters outside the banks")
        # State banks, per parameter bank in _state_buffer_names order:
        # stack the per-seed buffers (zeros on a fresh optimizer; live
        # values on a resumed one) and rebind the per-seed entries to
        # the bank slices.
        self._state: List[List[np.ndarray]] = [[] for _ in self.banks]
        for name in first._state_buffer_names:
            for j, idxs in enumerate(indices):
                bank = np.stack(
                    [getattr(opt, name)[idxs[s]] for s, opt in enumerate(self.optimizers)]
                )
                for s, opt in enumerate(self.optimizers):
                    getattr(opt, name)[idxs[s]] = bank[s]
                self._state[j].append(bank)
        n_scratch = len(first._scratch[0])
        self._scratch = [
            [np.empty_like(pb.bank) for _ in range(n_scratch)] for pb in self.banks
        ]

    @classmethod
    def build(
        cls, optimizers: Sequence[Optimizer], banks: Sequence[ParamBank]
    ) -> Optional["_BankedOptimizer"]:
        """A banked executor for ``optimizers``, or ``None`` when they
        cannot be banked (a class other than SGD/Adam/RMSProp, mixed
        classes, differing hyperparameters or step counts, parameters
        outside the banks) — the caller then falls back to the per-seed
        ``zero_grad``/``step`` loop."""
        optimizers = list(optimizers)
        first = optimizers[0]
        if type(first) not in (SGD, Adam, RMSProp):
            return None
        for opt in optimizers:
            if type(opt) is not type(first) or opt._step_count != first._step_count:
                return None
            for name in first._hyper_names:
                if getattr(opt, name) != getattr(first, name):
                    return None
        try:
            return cls(optimizers, banks)
        except LookupError:
            return None

    def step(self) -> None:
        first = self.optimizers[0]
        step_count = first._step_count + 1
        for opt in self.optimizers:
            opt._step_count = step_count
        for pb, state, scratch in zip(self.banks, self._state, self._scratch):
            first._update(pb.bank, pb.grad, state, scratch)


# ----------------------------------------------------------------------
# per-seed loop executor for fused policies without a seed bank
# ----------------------------------------------------------------------

class _PolicyLoopBank:
    """Per-seed loop over the agent-level fused training pair.

    For fused policies without a seed bank, such as the EIIE conv net:
    its kernels build their tape per call and are dominated by im2col
    GEMMs with per-seed weights, so there is no shared elementwise bulk
    to stack.  Each seed runs its own ``policy_forward_fused(data,
    indices, w_prev, asset_perm)`` / ``policy_backward_fused`` — the
    serial kernel, trivially bit-identical — and only the prologue and
    the loss are stacked.  The fast backend is rejected upstream.
    """

    def __init__(self, policies: Sequence):
        self.policies = list(policies)
        self._actions: Optional[np.ndarray] = None

    def forward(
        self,
        data: MarketData,
        indices: np.ndarray,
        w_prev: np.ndarray,
        perms: Optional[np.ndarray],
    ) -> np.ndarray:
        """Seed-stacked ``(S·B, A+1)`` actions from ``(S, B)`` indices,
        native-order ``(S, B, A+1)`` previous weights, and optional
        ``(S, A)`` asset permutations."""
        S, B = indices.shape
        shape = (S * B, w_prev.shape[2])
        if self._actions is None or self._actions.shape != shape:
            self._actions = np.empty(shape)
        for s, policy in enumerate(self.policies):
            self._actions[s * B : (s + 1) * B] = policy.policy_forward_fused(
                data,
                indices[s],
                w_prev[s],
                asset_perm=None if perms is None else perms[s],
            )
        return self._actions

    def backward(self, grad_action: np.ndarray) -> None:
        B = grad_action.shape[0] // len(self.policies)
        for s, policy in enumerate(self.policies):
            policy.policy_backward_fused(grad_action[s * B : (s + 1) * B])


# ----------------------------------------------------------------------
# the trainer
# ----------------------------------------------------------------------

def _grad_norm(policy) -> float:
    """L2 norm of one policy's parameter gradients."""
    total = 0.0
    for param in policy.parameters():
        grad = getattr(param, "grad", None)
        if grad is not None:
            flat = np.asarray(grad).ravel()
            total += float(flat @ flat)
    return float(np.sqrt(total))


class MultiSeedTrainer:
    """Train S same-config policies simultaneously on one stacked tape.

    Parameters
    ----------
    policies:
        S agents built exactly as for serial training (each with its own
        ``seed`` so weight init matches the serial run).  All must share
        the type, architecture and observation config; only the seed
        may differ.  Every policy must implement the fused training
        pair: :class:`~repro.agents.sdp.SDPAgent` (both architectures)
        trains on a seed bank, any other fused policy (e.g.
        :class:`~repro.agents.jiang.JiangDRLAgent`) through its own
        fused pair once per seed.
    data:
        Training panel (shared — seed sweeps train on one panel).
    optimizers:
        One optimizer per policy, over that policy's parameters.  When
        all are the same class with the same hyperparameters (the sweep
        case), updates run bank-wide; otherwise the trainer falls back
        to a per-seed step loop (still bit-exact, just slower).
    observation / config:
        Observation window and :class:`TrainConfig` (defaults as for
        :class:`~repro.agents.trainer.PolicyTrainer`).
    seeds:
        Per-policy trainer seeds (sampler stream ``make_rng(seed)``,
        permutation stream ``make_rng(seed + 1)``) — the same numbers a
        serial ``PolicyTrainer(..., seed=s)`` would get.  Defaults to
        ``range(S)``.
    backend:
        ``None``/``"reference"`` for the bit-identical float64 path,
        ``"fast"`` for float32 tapes + float32 GEMM banks (SDP only),
        or a :class:`~repro.backend.Backend`.
    """

    #: Fused kernels.  The serial front may set this to ``False`` before
    #: construction to train its one seed on the closure-graph oracle.
    use_fused = True

    def __init__(
        self,
        policies: Sequence,
        data: MarketData,
        optimizers: Sequence,
        observation: Optional[ObservationConfig] = None,
        config: Optional[TrainConfig] = None,
        seeds: Optional[Sequence[int]] = None,
        backend: Union[None, str, Backend] = None,
    ):
        policies = list(policies)
        optimizers = list(optimizers)
        if not policies:
            raise ValueError("MultiSeedTrainer needs at least one policy")
        if len(optimizers) != len(policies):
            raise ValueError(
                f"{len(policies)} policies but {len(optimizers)} optimizers"
            )
        if self.use_fused:
            for policy in policies:
                if not getattr(policy, "supports_fused_training", False):
                    raise ValueError(
                        "multi-seed training requires the fused training path "
                        f"({type(policy).__name__} does not support it)"
                    )
        self.policies = policies
        self.optimizers = optimizers
        self.data = data
        self.backend = resolve_backend(backend)
        self.observation = (
            observation if observation is not None else ObservationConfig()
        )
        self.config = config if config is not None else TrainConfig()
        self.n_seeds = len(policies)
        self.seeds = (
            list(range(self.n_seeds)) if seeds is None else [int(s) for s in seeds]
        )
        if len(self.seeds) != self.n_seeds:
            raise ValueError(
                f"{self.n_seeds} policies but {len(self.seeds)} seeds"
            )
        first = policies[0]
        for policy in policies[1:]:
            if type(policy) is not type(first) or getattr(
                policy, "architecture", None
            ) != getattr(first, "architecture", None):
                raise ValueError(
                    "all policies must share architecture; got mixed kinds"
                )
            if policy.observation != first.observation:
                raise ValueError(
                    "all policies must share an observation config"
                )

        # -- executor over the policy kind -----------------------------
        self._seed_banked = isinstance(first, SDPAgent)
        if not self.backend.is_reference and not (
            self._seed_banked and self.use_fused
        ):
            raise ValueError(
                "the fast backend runs the fused SDP seed banks only; train "
                f"{type(first).__name__} policies on the reference backend"
            )
        self._bank = self._opt_exec = None
        if self.use_fused:
            self._build_bank()

        # -- per-seed trainer state ------------------------------------
        n = data.n_periods
        S = self.n_seeds
        m = data.n_assets
        # Decision index t needs: a full window ending at t, a previous
        # period (for the PVM drift y_t), and a next period (for the
        # reward's y_{t+1}).
        self.first_index = max(self.observation.first_decision_index(), 1)
        self.last_index = n - 2
        if self.last_index - self.first_index + 1 < self.config.batch_size:
            raise ValueError(
                f"training panel too short: decisions "
                f"[{self.first_index}, {self.last_index}] vs batch "
                f"{self.config.batch_size}"
            )
        # Seed-banked PVM: one (S, n, A+1) array; each per-seed
        # PortfolioVectorMemory's storage is rebound to its slice so the
        # public per-seed API (snapshot/restore/read) stays live while
        # the trainer reads and writes all seeds in one gather/scatter.
        self._pvm_bank = np.full(
            (S, n, m + 1), 1.0 / (m + 1), dtype=np.float64
        )
        self.pvms = []
        for s in range(S):
            pvm = PortfolioVectorMemory(n, m)
            pvm._memory = self._pvm_bank[s]
            self.pvms.append(pvm)
        self.samplers = [
            GeometricBatchSampler.for_seed(
                self.first_index,
                self.last_index,
                self.config.batch_size,
                seed,
                bias=self.config.geometric_bias,
            )
            for seed in self.seeds
        ]
        self._perm_rngs = [make_rng(seed + 1) for seed in self.seeds]
        # Price relatives (with cash) for the whole panel.
        rel = data.close[1:] / data.close[:-1]
        self._relatives = np.concatenate([np.ones((n - 1, 1)), rel], axis=1)
        #: Total train steps this trainer has executed (resume cursor).
        self.completed_steps = 0

        # Preallocated stacked prologue buffers.
        B = self.config.batch_size
        self._idx = np.empty((S, B), dtype=np.int64)
        self._perms = np.empty((S, m), dtype=np.int64)
        self._action_perms = np.empty((S, m + 1), dtype=np.int64)
        self._action_perms[:, 0] = 0
        if not self.config.permute_assets:
            self._perms[:] = np.arange(m)
            self._action_perms[:, 1:] = 1 + self._perms
        self._seed_col = np.arange(S)[:, None]
        self._unperm = np.empty((S, B, m + 1))

        # Observability: resolved once; one attribute check per step
        # when disabled (the process-global default null handle).
        self._obs = get_obs()
        if self._obs.enabled:
            self._m_step_seconds = self._obs.histogram(
                "repro_train_step_seconds", help="trainer step wall-clock"
            )
            self._m_steps = self._obs.counter(
                "repro_train_steps_total", help="trainer steps executed"
            )

    def _build_bank(self) -> None:
        """Build the fused executor and, when it banks the parameters,
        the bank-wide optimizer.

        Rerun whenever the seed bank stops owning its parameters'
        storage (``load_state_dict``, a copy, or another bank over the
        same networks rebinds it): the new bank stacks the live weights
        and the new optimizer bank the optimizers' live state.
        """
        if not self._seed_banked:
            self._bank = _PolicyLoopBank(self.policies)
            return
        bank_cls = (
            SharedSDPBank
            if self.policies[0].architecture == "shared"
            else MonolithicSDPBank
        )
        self._bank = bank_cls(
            [policy.network for policy in self.policies],
            dtype=self.backend.dtype,
        )
        self._opt_exec = _BankedOptimizer.build(
            self.optimizers, self._bank.param_banks()
        )

    # ------------------------------------------------------------------
    def _prepare_stacked(self):
        """The minibatch prologue for all seeds: sample, permute, read
        and drift the PVM.

        The per-seed RNG draws stay serial (each seed consumes its own
        streams exactly as it would alone); the PVM reads, permutation
        gathers, and drift arithmetic run stacked — gathers copy the
        same values and the drift is row-wise, so every seed's slice is
        bit-identical to its one-seed counterpart.  Returns the
        native-order PVM rows (fused policies permute state batches,
        not panels) and the previous weights, drifted weights and next
        price relatives in the *permuted* action order.
        """
        idx = self._idx
        perms = self._perms
        for s in range(self.n_seeds):
            idx[s] = self.samplers[s].sample()
        if self.config.permute_assets:
            m = self.data.n_assets
            for s in range(self.n_seeds):
                perms[s] = self._perm_rngs[s].permutation(m)
            self._action_perms[:, 1:] = 1 + perms
        action_perms = self._action_perms
        prev_idx = idx - 1
        w_prev_native = self._pvm_bank[self._seed_col, prev_idx]  # (S, B, A+1)
        w_prev = np.take_along_axis(
            w_prev_native, action_perms[:, None, :], axis=2
        )
        # Drift the cached previous weights by the already-realised move
        # y_t = close_t / close_{t-1} (row t-1 of the relatives array).
        y_t = self._relatives[prev_idx[:, :, None], action_perms[:, None, :]]
        growth = w_prev * y_t
        w_drifted = growth / growth.sum(axis=2, keepdims=True)
        y_next = self._relatives[idx[:, :, None], action_perms[:, None, :]]
        return w_prev_native, w_prev, w_drifted, y_next

    def _stacked_forward(self, w_prev_native: np.ndarray) -> np.ndarray:
        """Seed-stacked ``(S·B, A+1)`` actions of the fused executor.

        For SDP, one state build over the concatenated index batch, the
        per-seed permutations applied to it, then one stacked bank
        forward.  The state builders are row-independent (panel gathers
        plus elementwise feature math), so one call over the ``(S·B,)``
        indices produces each seed's rows bit-identically to its own
        call; the permutation gathers then copy those values per seed.
        """
        perms = self._perms if self.config.permute_assets else None
        if not self._seed_banked:
            return self._bank.forward(self.data, self._idx, w_prev_native, perms)
        S, B = self.n_seeds, self.config.batch_size
        policy = self.policies[0]
        states = policy.prepare_states(
            self.data, self._idx.reshape(S * B), w_prev_native.reshape(S * B, -1)
        )
        if perms is not None:
            states = policy.permute_states(states, perms)
        return self._bank.forward(states)

    def _fused_update(self, w_prev_native, w_drifted, y_next):
        """Fused forward, loss, backward and optimizer step for every seed."""
        if self._seed_banked and not self._bank.owns_parameters():
            self._build_bank()
        actions = self._stacked_forward(w_prev_native)
        S, B = self.n_seeds, self.config.batch_size
        losses, rewards, grad_actions = fused_training_loss_banked(
            actions,
            w_drifted.reshape(S * B, -1),
            y_next.reshape(S * B, -1),
            S,
            self.config.commission,
        )
        if self._opt_exec is not None:
            # Grad banks are freshly written by backward (equal to
            # zero_grad + accumulate); the banked step applies each
            # optimizer's update chain bank-wide.
            self._bank.backward(grad_actions)
            self._opt_exec.step()
        else:
            for optimizer in self.optimizers:
                optimizer.zero_grad()
            self._bank.backward(grad_actions)
            for optimizer in self.optimizers:
                optimizer.step()
        return actions, losses, rewards

    def _graph_update(self, w_prev, w_drifted, y_next):
        """The closure-graph parity oracle for one seed: graph forward on
        a permuted panel view, ``loss.backward()``, optimizer step."""
        policy, optimizer = self.policies[0], self.optimizers[0]
        data = self.data
        if self.config.permute_assets:
            # A re-validation-free view reusing the parent's cached log
            # panels (bit-identical features).
            data = data.permute_assets(self._perms[0].copy())
        actions = policy.policy_forward(data, self._idx[0], w_prev[0])
        mu = transaction_remainder_approx(
            Tensor(w_drifted[0]), actions, self.config.commission
        )
        growth = (actions * Tensor(y_next[0])).sum(axis=1)
        log_return = (mu * growth).log()
        loss = -log_return.mean()

        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        return (
            actions.data,
            np.array([loss.data]),
            np.array([log_return.data.mean()]),
        )

    def _step(self) -> Tuple[np.ndarray, np.ndarray]:
        """One minibatch update of every seed; per-seed (losses, rewards).

        Prologue, update, then the PVM write-back.  With an enabled obs
        handle each step feeds the ``repro_train_step_seconds``
        histogram, counts S seed-steps, and emits one debug-level
        ``train_step`` event (per-seed loss, reward and parameter
        gradient norm, duration); none of it touches the update
        arithmetic, so the trajectory is bit-identical with obs on or
        off.
        """
        obs_on = self._obs.enabled
        if obs_on:
            t0 = time.perf_counter()
        w_prev_native, w_prev, w_drifted, y_next = self._prepare_stacked()
        if self._bank is None:
            actions, losses, rewards = self._graph_update(
                w_prev, w_drifted, y_next
            )
        else:
            actions, losses, rewards = self._fused_update(
                w_prev_native, w_drifted, y_next
            )
        # Un-permute the actions back to native asset order and write
        # all seeds' rows into the PVM bank in one scatter (per-seed
        # row sets are disjoint by construction).  The simplex is not
        # re-validated: the rows come straight off the policy's softmax.
        S, B = self.n_seeds, self.config.batch_size
        a3 = actions.reshape(S, B, -1)
        if self.config.permute_assets:
            np.put_along_axis(
                self._unperm, self._action_perms[:, None, :], a3, axis=2
            )
            rows = self._unperm
        else:
            rows = a3
        idx = self._idx
        if int(idx.min()) < 0 or int(idx.max()) >= self.data.n_periods:
            raise IndexError("PVM write out of range")
        self._pvm_bank[self._seed_col, idx] = rows
        self.completed_steps += 1
        if obs_on:
            elapsed = time.perf_counter() - t0
            self._m_step_seconds.observe(elapsed)
            self._m_steps.inc(S)
            self._obs.event(
                "train_step",
                level="debug",
                step=self.completed_steps,
                n_seeds=S,
                loss=[float(x) for x in losses],
                reward=[float(x) for x in rewards],
                grad_norm=self.grad_norms(),
                seconds=round(elapsed, 9),
            )
        return losses, rewards

    def train_step(self) -> Dict[str, np.ndarray]:
        """One stacked minibatch update across all seeds; returns the
        per-seed ``loss`` and ``reward`` arrays.

        Per seed this performs exactly the one-seed fused step —
        prologue, forward, loss, zero_grad/backward/step, PVM
        write-back — with every stage executed on the stacked buffers.
        Gradients are per-seed independent, so the bank-wide update is
        arithmetically the per-seed order.
        """
        losses, rewards = self._step()
        return {"loss": losses, "reward": rewards}

    def grad_norms(self) -> List[float]:
        """Per-seed L2 norm of the parameter gradients from the last
        update."""
        return [_grad_norm(policy) for policy in self.policies]

    def train(
        self,
        steps: Optional[int] = None,
        callback: Optional[Callable[[int, Dict[str, Any]], None]] = None,
    ) -> List[TrainHistory]:
        """Run ``steps`` more updates; returns one :class:`TrainHistory`
        per seed, recorded every ``log_every`` steps and at the last.

        Step numbering continues from :attr:`completed_steps`, so a
        resumed trainer (fresh instance + :meth:`load_state_dict`, or
        the same instance trained in instalments) logs histories that
        line up with the uninterrupted run.  ``callback(step, stats)``
        gets each step's :meth:`train_step` result.
        """
        steps = steps if steps is not None else self.config.steps
        histories = [TrainHistory() for _ in range(self.n_seeds)]
        first = self.completed_steps + 1
        last = self.completed_steps + steps
        for step in range(first, last + 1):
            stats = self.train_step()
            if step % self.config.log_every == 0 or step == last:
                losses, rewards = np.atleast_1d(stats["loss"], stats["reward"])
                for s, history in enumerate(histories):
                    history.record(step, float(losses[s]), float(rewards[s]))
            if callback is not None:
                callback(step, stats)
        return histories

    # -- resumable training state --------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Everything mutable the loop owns: the step cursor, and per
        seed the PVM, both RNG streams, and the optimizer moments.

        The policies' *parameters* are deliberately not included — they
        belong to the networks (``network.state_dict()``), so a full
        training checkpoint is ``(network states, trainer state)``.
        Restoring both into a freshly-constructed trainer continues the
        exact update sequence: same minibatches, same permutations, same
        gradients.
        """
        return {
            "completed_steps": self.completed_steps,
            "pvm": [pvm.snapshot() for pvm in self.pvms],
            "sampler_rng": [
                sampler._rng.bit_generator.state for sampler in self.samplers
            ],
            "perm_rng": [rng.bit_generator.state for rng in self._perm_rngs],
            "optimizer": [opt.state_dict() for opt in self.optimizers],
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`state_dict` output into this trainer.

        Optimizer state loads in place, so a bank-wide optimizer keeps
        updating the restored moments.
        """
        for key in ("pvm", "sampler_rng", "perm_rng", "optimizer"):
            if len(state[key]) != self.n_seeds:
                raise ValueError(
                    f"state {key!r} holds {len(state[key])} seeds, "
                    f"trainer has {self.n_seeds}"
                )
        self.completed_steps = int(state["completed_steps"])
        for s in range(self.n_seeds):
            self.pvms[s].restore(state["pvm"][s])
            self.samplers[s]._rng.bit_generator.state = state["sampler_rng"][s]
            self._perm_rngs[s].bit_generator.state = state["perm_rng"][s]
            self.optimizers[s].load_state_dict(state["optimizer"][s])
