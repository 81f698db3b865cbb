"""Cross-seed vectorized training: S seeds on one stacked fused tape.

A seed sweep trains the *same* configuration S times with different
RNG streams — same panel, same network shapes, same tape layout.
:class:`MultiSeedTrainer` exploits that: it holds S independent policy
/ optimizer / PVM banks but steps them all per kernel call on one
static ``(S·B, …)`` tape (:mod:`repro.snn.banked`).  Per train step the
per-seed work is reduced to the two RNG draws (minibatch indices and
the asset permutation) — everything else runs stacked:

* the trainer prologue (PVM reads, price-relative gathers, drift) as
  ``(S, B, ·)`` gathers against a seed-banked PVM;
* state preparation as one row-independent builder call over the
  concatenated index batch;
* the SNN forward/backward on the stacked tape with BLAS-batched
  per-seed GEMM banks;
* the optimizer as one elementwise update per parameter *bank*
  (:class:`ParamBank`) instead of S × params Python-level updates.

The RNG-stream contract is the serial trainer's, per seed:

* minibatch draws come from
  :meth:`~repro.envs.sampling.GeometricBatchSampler.for_seed`
  (``make_rng(seed)``),
* the permute-assets stream is ``make_rng(seed + 1)``,
* network weights are initialised from ``make_rng(seed)`` at agent
  construction (the caller builds agents exactly as for serial runs).

On the ``reference`` backend every seed's weight trajectory and PVM
are **bit-identical** to a serial :class:`~repro.agents.trainer.
PolicyTrainer` run with that seed — every stacked op either is the
serial op on a contiguous per-seed slice (same BLAS call, same
reduction order) or an elementwise op over identical values; the
parity suite and the bench ``--check`` gate enforce the end-to-end
guarantee.  The ``fast`` backend (float32 tapes + float32-cast weight
banks) is a documented-tolerance approximation and is rejected by
every parity gate; see :mod:`repro.backend`.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from ..autograd.optim import SGD, Adam, Optimizer, RMSProp
from ..backend import Backend, resolve_backend
from ..data.market import MarketData
from ..envs.costs import fused_training_loss_banked
from ..envs.observations import (
    ObservationConfig,
    sdp_asset_features_batch,
    sdp_state_batch,
)
from ..envs.pvm import PortfolioVectorMemory
from ..envs.sampling import GeometricBatchSampler
from ..obs import get_obs
from ..snn.banked import MonolithicSDPBank, ParamBank, SharedSDPBank
from ..utils.rng import make_rng
from .jiang import JiangDRLAgent
from .sdp import SDPAgent
from .trainer import TrainConfig, TrainHistory

__all__ = ["MultiSeedTrainer"]


# ----------------------------------------------------------------------
# banked optimizer execution
# ----------------------------------------------------------------------

class _BankedOptimizer:
    """Run S same-hyperparameter optimizers as bank-wide updates.

    The per-seed :class:`~repro.autograd.optim.Optimizer` updates are
    pure elementwise chains with scalar hyperparameters, so applying
    the *identical op sequence* to the ``(S,) + shape`` parameter /
    gradient / moment banks updates every seed's slice exactly as its
    own optimizer would — bit-identical, S× fewer Python dispatches.

    The per-seed optimizers stay truthful: their state-buffer entries
    are rebound to views into the moment banks and their step counters
    are kept in sync, so ``state_dict()`` on any of them reflects the
    live state.
    """

    #: subclasses fill in the optimizer class they mirror and the
    #: hyperparameters that must match across seeds
    _optimizer_cls: type = Optimizer
    _hyper_names: tuple = ()

    def __init__(self, optimizers: Sequence[Optimizer], banks: Sequence[ParamBank]):
        self.optimizers = list(optimizers)
        self.banks = list(banks)
        first = self.optimizers[0]
        self._step_count = first._step_count
        # Per-bank, per-seed parameter indices into each optimizer.
        idx_maps = [
            {id(p): i for i, p in enumerate(opt.params)} for opt in self.optimizers
        ]
        self._indices: List[List[int]] = []
        covered = [set() for _ in self.optimizers]
        for pb in self.banks:
            idxs = []
            for s, p in enumerate(pb.params):
                i = idx_maps[s].get(id(p))
                if i is None:
                    raise LookupError("parameter not owned by its optimizer")
                idxs.append(i)
                covered[s].add(i)
            self._indices.append(idxs)
        for s, opt in enumerate(self.optimizers):
            if len(covered[s]) != len(opt.params):
                raise LookupError("optimizer holds parameters outside the banks")
        # Moment banks: stack the per-seed buffers (zeros on a fresh
        # optimizer; live values on a resumed one) and rebind the
        # per-seed entries to the bank slices.
        self._state: Dict[str, List[np.ndarray]] = {}
        for name in self._optimizer_cls._state_buffer_names:
            state_banks = []
            for j, pb in enumerate(self.banks):
                bank = np.stack(
                    [
                        getattr(opt, name)[self._indices[j][s]]
                        for s, opt in enumerate(self.optimizers)
                    ]
                )
                for s, opt in enumerate(self.optimizers):
                    getattr(opt, name)[self._indices[j][s]] = bank[s]
                state_banks.append(bank)
            self._state[name] = state_banks
        self._scratch = [np.empty_like(pb.bank) for pb in self.banks]
        self._scratch2 = [np.empty_like(pb.bank) for pb in self.banks]

    @classmethod
    def build(
        cls, optimizers: Sequence[Optimizer], banks: Sequence[ParamBank]
    ) -> Optional["_BankedOptimizer"]:
        """A banked executor for ``optimizers``, or ``None`` when they
        cannot be banked (mixed classes, differing hyperparameters,
        parameters outside the banks) — the caller then falls back to
        the per-seed ``zero_grad``/``step`` loop."""
        optimizers = list(optimizers)
        first = optimizers[0]
        for sub in (_BankedSGD, _BankedAdam, _BankedRMSProp):
            if type(first) is sub._optimizer_cls:
                impl = sub
                break
        else:
            return None
        for opt in optimizers:
            if type(opt) is not impl._optimizer_cls:
                return None
            if opt._step_count != first._step_count:
                return None
            for name in ("lr",) + impl._hyper_names:
                if getattr(opt, name) != getattr(first, name):
                    return None
        try:
            return impl(optimizers, banks)
        except LookupError:
            return None

    def step(self) -> None:
        self._step_count += 1
        for opt in self.optimizers:
            opt._step_count = self._step_count
        for j, pb in enumerate(self.banks):
            self._update(j, pb)

    def _update(self, index: int, pb: ParamBank) -> None:
        raise NotImplementedError


class _BankedSGD(_BankedOptimizer):
    """Bank-wide :class:`~repro.autograd.optim.SGD` (same op chain)."""

    _optimizer_cls = SGD
    _hyper_names = ("momentum", "weight_decay")

    def _update(self, index: int, pb: ParamBank) -> None:
        opt = self.optimizers[0]
        grad = pb.grad
        buf = self._scratch[index]
        if opt.weight_decay:
            np.multiply(pb.bank, opt.weight_decay, out=buf)
            np.add(grad, buf, out=buf)
            grad = buf
        if opt.momentum:
            velocity = self._state["_velocity"][index]
            np.multiply(velocity, opt.momentum, out=velocity)
            np.add(velocity, grad, out=velocity)
            grad = velocity
        np.multiply(grad, opt.lr, out=buf)
        np.subtract(pb.bank, buf, out=pb.bank)


class _BankedAdam(_BankedOptimizer):
    """Bank-wide :class:`~repro.autograd.optim.Adam` (same op chain)."""

    _optimizer_cls = Adam
    _hyper_names = ("beta1", "beta2", "eps", "weight_decay")

    def _update(self, index: int, pb: ParamBank) -> None:
        opt = self.optimizers[0]
        grad = pb.grad
        buf, buf2 = self._scratch[index], self._scratch2[index]
        if opt.weight_decay:
            np.multiply(pb.bank, opt.weight_decay, out=buf2)
            np.add(grad, buf2, out=buf2)
            grad = buf2
            buf2 = np.empty_like(buf)  # decayed grad occupies scratch2
        m = self._state["_m"][index]
        v = self._state["_v"][index]
        np.multiply(m, opt.beta1, out=m)
        np.multiply(grad, 1.0 - opt.beta1, out=buf)
        np.add(m, buf, out=m)
        np.multiply(v, opt.beta2, out=v)
        np.multiply(grad, 1.0 - opt.beta2, out=buf)
        np.multiply(buf, grad, out=buf)
        np.add(v, buf, out=v)
        np.divide(m, 1.0 - opt.beta1 ** self._step_count, out=buf)
        np.divide(v, 1.0 - opt.beta2 ** self._step_count, out=buf2)
        np.sqrt(buf2, out=buf2)
        np.add(buf2, opt.eps, out=buf2)
        np.multiply(buf, opt.lr, out=buf)
        np.divide(buf, buf2, out=buf)
        np.subtract(pb.bank, buf, out=pb.bank)


class _BankedRMSProp(_BankedOptimizer):
    """Bank-wide :class:`~repro.autograd.optim.RMSProp` (same op chain)."""

    _optimizer_cls = RMSProp
    _hyper_names = ("alpha", "eps", "weight_decay")

    def _update(self, index: int, pb: ParamBank) -> None:
        opt = self.optimizers[0]
        grad = pb.grad
        buf, buf2 = self._scratch[index], self._scratch2[index]
        if opt.weight_decay:
            np.multiply(pb.bank, opt.weight_decay, out=buf2)
            np.add(grad, buf2, out=buf2)
            grad = buf2
            buf2 = np.empty_like(buf)
        avg = self._state["_square_avg"][index]
        np.multiply(avg, opt.alpha, out=avg)
        np.multiply(grad, 1.0 - opt.alpha, out=buf)
        np.multiply(buf, grad, out=buf)
        np.add(avg, buf, out=avg)
        np.sqrt(avg, out=buf)
        np.add(buf, opt.eps, out=buf)
        np.multiply(grad, opt.lr, out=buf2)
        np.divide(buf2, buf, out=buf2)
        np.subtract(pb.bank, buf2, out=pb.bank)


# ----------------------------------------------------------------------
# EIIE fallback executor
# ----------------------------------------------------------------------

class _EIIELoopBank:
    """Per-seed loop executor for the EIIE conv policy.

    The EIIE fused kernels build their tape per call and are dominated
    by im2col GEMMs with per-seed weights, so there is no shared
    elementwise bulk to stack — each seed runs the *literal* serial
    kernel (trivially bit-identical) and only the loss and the trainer
    prologue are shared.  The fast backend is rejected upstream.
    """

    def __init__(self, networks: Sequence):
        networks = list(networks)
        self.networks = networks
        self.n_seeds = len(networks)
        self._actions: Optional[np.ndarray] = None

    def forward(
        self, prices: List[np.ndarray], w_assets: List[np.ndarray]
    ) -> np.ndarray:
        batch = prices[0].shape[0]
        n_actions = w_assets[0].shape[1] + 1
        if self._actions is None or self._actions.shape != (
            self.n_seeds * batch,
            n_actions,
        ):
            self._actions = np.empty((self.n_seeds * batch, n_actions))
        for s, net in enumerate(self.networks):
            self._actions[s * batch : (s + 1) * batch] = net.policy_forward_fused(
                prices[s], w_assets[s]
            )
        return self._actions

    def backward(self, grad_action: np.ndarray) -> None:
        batch = grad_action.shape[0] // self.n_seeds
        for s, net in enumerate(self.networks):
            net.policy_backward_fused(grad_action[s * batch : (s + 1) * batch])


# ----------------------------------------------------------------------
# the trainer
# ----------------------------------------------------------------------

class MultiSeedTrainer:
    """Train S same-config policies simultaneously on one stacked tape.

    Parameters
    ----------
    policies:
        S agents built exactly as for serial training (each with its own
        ``seed`` so weight init matches the serial run).  All must share
        the configuration; only the seed may differ.  Supported:
        :class:`~repro.agents.sdp.SDPAgent` (both architectures) and
        :class:`~repro.agents.jiang.JiangDRLAgent`.
    data:
        Training panel (shared — seed sweeps train on one panel).
    optimizers:
        One optimizer per policy, over that policy's parameters.  When
        all are the same class with the same hyperparameters (the sweep
        case), updates run bank-wide; otherwise the trainer falls back
        to a per-seed step loop (still bit-exact, just slower).
    observation / config:
        As for :class:`~repro.agents.trainer.PolicyTrainer`.
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
        for policy in policies[1:]:
            if policy.observation != policies[0].observation:
                raise ValueError(
                    "all policies must share an observation config"
                )

        # -- executor over the policy kind -----------------------------
        first = policies[0]
        if isinstance(first, SDPAgent):
            for policy in policies:
                if not isinstance(policy, SDPAgent) or (
                    policy.architecture != first.architecture
                ):
                    raise ValueError(
                        "all policies must share architecture; got mixed kinds"
                    )
            networks = [policy.network for policy in policies]
            bank_cls = (
                SharedSDPBank
                if first.architecture == "shared"
                else MonolithicSDPBank
            )
            self._bank = bank_cls(networks, dtype=self.backend.dtype)
            self._kind = first.architecture
        elif isinstance(first, JiangDRLAgent):
            for policy in policies:
                if not isinstance(policy, JiangDRLAgent):
                    raise ValueError(
                        "all policies must share architecture; got mixed kinds"
                    )
            if not self.backend.is_reference:
                raise ValueError(
                    "the fast backend does not support the EIIE conv path; "
                    "train Jiang policies on the reference backend"
                )
            self._bank = _EIIELoopBank([policy.network for policy in policies])
            self._kind = "jiang"
        else:
            raise ValueError(
                f"unsupported policy type {type(first).__name__}; multi-seed "
                "training supports SDPAgent and JiangDRLAgent"
            )

        # Bank-wide optimizer execution when the optimizers allow it.
        param_banks = getattr(self._bank, "param_banks", None)
        self._opt_exec = (
            _BankedOptimizer.build(optimizers, param_banks())
            if param_banks is not None
            else None
        )

        # -- per-seed trainer state (serial PolicyTrainer's, per seed) --
        n = data.n_periods
        S = self.n_seeds
        m = data.n_assets
        self.first_index = max(self.observation.first_decision_index(), 1)
        self.last_index = n - 2
        if self.last_index - self.first_index + 1 < self.config.batch_size:
            raise ValueError(
                f"not enough decision periods for training: "
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
        rel = data.close[1:] / data.close[:-1]
        self._relatives = np.concatenate([np.ones((n - 1, 1)), rel], axis=1)
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

    # ------------------------------------------------------------------
    def _prepare_stacked(self):
        """The serial :meth:`PolicyTrainer._prepare_batch` for all seeds.

        The per-seed RNG draws stay serial (each seed consumes its own
        streams exactly as the serial trainer would); the PVM reads,
        permutation gathers, and drift arithmetic run stacked — gathers
        copy the same values and the drift is row-wise, so every seed's
        slice is bit-identical to its serial counterpart.
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
        y_t = self._relatives[prev_idx[:, :, None], action_perms[:, None, :]]
        growth = w_prev * y_t
        w_drifted = growth / growth.sum(axis=2, keepdims=True)
        y_next = self._relatives[idx[:, :, None], action_perms[:, None, :]]
        return w_prev_native, w_drifted, y_next

    def _monolithic_perm_columns(self) -> np.ndarray:
        """Vectorised :meth:`SDPAgent._state_perm_columns` over seeds —
        the same affine index map, built for all S permutations at once."""
        m = self.data.n_assets
        n_h = len(self.observation.momentum_horizons)
        perms = self._perms
        S = self.n_seeds
        momentum = (
            np.arange(n_h)[None, :, None] * m + perms[:, None, :]
        ).reshape(S, -1)
        candle = n_h * m + (
            perms[:, :, None] * 3 + np.arange(3)[None, None, :]
        ).reshape(S, -1)
        weights = (
            n_h * m
            + 3 * m
            + np.concatenate(
                [np.zeros((S, 1), dtype=np.int64), 1 + perms], axis=1
            )
        )
        return np.concatenate([momentum, candle, weights], axis=1)

    def _stacked_forward(self, w_prev_native: np.ndarray) -> np.ndarray:
        """State prep over the concatenated index batch, then one
        stacked bank forward.

        The state builders are row-independent (panel gathers plus
        elementwise feature math), so one call over the ``(S·B,)``
        indices produces each seed's rows bit-identically to its serial
        per-seed call; the permutation gathers then copy those values
        per seed.
        """
        S, B = self.n_seeds, self.config.batch_size
        permute = self.config.permute_assets
        idx_flat = self._idx.reshape(S * B)
        w_prev_flat = w_prev_native.reshape(S * B, -1)
        if self._kind == "jiang":
            prices_list, w_assets_list = [], []
            for s, policy in enumerate(self.policies):
                states = policy.prepare_states(
                    self.data, self._idx[s], w_prev_native[s]
                )
                prices = states["prices"]
                w_assets = states["w_prev"][:, 1:]
                if permute:
                    perm = self._perms[s]
                    prices = prices[:, :, perm, :]
                    w_assets = w_assets[:, perm]
                prices_list.append(prices)
                w_assets_list.append(w_assets)
            return self._bank.forward(prices_list, w_assets_list)
        if self._kind == "shared":
            feats = sdp_asset_features_batch(
                self.data, idx_flat, w_prev_flat, self.policies[0].observation
            )
            if permute:
                feats4 = feats.reshape(S, B, feats.shape[1], feats.shape[2])
                feats = np.take_along_axis(
                    feats4, self._perms[:, None, :, None], axis=2
                ).reshape(feats.shape)
            return self._bank.forward(feats)
        states = sdp_state_batch(
            self.data, idx_flat, w_prev_flat, self.policies[0].observation
        )
        if permute:
            cols = self._monolithic_perm_columns()
            states = np.take_along_axis(
                states.reshape(S, B, states.shape[1]), cols[:, None, :], axis=2
            ).reshape(states.shape)
        return self._bank.forward(states)

    def train_step(self) -> Dict[str, np.ndarray]:
        """One stacked minibatch update across all seeds.

        Per seed this performs exactly the serial fused step — prologue,
        forward, loss, zero_grad/backward/step, PVM write-back — with
        every stage executed on the stacked buffers.  Gradients are
        per-seed independent, so the bank-wide update is arithmetically
        the serial per-seed order.

        With an enabled obs handle each step feeds the shared
        ``repro_train_step_seconds`` histogram and emits one debug-level
        ``train_step_multiseed`` event (per-seed losses, action-gradient
        norms, duration); none of it touches the update arithmetic.
        """
        obs_on = self._obs.enabled
        if obs_on:
            t0 = time.perf_counter()
        w_prev_native, w_drifted, y_next = self._prepare_stacked()
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
            # zero_grad + accumulate); the banked step applies the
            # serial update chain bank-wide.
            self._bank.backward(grad_actions)
            self._opt_exec.step()
        else:
            for optimizer in self.optimizers:
                optimizer.zero_grad()
            self._bank.backward(grad_actions)
            for optimizer in self.optimizers:
                optimizer.step()
        # Un-permute the actions back to native asset order and write
        # all seeds' rows into the PVM bank in one scatter (per-seed
        # row sets are disjoint by construction).
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
            self._m_steps.inc(self.n_seeds)
            g3 = grad_actions.reshape(S, B, -1)
            self._obs.event(
                "train_step_multiseed",
                level="debug",
                step=self.completed_steps,
                n_seeds=self.n_seeds,
                loss=[float(x) for x in losses],
                action_grad_norm=[
                    float(x) for x in np.sqrt((g3 * g3).sum(axis=(1, 2)))
                ],
                seconds=round(elapsed, 9),
            )
        return {"loss": losses, "reward": rewards}

    def train(
        self,
        steps: Optional[int] = None,
        callback: Optional[Callable[[int, Dict[str, np.ndarray]], None]] = None,
    ) -> List[TrainHistory]:
        """Run ``steps`` stacked updates; returns one
        :class:`~repro.agents.trainer.TrainHistory` per seed, recorded
        on the serial trainer's ``log_every`` schedule."""
        steps = steps if steps is not None else self.config.steps
        histories = [TrainHistory() for _ in range(self.n_seeds)]
        first = self.completed_steps + 1
        last = self.completed_steps + steps
        for step in range(first, last + 1):
            stats = self.train_step()
            if step % self.config.log_every == 0 or step == last:
                for s, history in enumerate(histories):
                    history.record(
                        step, float(stats["loss"][s]), float(stats["reward"][s])
                    )
            if callback is not None:
                callback(step, stats)
        return histories
