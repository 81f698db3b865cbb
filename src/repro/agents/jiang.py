"""The DRL[Jiang] baseline: the EIIE convolutional policy of
Jiang, Xu & Liang (2017), "A Deep Reinforcement Learning Framework for
the Financial Portfolio Management Problem".

This is the method the paper compares against in Tables 3 and 4
("One of the best methods is offered by [12]").  The network is the
*Ensemble of Identical Independent Evaluators* CNN: per-asset feature
extraction with width-spanning 1-D convolutions, the previous weights
injected as an extra channel before the final scoring layer, a learned
cash bias, and a softmax over N = M + 1 outputs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autograd import Tensor, concatenate, no_grad
from ..autograd import functional as F
from ..autograd.functional import _im2col
from ..autograd.nn import Conv2d, Module, Parameter
from ..data.market import MarketData
from ..envs.observations import ObservationConfig, price_tensor_batch
from ..snn.decoding import softmax_head_backward, softmax_head_forward
from ..utils.rng import make_rng
from .base import Agent


def _conv2d_forward_fused(x: np.ndarray, conv: Conv2d):
    """Graph-free :func:`~repro.autograd.functional.conv2d` forward.

    Same im2col / matmul / bias ops in the same order, so the output is
    bit-identical to the graph path.  Returns ``(out, cols)`` — the
    patch matrix is kept for the analytic backward.
    """
    c_out, _, kh, kw = conv.weight.shape
    cols, out_h, out_w = _im2col(x, kh, kw, conv.stride)
    w_mat = conv.weight.data.reshape(c_out, -1)
    out = cols @ w_mat.T
    out = out.transpose(0, 3, 1, 2)
    out = out + conv.bias.data.reshape(1, -1, 1, 1)
    return np.ascontiguousarray(out), cols


def _conv2d_backward_fused(
    g: np.ndarray,
    cols: np.ndarray,
    conv: Conv2d,
    x_shape,
    need_input_grad: bool,
):
    """Analytic conv backward mirroring the closure inside ``conv2d``.

    Returns ``(grad_x, grad_w, grad_b)``; ``grad_x`` is ``None`` when
    the input is a leaf (e.g. the first conv's price tensor).
    """
    c_out, c_in, kh, kw = conv.weight.shape
    sh, sw = conv.stride
    g_cols = g.transpose(0, 2, 3, 1)
    grad_w = np.einsum("bijo,bijk->ok", g_cols, cols).reshape(conv.weight.shape)
    grad_b = g.sum(axis=(0, 2, 3))
    grad_x = None
    if need_input_grad:
        out_h, out_w = g.shape[2], g.shape[3]
        w_mat = conv.weight.data.reshape(c_out, -1)
        grad_cols = g_cols @ w_mat
        grad_cols = grad_cols.reshape(
            x_shape[0], out_h, out_w, c_in, kh, kw
        ).transpose(0, 3, 1, 2, 4, 5)
        grad_x = np.zeros(x_shape)
        for i in range(kh):
            for j in range(kw):
                grad_x[
                    :, :, i : i + out_h * sh : sh, j : j + out_w * sw : sw
                ] += grad_cols[:, :, :, :, i, j]
    return grad_x, grad_w, grad_b


class EIIENetwork(Module):
    """The EIIE CNN topology.

    Input: price tensor ``(B, F, A, W)`` — features × assets × window.
    conv1 slides a (1, 3) kernel along the window; conv2 collapses the
    remaining width with a (1, W−2) kernel; the previous weights (assets
    only) join as a channel; conv3 scores each asset with a (1, 1)
    kernel; a learned cash bias is appended and a softmax produces the
    portfolio vector.
    """

    def __init__(
        self,
        num_features: int,
        num_assets: int,
        window: int,
        conv1_filters: int = 2,
        conv2_filters: int = 20,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if window < 4:
            raise ValueError(f"EIIE needs a window of at least 4, got {window}")
        rng = rng if rng is not None else np.random.default_rng()
        self.num_assets = num_assets
        self.window = window
        self.conv1 = Conv2d(num_features, conv1_filters, (1, 3), rng=rng)
        self.conv2 = Conv2d(conv1_filters, conv2_filters, (1, window - 2), rng=rng)
        self.conv3 = Conv2d(conv2_filters + 1, 1, (1, 1), rng=rng)
        self.cash_bias = Parameter(np.zeros(1))

    def forward(self, price_tensor: Tensor, w_prev_assets: Tensor) -> Tensor:
        """Portfolio weights ``(B, A+1)`` from prices and w_{t−1}.

        ``w_prev_assets`` excludes the cash component: shape (B, A).
        """
        x = self.conv1(price_tensor).relu()
        x = self.conv2(x).relu()  # (B, C2, A, 1)
        w = w_prev_assets.reshape(w_prev_assets.shape[0], 1, self.num_assets, 1)
        x = concatenate([x, w], axis=1)  # previous-weight channel
        scores = self.conv3(x)  # (B, 1, A, 1)
        scores = scores.reshape(scores.shape[0], self.num_assets)
        batch = scores.shape[0]
        cash = self.cash_bias.reshape(1, 1) * Tensor(np.ones((batch, 1)))
        logits = concatenate([cash, scores], axis=1)
        return F.softmax(logits, axis=1)

    # -- training fast path --------------------------------------------
    def policy_forward_fused(
        self, price_tensor: np.ndarray, w_prev_assets: np.ndarray
    ) -> np.ndarray:
        """Recorded graph-free :meth:`forward`; bit-identical actions.

        Keeps the im2col patch matrices, relu masks, and softmax
        activations on a tape for :meth:`policy_backward_fused`.
        """
        x = np.asarray(price_tensor, dtype=np.float64)
        w_prev_assets = np.asarray(w_prev_assets, dtype=np.float64)
        batch = x.shape[0]
        z1, cols1 = _conv2d_forward_fused(x, self.conv1)
        mask1 = z1 > 0
        x1 = np.where(mask1, z1, 0.0)
        z2, cols2 = _conv2d_forward_fused(x1, self.conv2)
        mask2 = z2 > 0
        x2 = np.where(mask2, z2, 0.0)
        w = w_prev_assets.reshape(batch, 1, self.num_assets, 1)
        cat = np.concatenate([x2, w], axis=1)
        z3, cols3 = _conv2d_forward_fused(cat, self.conv3)
        scores = z3.reshape(batch, self.num_assets)
        cash = self.cash_bias.data.reshape(1, 1) * np.ones((batch, 1))
        logits = np.concatenate([cash, scores], axis=1)
        temp = np.empty_like(logits)
        temp_sum = np.empty((batch, 1))
        action = np.empty_like(logits)
        softmax_head_forward(logits, temp, temp_sum, action)
        self._train_tape = {
            "cols1": cols1, "mask1": mask1, "x1_shape": x1.shape,
            "cols2": cols2, "mask2": mask2, "cat_shape": cat.shape,
            "cols3": cols3, "x_shape": x.shape,
            "temp": temp, "temp_sum": temp_sum, "batch": batch,
        }
        return action

    def policy_backward_fused(self, grad_action: np.ndarray) -> None:
        """Analytic backward of :meth:`policy_forward_fused`; accumulates
        gradients bit-identical to the closure-graph path."""
        tape = getattr(self, "_train_tape", None)
        if tape is None:
            raise RuntimeError("policy_forward_fused must be called first")
        g = np.asarray(grad_action, dtype=np.float64)
        g_logits = softmax_head_backward(g, tape["temp"], tape["temp_sum"])
        g_cash_bias = g_logits[:, :1].sum(axis=(0,), keepdims=True).reshape(1)
        g_z3 = g_logits[:, 1:].reshape(tape["batch"], 1, self.num_assets, 1)
        g_cat, g_w3, g_b3 = _conv2d_backward_fused(
            g_z3, tape["cols3"], self.conv3, tape["cat_shape"], True
        )
        # Concat backward: previous-weight channel is a leaf.
        g_z2 = g_cat[:, : self.conv2.out_channels] * tape["mask2"]
        g_x1, g_w2, g_b2 = _conv2d_backward_fused(
            g_z2, tape["cols2"], self.conv2, tape["x1_shape"], True
        )
        g_z1 = g_x1 * tape["mask1"]
        _, g_w1, g_b1 = _conv2d_backward_fused(
            g_z1, tape["cols1"], self.conv1, tape["x_shape"], False
        )
        self.conv1.weight._accumulate(g_w1)
        self.conv1.bias._accumulate(g_b1)
        self.conv2.weight._accumulate(g_w2)
        self.conv2.bias._accumulate(g_b2)
        self.conv3.weight._accumulate(g_w3)
        self.conv3.bias._accumulate(g_b3)
        self.cash_bias._accumulate(g_cash_bias)


class JiangDRLAgent(Agent):
    """Back-testable wrapper around :class:`EIIENetwork`.

    Uses the same trainer/objective as the SDP agent; only the network
    and the observation encoding differ.
    """

    name = "DRL[Jiang]"
    stateless = True
    #: EIIE implements the fused training path (analytic conv backward),
    #: so the trainers route it off the closure graph by default.
    supports_fused_training = True

    def __init__(
        self,
        n_assets: int,
        observation: Optional[ObservationConfig] = None,
        conv1_filters: int = 2,
        conv2_filters: int = 20,
        seed: int = 0,
    ):
        if n_assets <= 0:
            raise ValueError(f"n_assets must be positive, got {n_assets}")
        self.n_assets = n_assets
        self.observation = observation if observation is not None else ObservationConfig()
        self.network = EIIENetwork(
            num_features=self.observation.num_features,
            num_assets=n_assets,
            window=self.observation.window,
            conv1_filters=conv1_filters,
            conv2_filters=conv2_filters,
            rng=make_rng(seed),
        )

    # ------------------------------------------------------------------
    def parameters(self):
        return self.network.parameters()

    def num_parameters(self) -> int:
        return int(sum(p.size for p in self.network.parameters()))

    # ------------------------------------------------------------------
    def prepare_states(
        self, data: MarketData, indices: np.ndarray, w_prev: np.ndarray
    ) -> dict:
        """EIIE input batch: price tensors plus the previous weights."""
        return {
            "prices": price_tensor_batch(data, indices, self.observation),
            "w_prev": np.asarray(w_prev, dtype=np.float64),
        }

    def decide_batch(self, states: dict) -> np.ndarray:
        """One batched CNN forward over a prepared state batch.

        Runs under :func:`~repro.autograd.no_grad`: the convolution
        forward is the same numpy computation, but no backward closures
        or graph nodes are allocated — inference never backpropagates.
        """
        with no_grad():
            w_assets = Tensor(states["w_prev"][:, 1:])
            return self.network(Tensor(states["prices"]), w_assets).data

    def policy_forward(
        self, data: MarketData, indices: np.ndarray, w_prev: np.ndarray
    ) -> Tensor:
        states = self.prepare_states(data, indices, w_prev)
        w_assets = Tensor(states["w_prev"][:, 1:])
        return self.network(Tensor(states["prices"]), w_assets)

    def policy_forward_fused(
        self,
        data: MarketData,
        indices: np.ndarray,
        w_prev: np.ndarray,
        asset_perm: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Fused training forward (bit-identical to :meth:`policy_forward`).

        With ``asset_perm``, the native-order price tensor has its asset
        axis gathered instead of building a permuted panel — the EIIE
        features are per-asset (window prices over that asset's own
        latest close), so the gather is bit-identical.
        """
        states = self.prepare_states(data, indices, w_prev)
        prices = states["prices"]
        w_assets = states["w_prev"][:, 1:]
        if asset_perm is not None:
            prices = prices[:, :, asset_perm, :]
            w_assets = w_assets[:, asset_perm]
        return self.network.policy_forward_fused(prices, w_assets)

    def policy_backward_fused(self, grad_actions: np.ndarray) -> None:
        """Accumulate parameter grads for the last fused forward."""
        self.network.policy_backward_fused(grad_actions)

    def act(self, data: MarketData, t: int, w_prev: np.ndarray) -> np.ndarray:
        states = self.prepare_states(
            data, np.array([t]), np.asarray(w_prev)[None, :]
        )
        return self.decide_batch(states)[0]

    # ------------------------------------------------------------------
    def macs_per_inference(self) -> int:
        """Multiply–accumulate count of one forward pass.

        Feeds the Table 4 CPU/GPU device models.
        """
        f = self.observation.num_features
        a = self.n_assets
        w = self.observation.window
        c1 = self.network.conv1.out_channels
        c2 = self.network.conv2.out_channels
        macs = 0
        macs += (w - 2) * a * c1 * f * 3          # conv1
        macs += 1 * a * c2 * c1 * (w - 2)         # conv2
        macs += a * (c2 + 1)                      # conv3
        return int(macs)
