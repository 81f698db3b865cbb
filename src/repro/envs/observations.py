"""State construction for the policy networks.

The paper defines the state as ``{w_{t−1}, close, high, low, open}``
(§II.A).  Two concrete encodings are produced from that definition:

* :func:`price_tensor` — the Jiang et al. EIIE input: a
  ``(features, assets, window)`` tensor of prices normalised by the
  latest close (features = close, high, low — optionally open).
* :func:`sdp_state` — the flat continuous vector the SDP population
  encoder consumes: per-asset *multi-horizon cumulative log returns*
  (a compressed, linear re-parameterisation of the same trailing close
  prices the EIIE tensor contains), the current candle's shape
  (high/low/open relative to close), and the previous portfolio
  weights — every component mapped into ``[-1, 1]`` (the encoder's
  receptive-field range).  Population coding resolves a handful of
  well-scaled continuous dimensions far better than thousands of raw
  price cells, which is the design intent of population-coded SNN
  policies (Tang et al. 2020); the information content is the paper's
  state {w_{t−1}, close, high, low, open} over the lookback.

Both encodings look *only backwards* from the decision period; the
no-look-ahead property is covered by property-based tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from ..data.market import MarketData


@lru_cache(maxsize=128)
def _momentum_scales(
    horizons: Tuple[int, ...], log_scale: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Cached per-config horizon index array and ``(1, H, 1)`` scales."""
    h = np.asarray(horizons, dtype=np.int64)
    return h, (log_scale / np.sqrt(h))[None, :, None]

#: Feature order of the price tensor (open is appended when requested).
PRICE_FEATURES = ("close", "high", "low")


@dataclass(frozen=True)
class ObservationConfig:
    """Shape and scaling of policy observations.

    Parameters
    ----------
    window:
        Number of trailing *samples* visible to the policy.
    stride:
        Periods between consecutive samples: the observation covers
        ``window · stride`` periods of history at ``window`` points.
        A stride > 1 extends the lookback horizon (momentum lives on
        multi-day timescales) without inflating the state dimension.
    include_open:
        Whether the open price is a fourth feature row.
    log_scale:
        Multiplier applied to log price-ratios before clipping into
        ``[-1, 1]``; 30-minute crypto moves are a fraction of a percent,
        so a scale of ~20 spreads them across the encoder range.
    """

    window: int = 30
    stride: int = 1
    include_open: bool = True
    log_scale: float = 20.0
    momentum_horizons: Tuple[int, ...] = (1, 3, 9, 18, 36)

    def __post_init__(self):
        # Normalise sequence input (e.g. JSON round-trips) so configs
        # built from lists compare and hash equal to tuple-built ones.
        object.__setattr__(
            self, "momentum_horizons", tuple(self.momentum_horizons)
        )
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if self.log_scale <= 0:
            raise ValueError(f"log_scale must be positive, got {self.log_scale}")
        if not self.momentum_horizons or any(
            h < 1 for h in self.momentum_horizons
        ):
            raise ValueError("momentum_horizons must be positive ints")

    @property
    def lookback_periods(self) -> int:
        """Total trailing periods covered by the observation."""
        return (self.window - 1) * self.stride + 1

    @property
    def num_features(self) -> int:
        return len(PRICE_FEATURES) + (1 if self.include_open else 0)

    def sdp_state_dim(self, n_assets: int) -> int:
        """Flat SDP state dimension: per-asset momentum features over
        ``momentum_horizons``, 3 candle-shape features, plus w_{t−1}
        (cash included)."""
        return n_assets * (len(self.momentum_horizons) + 3) + (n_assets + 1)

    def max_momentum_lookback(self) -> int:
        """Trailing periods the momentum horizons reach back."""
        return max(self.momentum_horizons)

    def sdp_asset_feature_dim(self) -> int:
        """Per-asset feature dimension of the weight-shared SDP state:
        momentum horizons + 3 candle features + own weight + cash weight."""
        return len(self.momentum_horizons) + 5

    def first_decision_index(self) -> int:
        """Earliest period index with a full window of history.

        Covers both the strided price window (EIIE tensor) and the
        longest momentum horizon (SDP state).
        """
        return max(self.lookback_periods - 1, self.max_momentum_lookback())


def _feature_panel(data: MarketData, include_open: bool) -> np.ndarray:
    """Stack OHLC features into shape (features, periods, assets)."""
    return data.feature_panel(include_open)


def price_tensor(
    data: MarketData, t: int, config: ObservationConfig
) -> np.ndarray:
    """EIIE price tensor at decision index ``t``.

    Returns shape ``(features, assets, window)``: prices sampled every
    ``stride`` periods over the lookback ending at ``t``, divided by
    each asset's close at ``t`` (so the last close entry is identically
    1), per Jiang et al.
    """
    return price_tensor_batch(data, np.array([t]), config)[0]


def price_tensor_batch(
    data: MarketData, indices: np.ndarray, config: ObservationConfig
) -> np.ndarray:
    """Vectorised :func:`price_tensor` for many decision indices.

    Returns shape ``(batch, features, assets, window)``.
    """
    indices = np.asarray(indices, dtype=np.int64)
    first = config.first_decision_index()
    if np.any(indices < first) or np.any(indices >= data.n_periods):
        raise IndexError("batch indices out of range for the window")
    panel = _feature_panel(data, config.include_open)  # (F, N, A)
    offsets = np.arange(-(config.window - 1), 1) * config.stride
    gather = indices[:, None] + offsets[None, :]  # (B, W)
    win = panel[:, gather, :]  # (F, B, W, A)
    latest_close = data.close[indices, :]  # (B, A)
    win = win / latest_close[None, :, None, :]
    return np.ascontiguousarray(win.transpose(1, 0, 3, 2))


def sdp_state(
    data: MarketData,
    t: int,
    w_prev: np.ndarray,
    config: ObservationConfig,
) -> np.ndarray:
    """Flat SDP state vector at decision index ``t``.

    Momentum block: per asset and horizon ``h``,
    ``clip(log_scale/√h · ln(close_t / close_{t−h}), −1, 1)`` — the √h
    scaling equalises the variance across horizons so every population
    sees a well-spread input.  Candle block: scaled log high/low/open
    ratios of period ``t``.  Weight block: ``2·w − 1`` maps the simplex
    into ``[-1, 1]``.
    """
    return sdp_state_batch(data, np.array([t]), w_prev[None, :], config)[0]


def sdp_asset_features_batch(
    data: MarketData,
    indices: np.ndarray,
    w_prev: np.ndarray,
    config: ObservationConfig,
) -> np.ndarray:
    """Per-asset feature matrix for the weight-shared SDP network.

    Returns shape ``(batch, n_assets, d)`` where each asset's row holds
    its multi-horizon momentum features, three candle-shape features,
    its own previous weight, and the previous cash weight — everything a
    shared spiking scorer needs, in ``[-1, 1]``.

    ``d == config.sdp_asset_feature_dim()``.
    """
    indices = np.asarray(indices, dtype=np.int64)
    first = config.first_decision_index()
    if np.any(indices < first) or np.any(indices >= data.n_periods):
        raise IndexError("batch indices out of range for the lookback")
    batch = indices.shape[0]
    w_prev = np.asarray(w_prev, dtype=np.float64)
    if w_prev.shape != (batch, data.n_assets + 1):
        raise ValueError(
            f"w_prev must have shape ({batch}, {data.n_assets + 1}), "
            f"got {w_prev.shape}"
        )

    # Fully vectorised over batch, horizon, and asset, gathering from
    # panels of logs cached on the MarketData (the seed re-logged the
    # whole close panel on every call).  Elementwise ops on the same
    # values — bit-identical features to the seed's per-column loop.
    horizons, scale = _momentum_scales(config.momentum_horizons, config.log_scale)
    n_h = horizons.shape[0]
    log_close = data.log_close_panel()
    ret = (
        log_close[indices][:, None, :]
        - log_close[indices[:, None] - horizons[None, :]]
    )  # (B, H, A)
    momentum = np.clip(scale * ret, -1.0, 1.0)

    candle = np.clip(
        config.log_scale * data.log_candle_panel()[indices], -1.0, 1.0
    )  # (B, A, 3)

    out = np.empty((batch, data.n_assets, n_h + 5))
    out[:, :, :n_h] = np.swapaxes(momentum, 1, 2)
    out[:, :, n_h : n_h + 3] = candle
    out[:, :, n_h + 3] = 2.0 * w_prev[:, 1:] - 1.0  # own previous weight
    # Previous cash weight (same for every asset).
    out[:, :, n_h + 4] = 2.0 * w_prev[:, :1] - 1.0
    return out


def sdp_state_batch(
    data: MarketData,
    indices: np.ndarray,
    w_prev: np.ndarray,
    config: ObservationConfig,
) -> np.ndarray:
    """Vectorised :func:`sdp_state`; ``w_prev`` has shape (batch, A+1)."""
    indices = np.asarray(indices, dtype=np.int64)
    first = config.first_decision_index()
    if np.any(indices < first) or np.any(indices >= data.n_periods):
        raise IndexError("batch indices out of range for the lookback")
    batch = indices.shape[0]
    w_prev = np.asarray(w_prev, dtype=np.float64)
    if w_prev.shape != (batch, data.n_assets + 1):
        raise ValueError(
            f"w_prev must have shape ({batch}, {data.n_assets + 1}), "
            f"got {w_prev.shape}"
        )

    # Vectorised over batch × horizon × asset, gathering from cached
    # log panels (bit-identical to per-horizon np.log over the full
    # panel — the log runs once per panel instead of once per call).
    horizons, scale = _momentum_scales(config.momentum_horizons, config.log_scale)
    log_close = data.log_close_panel()
    ret = (
        log_close[indices][:, None, :]
        - log_close[indices[:, None] - horizons[None, :]]
    )  # (B, H, A)
    blocks = [np.clip(scale * ret, -1.0, 1.0).reshape(batch, -1)]
    candle = data.log_candle_panel()[indices]  # (B, A, 3)
    blocks.append(
        np.clip(config.log_scale * candle, -1.0, 1.0).reshape(batch, -1)
    )
    blocks.append(2.0 * w_prev - 1.0)
    return np.concatenate(blocks, axis=1)


def sdp_state_perm_columns(
    perms: np.ndarray, config: ObservationConfig
) -> np.ndarray:
    """Column maps that apply asset permutations to flat SDP states.

    :func:`sdp_state_batch` concatenates a ``(H, A)`` momentum block, an
    ``(A, 3)`` candle block, and the ``A + 1`` previous weights (cash
    first).  Permuting the assets of the *panel* permutes those columns,
    so gathering ``states[:, cols[s]]`` is bit-identical to rebuilding
    the state on the permuted panel — every feature is per-asset
    elementwise.

    ``perms`` is an ``(S, A)`` array of permutations (S = 1 for one
    batch); returns the ``(S, sdp_state_dim(A))`` column indices.
    """
    perms = np.asarray(perms, dtype=np.int64)
    S, m = perms.shape
    n_h = len(config.momentum_horizons)
    momentum = (
        np.arange(n_h)[None, :, None] * m + perms[:, None, :]
    ).reshape(S, -1)
    candle = n_h * m + (
        perms[:, :, None] * 3 + np.arange(3)[None, None, :]
    ).reshape(S, -1)
    weights = (
        n_h * m
        + 3 * m
        + np.concatenate([np.zeros((S, 1), dtype=np.int64), 1 + perms], axis=1)
    )
    return np.concatenate([momentum, candle, weights], axis=1)
