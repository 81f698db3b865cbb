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

Each builder has a rows form (``*_rows``) over ``(panel, t, w_prev)``
rows drawn from several panels, which a lockstep back-test or a serving
round calls once per decision period: each row's window is gathered
from its own panel's cached panels, and the arithmetic runs once over
the batch.  The single-panel ``*_batch`` functions are its one-panel
case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..data.market import MarketData


@lru_cache(maxsize=128)
def _momentum_scales(
    horizons: Tuple[int, ...], log_scale: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Cached per-config gather lags ``(0, −h_1, …, −h_H)`` and
    ``(1, H, 1)`` scales."""
    h = np.asarray(horizons, dtype=np.int64)
    return np.concatenate([[0], -h]), (log_scale / np.sqrt(h))[None, :, None]

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


def _check_rows(
    panels: Sequence[MarketData],
    which: np.ndarray,
    indices: np.ndarray,
    first: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate a batch of ``(panel, t)`` rows once for the whole batch.

    Row ``k`` is ``panels[which[k]]`` at decision index ``indices[k]``;
    every index must lie in ``[first, n_periods)`` of its *own* panel,
    and the panels must share one asset count.  Returns ``(which,
    indices)`` as int64 arrays.
    """
    which = np.asarray(which, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    if indices.ndim != 1 or which.shape != indices.shape:
        raise ValueError(
            f"which and indices must be matching 1-D arrays, got shapes "
            f"{which.shape} and {indices.shape}"
        )
    n = len(panels)
    if which.any() if n == 1 else ((which < 0) | (which >= n)).any():
        raise IndexError(f"panel numbers out of range for {n} panels")
    if n == 1:
        ends = panels[0].n_periods
    else:
        if len({p.n_assets for p in panels}) != 1:
            raise ValueError("panels disagree on the number of assets")
        ends = np.array([p.n_periods for p in panels])[which]
    if ((indices < first) | (indices >= ends)).any():
        raise IndexError("row indices out of range for the lookback")
    return which, indices


def check_w_prev(w_prev: np.ndarray, batch: int, n_assets: int) -> np.ndarray:
    """``w_prev`` as a float64 ``(batch, n_assets + 1)`` array, or
    :class:`ValueError`."""
    w_prev = np.asarray(w_prev, dtype=np.float64)
    if w_prev.shape != (batch, n_assets + 1):
        raise ValueError(
            f"w_prev must have shape ({batch}, {n_assets + 1}), "
            f"got {w_prev.shape}"
        )
    return w_prev


def _gather_rows(
    panels: Sequence[MarketData],
    which: np.ndarray,
    gathers: Sequence[Tuple[Callable[[MarketData], np.ndarray], np.ndarray]],
) -> List[np.ndarray]:
    """For each ``(source, sel)`` in ``gathers``, the batch whose row
    ``k`` is ``source(panels[which[k]])[sel[k]]``.

    ``source`` returns a panel's cached time-first array and ``sel``
    holds each row's period indices.  Rows are ranked by panel once;
    each distinct panel then takes one fancy-index gather per source,
    and one take restores the caller's order.  Work scales with the
    rows, never with the length of a panel.
    """
    if len(panels) == 1 or len(which) == 0:
        return [source(panels[0])[sel] for source, sel in gathers]
    order = np.argsort(which, kind="stable")
    ranked = which[order]
    starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    spans = list(
        zip(
            ranked[starts].tolist(),
            starts.tolist(),
            starts[1:].tolist() + [len(order)],
        )
    )
    restore = np.argsort(order)
    out = []
    for source, sel in gathers:
        sel = sel[order]
        parts = [source(panels[p])[sel[lo:hi]] for p, lo, hi in spans]
        out.append(np.concatenate(parts)[restore])
    return out


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
    return price_tensor_rows([data], np.zeros_like(indices), indices, config)


def price_tensor_rows(
    panels: Sequence[MarketData],
    which: np.ndarray,
    indices: np.ndarray,
    config: ObservationConfig,
) -> np.ndarray:
    """:func:`price_tensor_batch` over ``(panel, t)`` rows: row ``k`` is
    ``panels[which[k]]`` at ``indices[k]``, in the caller's order."""
    which, indices = _check_rows(
        panels, which, indices, config.first_decision_index()
    )
    offsets = np.arange(-(config.window - 1), 1) * config.stride
    (win,) = _gather_rows(
        panels,
        which,
        [(
            # (periods, features, assets) view of the cached feature panel.
            lambda d: d.feature_panel(config.include_open).transpose(1, 0, 2),
            indices[:, None] + offsets[None, :],
        )],
    )  # (B, W, F, A)
    latest_close = win[:, -1, 0, :]  # close (feature 0) at t: (B, A)
    win = win / latest_close[:, None, None, :]
    return np.ascontiguousarray(win.transpose(0, 2, 3, 1))


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


def _sdp_blocks(
    panels: Sequence[MarketData],
    which: np.ndarray,
    indices: np.ndarray,
    w_prev: np.ndarray,
    config: ObservationConfig,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The SDP feature formula, written once for both layouts.

    Returns the clipped momentum ``(B, H, A)``, the clipped candle
    shape ``(B, A, 3)`` and the mapped weights ``2·w − 1`` ``(B, A+1)``.
    Each row's windows come from its own panel's cached log panels;
    the arithmetic then runs once over the whole batch.
    """
    which, indices = _check_rows(
        panels, which, indices, config.first_decision_index()
    )
    w_prev = check_w_prev(w_prev, len(indices), panels[0].n_assets)
    lags, scale = _momentum_scales(config.momentum_horizons, config.log_scale)
    log_close, candle = _gather_rows(
        panels,
        which,
        [
            # (B, 1 + H, A): ln close at t, then at t − h per horizon.
            (MarketData.log_close_panel, indices[:, None] + lags[None, :]),
            (MarketData.log_candle_panel, indices),  # (B, A, 3)
        ],
    )
    momentum = np.clip(scale * (log_close[:, :1] - log_close[:, 1:]), -1.0, 1.0)
    candle = np.clip(config.log_scale * candle, -1.0, 1.0)
    return momentum, candle, 2.0 * w_prev - 1.0


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
    return sdp_asset_features_rows(
        [data], np.zeros_like(indices), indices, w_prev, config
    )


def sdp_asset_features_rows(
    panels: Sequence[MarketData],
    which: np.ndarray,
    indices: np.ndarray,
    w_prev: np.ndarray,
    config: ObservationConfig,
) -> np.ndarray:
    """:func:`sdp_asset_features_batch` over ``(panel, t, w_prev)``
    rows: row ``k`` is ``panels[which[k]]`` at ``indices[k]``."""
    momentum, candle, weights = _sdp_blocks(panels, which, indices, w_prev, config)
    batch, n_h, n_assets = momentum.shape
    out = np.empty((batch, n_assets, n_h + 5))
    out[:, :, :n_h] = np.swapaxes(momentum, 1, 2)
    out[:, :, n_h : n_h + 3] = candle
    out[:, :, n_h + 3] = weights[:, 1:]  # own previous weight
    # Previous cash weight (same for every asset).
    out[:, :, n_h + 4] = weights[:, :1]
    return out


def sdp_state_batch(
    data: MarketData,
    indices: np.ndarray,
    w_prev: np.ndarray,
    config: ObservationConfig,
) -> np.ndarray:
    """Vectorised :func:`sdp_state`; ``w_prev`` has shape (batch, A+1)."""
    indices = np.asarray(indices, dtype=np.int64)
    return sdp_state_rows([data], np.zeros_like(indices), indices, w_prev, config)


def sdp_state_rows(
    panels: Sequence[MarketData],
    which: np.ndarray,
    indices: np.ndarray,
    w_prev: np.ndarray,
    config: ObservationConfig,
) -> np.ndarray:
    """:func:`sdp_state_batch` over ``(panel, t, w_prev)`` rows: row
    ``k`` is ``panels[which[k]]`` at ``indices[k]``."""
    momentum, candle, weights = _sdp_blocks(panels, which, indices, w_prev, config)
    batch = len(weights)
    return np.concatenate(
        [momentum.reshape(batch, -1), candle.reshape(batch, -1), weights], axis=1
    )


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
