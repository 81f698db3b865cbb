"""OHLCV panel container used throughout the reproduction.

:class:`MarketData` holds aligned open/high/low/close/volume arrays of
shape ``(n_periods, n_assets)`` plus period timestamps and asset names.
It is the only interface the environments, agents, and baselines see —
whether the panel came from the synthetic generator or the simulated
exchange API.
"""

from __future__ import annotations

import operator
import weakref
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from .regimes import format_date, parse_date


@dataclass
class MarketData:
    """Aligned OHLCV history for a set of assets.

    All price arrays have shape ``(n_periods, n_assets)``; ``timestamps``
    holds the *open* time of each period in UTC epoch seconds and is
    strictly increasing with a constant spacing of ``period_seconds``.
    """

    timestamps: np.ndarray
    names: List[str]
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray
    volume: np.ndarray
    period_seconds: int

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        for attr in ("open", "high", "low", "close", "volume"):
            setattr(self, attr, np.asarray(getattr(self, attr), dtype=np.float64))
        self.validate()

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural and OHLC consistency invariants."""
        n, m = self.close.shape
        if len(self.names) != m:
            raise ValueError(f"{len(self.names)} names for {m} asset columns")
        if self.timestamps.shape != (n,):
            raise ValueError("timestamps misaligned with price panel")
        for attr in ("open", "high", "low", "volume"):
            if getattr(self, attr).shape != (n, m):
                raise ValueError(f"{attr} misaligned with close panel")
        if n > 1:
            gaps = np.diff(self.timestamps)
            if not np.all(gaps == self.period_seconds):
                raise ValueError("timestamps must be evenly spaced by period_seconds")
        if np.any(self.low <= 0) or np.any(self.close <= 0):
            raise ValueError("prices must be strictly positive")
        if np.any(self.high < self.low):
            raise ValueError("high < low violates OHLC consistency")
        body_high = np.maximum(self.open, self.close)
        body_low = np.minimum(self.open, self.close)
        if np.any(self.high < body_high - 1e-9) or np.any(self.low > body_low + 1e-9):
            raise ValueError("high/low must bracket open/close")
        if np.any(self.volume < 0):
            raise ValueError("volume must be non-negative")

    # ------------------------------------------------------------------
    # Derived panels used by the observation builders on every decision.
    # Computed once per panel and cached, keyed by the *identity* of the
    # source arrays: assigning a replacement array (even same-shape)
    # invalidates the cache.  In-place mutation of price arrays is
    # unsupported — the repo treats panels as immutable after
    # construction.
    def _cached_panel(self, key: str, sources: tuple, build) -> np.ndarray:
        cache = self.__dict__.get(key)
        # The hit test runs per panel on every observation build, so it
        # uses map(is_): about half the cost of a generator expression.
        if (
            cache is not None
            and len(cache[0]) == len(sources)
            and all(map(operator.is_, cache[0], sources))
        ):
            return cache[1]
        # A permuted view (permute_assets) builds its panels by
        # permuting the parent's cached ones instead of recomputing —
        # bit-identical (the panels are elementwise per asset) and only
        # for the families actually consumed.
        seed = self.__dict__.get("_perm_seeds", {}).get(key)
        value = seed() if seed is not None else None
        if value is None:
            value = build()
        self.__dict__[key] = (sources, value)
        return value

    def log_close_panel(self) -> np.ndarray:
        """``ln(close)`` for the whole panel, cached."""
        return self._cached_panel(
            "_log_close_cache", (self.close,), lambda: np.log(self.close)
        )

    def feature_panel(self, include_open: bool = True) -> np.ndarray:
        """``(features, periods, assets)`` stack of close/high/low
        (+ open), cached — the EIIE price-tensor source."""
        feats = [self.close, self.high, self.low]
        if include_open:
            feats.append(self.open)
        return self._cached_panel(
            f"_feature_panel_cache_{include_open}",
            tuple(feats),
            lambda: np.stack(feats, axis=0),
        )

    def log_candle_panel(self) -> np.ndarray:
        """``(n_periods, n_assets, 3)`` of ``ln(high/close)``,
        ``ln(low/close)``, ``ln(open/close)``, cached."""
        return self._cached_panel(
            "_log_candle_cache",
            (self.high, self.low, self.open, self.close),
            lambda: np.log(
                np.stack([self.high, self.low, self.open], axis=2)
                / self.close[:, :, None]
            ),
        )

    # ------------------------------------------------------------------
    @property
    def n_periods(self) -> int:
        return self.close.shape[0]

    @property
    def n_assets(self) -> int:
        return self.close.shape[1]

    def index_at(self, when: Union[int, str]) -> int:
        """Index of the first period whose open time is >= ``when``.

        ``when`` may be an epoch second or a ``YYYY/MM/DD`` string.
        """
        epoch = parse_date(when) if isinstance(when, str) else int(when)
        idx = int(np.searchsorted(self.timestamps, epoch, side="left"))
        if idx >= self.n_periods:
            raise IndexError(
                f"{format_date(epoch)} is beyond the last period "
                f"({format_date(int(self.timestamps[-1]))})"
            )
        return idx

    def slice_time(
        self, start: Union[int, str, None] = None, end: Union[int, str, None] = None
    ) -> "MarketData":
        """Sub-panel covering ``[start, end)`` (dates or epochs)."""
        lo = 0 if start is None else self.index_at(start)
        if end is None:
            hi = self.n_periods
        else:
            epoch = parse_date(end) if isinstance(end, str) else int(end)
            hi = int(np.searchsorted(self.timestamps, epoch, side="left"))
        if hi <= lo:
            raise ValueError(f"empty time slice [{start}, {end})")
        return self._take(slice(lo, hi), list(range(self.n_assets)))

    def select_assets(self, which: Sequence[Union[int, str]]) -> "MarketData":
        """Sub-panel with the requested assets (by index or name)."""
        indices = []
        for w in which:
            if isinstance(w, str):
                try:
                    indices.append(self.names.index(w))
                except ValueError:
                    raise KeyError(f"unknown asset {w!r}") from None
            else:
                indices.append(int(w))
        return self._take(slice(None), indices)

    def _take(self, rows: slice, cols: List[int]) -> "MarketData":
        return MarketData(
            timestamps=self.timestamps[rows].copy(),
            names=[self.names[i] for i in cols],
            open=self.open[rows][:, cols].copy(),
            high=self.high[rows][:, cols].copy(),
            low=self.low[rows][:, cols].copy(),
            close=self.close[rows][:, cols].copy(),
            volume=self.volume[rows][:, cols].copy(),
            period_seconds=self.period_seconds,
        )

    def permute_assets(self, perm: Sequence[int]) -> "MarketData":
        """Column-permuted panel, optimised for per-step augmentation.

        Equivalent to ``select_assets(perm)`` when ``perm`` is a
        permutation of all asset indices, but skips the full-panel
        re-validation (a column permutation of a valid panel is valid)
        and seeds the derived-panel caches by permuting this panel's
        cached ones — ``ln(close)[:, perm]`` is bit-identical to
        ``ln(close[:, perm])`` since the panels are elementwise, so the
        whole-panel logs run once per panel instead of once per train
        step.  The trainer's asset-permutation augmentation calls this
        every minibatch.
        """
        perm = np.asarray(perm, dtype=np.int64)
        m = self.n_assets
        if perm.shape != (m,) or not np.array_equal(
            np.sort(perm), np.arange(m)
        ):
            raise ValueError(
                f"perm must be a permutation of all {m} asset indices"
            )
        view = object.__new__(MarketData)
        view.timestamps = self.timestamps
        view.names = [self.names[i] for i in perm]
        view.open = self.open[:, perm]
        view.high = self.high[:, perm]
        view.low = self.low[:, perm]
        view.close = self.close[:, perm]
        view.volume = self.volume[:, perm]
        view.period_seconds = self.period_seconds
        # Lazy cache seeds: when the view is asked for a derived panel,
        # _cached_panel builds it by permuting this (parent) panel's —
        # warming the parent once, then one asset-axis gather per view
        # for exactly the families the consumer reads.  The parent is
        # held weakly so a long-lived view does not pin it; if the
        # parent is gone the view simply computes its own panels.
        parent_ref = weakref.ref(self)

        def _seed(getter, take):
            def build_from_parent():
                parent = parent_ref()
                return None if parent is None else take(getter(parent))

            return build_from_parent

        view.__dict__["_perm_seeds"] = {
            "_log_close_cache": _seed(
                MarketData.log_close_panel, lambda p: p[:, perm]
            ),
            "_log_candle_cache": _seed(
                MarketData.log_candle_panel, lambda p: p[:, perm, :]
            ),
            "_feature_panel_cache_True": _seed(
                lambda d: d.feature_panel(True), lambda p: p[:, :, perm]
            ),
            "_feature_panel_cache_False": _seed(
                lambda d: d.feature_panel(False), lambda p: p[:, :, perm]
            ),
        }
        return view

    # ------------------------------------------------------------------
    def price_relatives(self, include_cash: bool = False) -> np.ndarray:
        """Price-relative vectors y_t = close_t / close_{t-1}.

        Shape ``(n_periods - 1, n_assets)`` — row ``t`` relates period
        ``t+1`` to period ``t``.  With ``include_cash`` a constant-1
        column is prepended (the paper's cash asset).
        """
        rel = self.close[1:] / self.close[:-1]
        if include_cash:
            rel = np.concatenate([np.ones((rel.shape[0], 1)), rel], axis=1)
        return rel

    def log_returns(self) -> np.ndarray:
        """Per-period close-to-close log returns, shape (n-1, m)."""
        return np.log(self.close[1:] / self.close[:-1])

    def rolling_volume(self, window_periods: int) -> np.ndarray:
        """Trailing volume sums (same shape as ``volume``; NaN-free).

        Entry ``[t, i]`` is the volume of asset ``i`` over the window
        ending at (and including) period ``t``, truncated at history
        start.
        """
        if window_periods <= 0:
            raise ValueError("window_periods must be positive")
        csum = np.concatenate(
            [np.zeros((1, self.n_assets)), np.cumsum(self.volume, axis=0)]
        )
        start = np.maximum(np.arange(self.n_periods) + 1 - window_periods, 0)
        return csum[1:] - csum[start]

    def adv_panel(self, window_periods: Optional[int] = None) -> np.ndarray:
        """Trailing *average* per-period volume, cached per window.

        Entry ``[t, i]`` is asset ``i``'s mean volume over the
        ``window_periods`` periods ending at (and including) ``t``
        (expanding at history start) — the per-period tradable-volume
        input the execution layer's impact models consume.  Default
        window: one day of periods.  Sits on the back-test/serving hot
        path, hence the per-window cache.
        """
        if window_periods is None:
            window_periods = max(int(86_400 / self.period_seconds), 1)
        if window_periods <= 0:
            raise ValueError("window_periods must be positive")
        counts = np.minimum(
            np.arange(1, self.n_periods + 1), window_periods
        )[:, None]
        return self._cached_panel(
            f"_adv_panel_cache_{window_periods}",
            (self.volume,),
            lambda: self.rolling_volume(window_periods) / counts,
        )

    def resample(self, factor: int) -> "MarketData":
        """Aggregate ``factor`` consecutive periods into one candle."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        if factor == 1:
            return self
        n = (self.n_periods // factor) * factor
        if n == 0:
            raise ValueError("not enough periods to resample")

        def group(x: np.ndarray) -> np.ndarray:
            return x[:n].reshape(-1, factor, self.n_assets)

        return MarketData(
            timestamps=self.timestamps[:n:factor].copy(),
            names=list(self.names),
            open=group(self.open)[:, 0, :],
            high=group(self.high).max(axis=1),
            low=group(self.low).min(axis=1),
            close=group(self.close)[:, -1, :],
            volume=group(self.volume).sum(axis=1),
            period_seconds=self.period_seconds * factor,
        )

    def __repr__(self) -> str:
        span = (
            f"{format_date(int(self.timestamps[0]))}–"
            f"{format_date(int(self.timestamps[-1]))}"
            if self.n_periods
            else "empty"
        )
        return (
            f"MarketData({self.n_assets} assets × {self.n_periods} periods, "
            f"{self.period_seconds}s candles, {span})"
        )


def unvalidated_market(
    timestamps: np.ndarray,
    names: List[str],
    open: np.ndarray,  # noqa: A002 - mirrors the dataclass field
    high: np.ndarray,
    low: np.ndarray,
    close: np.ndarray,
    volume: np.ndarray,
    period_seconds: int,
) -> MarketData:
    """Construct a :class:`MarketData` *without* running validation.

    The escape hatch the resilience layer needs in exactly two places:
    :func:`repro.resilience.faults.corrupt_panel` building a
    deliberately malformed feed, and
    :func:`repro.data.validation.validate_panel` assembling
    intermediate grids while repairing one.  Everything else must go
    through the validating constructor — a panel built here may violate
    every invariant the rest of the repo assumes.
    """
    data = object.__new__(MarketData)
    data.timestamps = np.asarray(timestamps, dtype=np.int64)
    data.names = list(names)
    data.open = np.asarray(open, dtype=np.float64)
    data.high = np.asarray(high, dtype=np.float64)
    data.low = np.asarray(low, dtype=np.float64)
    data.close = np.asarray(close, dtype=np.float64)
    data.volume = np.asarray(volume, dtype=np.float64)
    data.period_seconds = int(period_seconds)
    return data


# ----------------------------------------------------------------------
# npz-friendly (de)serialisation — the single representation used by
# serving checkpoints and the experiment artifact store.


def market_to_state(data: MarketData) -> dict:
    """Flatten a panel into an npz-compatible dict of arrays."""
    return {
        "timestamps": data.timestamps,
        "open": data.open,
        "high": data.high,
        "low": data.low,
        "close": data.close,
        "volume": data.volume,
        "period_seconds": np.array(data.period_seconds, dtype=np.int64),
        "names": np.array([str(n) for n in data.names]),
    }


def market_from_state(state: dict) -> MarketData:
    """Rebuild a panel from :func:`market_to_state` output."""
    return MarketData(
        timestamps=state["timestamps"],
        names=[str(n) for n in state["names"]],
        open=state["open"],
        high=state["high"],
        low=state["low"],
        close=state["close"],
        volume=state["volume"],
        period_seconds=int(state["period_seconds"]),
    )
