"""Portfolio-performance metrics (§III.A of the paper).

Implements the paper's three headline metrics —

* **fAPV** (eq. (15)): final accumulated portfolio value ``p_f / p_0``;
* **Sharpe ratio** (eq. (16)): mean excess periodic return over its
  standard deviation (per-period, as the paper reports — the small
  magnitudes in Table 3 are un-annualised 30-minute Sharpe values);
* **MDD** (eq. (17)): maximum drawdown, the largest peak-to-trough loss

— plus the companion statistics any portfolio study needs (Sortino,
Calmar, annualised volatility, turnover, hit rate).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..data.regimes import SECONDS_PER_YEAR

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _values_array(values: Sequence[float]) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size < 2:
        raise ValueError("need a 1-D value series with at least two points")
    if np.any(v <= 0):
        raise ValueError("portfolio values must be strictly positive")
    return v


def final_apv(values: Sequence[float]) -> float:
    """fAPV = p_f / p_0 (eq. (15))."""
    v = _values_array(values)
    return float(v[-1] / v[0])


def periodic_returns(values: Sequence[float]) -> np.ndarray:
    """Simple per-period returns ρ_t = p_t / p_{t−1} − 1."""
    v = _values_array(values)
    return v[1:] / v[:-1] - 1.0


def sharpe_ratio(
    values: Sequence[float], risk_free_rate: float = 0.0, ddof: int = 1
) -> float:
    """Per-period Sharpe ratio (eq. (16)).

    ``risk_free_rate`` is the per-period risk-free return p_f of the
    paper's eq. (16) (zero for crypto back-tests, as is standard).
    Returns 0 for a zero-variance series (flat portfolio).
    """
    excess = periodic_returns(values) - risk_free_rate
    std = excess.std(ddof=ddof) if excess.size > 1 else 0.0
    # Treat numerically-flat series (std at float-epsilon scale) as
    # zero-variance: a constant-return portfolio has no defined Sharpe.
    if std <= 1e-12 * max(1.0, float(np.abs(excess).max(initial=0.0))):
        return 0.0
    return float(excess.mean() / std)


def max_drawdown(values: Sequence[float]) -> float:
    """Maximum drawdown (eq. (17)): max over t of (peak_t − p_τ)/peak_t.

    Returned as a positive fraction in [0, 1); 0 for a monotonically
    non-decreasing series.
    """
    v = _values_array(values)
    running_peak = np.maximum.accumulate(v)
    drawdowns = (running_peak - v) / running_peak
    return float(drawdowns.max())


def sortino_ratio(values: Sequence[float], risk_free_rate: float = 0.0) -> float:
    """Mean excess return over downside deviation (0 if no downside)."""
    excess = periodic_returns(values) - risk_free_rate
    downside = excess[excess < 0]
    if downside.size == 0:
        return float("inf") if excess.mean() > 0 else 0.0
    denom = np.sqrt((downside ** 2).mean())
    if denom == 0.0:
        return 0.0
    return float(excess.mean() / denom)


def annualized_volatility(
    values: Sequence[float], period_seconds: int
) -> float:
    """Std of periodic returns scaled to one year."""
    if period_seconds <= 0:
        raise ValueError("period_seconds must be positive")
    rets = periodic_returns(values)
    periods_per_year = SECONDS_PER_YEAR / period_seconds
    return float(rets.std(ddof=1) * np.sqrt(periods_per_year)) if rets.size > 1 else 0.0


def calmar_ratio(values: Sequence[float], period_seconds: int) -> float:
    """Annualised return over maximum drawdown.

    The annual return ``(p_f / p_0)^(1/years) − 1`` is computed in log
    space; a short, high-growth window whose annualised growth exceeds
    the float range yields ``inf`` instead of an overflow.
    """
    v = _values_array(values)
    years = (v.size - 1) * period_seconds / SECONDS_PER_YEAR
    if years <= 0:
        return 0.0
    log_annual = float(np.log(v[-1]) - np.log(v[0])) / years
    if log_annual > _LOG_FLOAT_MAX:
        annual_return = float("inf")
    else:
        annual_return = math.expm1(log_annual)
    mdd = max_drawdown(values)
    if mdd == 0.0:
        return float("inf") if annual_return > 0 else 0.0
    return float(annual_return / mdd)


def turnover(weights: np.ndarray) -> float:
    """Average one-step L1 weight change (rebalancing intensity)."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] < 2:
        return 0.0
    return float(np.abs(np.diff(w, axis=0)).sum(axis=1).mean())


def turnover_series(weights: np.ndarray) -> np.ndarray:
    """Per-decision L1 weight changes ``‖w_t − w_{t−1}‖₁``.

    The series :func:`turnover` averages — what a
    :class:`~repro.risk.TurnoverBudget` bounds decision by decision, so
    budget compliance is checkable pointwise: under a budget ``τ``
    every entry is ``<= τ`` (up to float epsilon).  A ``(T, N)`` weight
    matrix yields ``T − 1`` entries; fewer than two rows yield an empty
    array.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError(f"weights must be 2-D (T, N), got shape {w.shape}")
    if w.shape[0] < 2:
        return np.empty(0, dtype=np.float64)
    return np.abs(np.diff(w, axis=0)).sum(axis=1)


def max_drawdown_duration(values: Sequence[float]) -> int:
    """Longest stretch of consecutive periods spent below a prior peak.

    The time dimension :func:`max_drawdown` ignores: how long the
    portfolio stayed underwater, in periods.  A new all-time high ends
    the stretch; 0 for a monotonically non-decreasing series.  (A
    :class:`~repro.risk.DrawdownLockout` shows up here as lockout
    periods extending the underwater stretch.)
    """
    v = _values_array(values)
    running_peak = np.maximum.accumulate(v)
    underwater = v < running_peak
    longest = current = 0
    for below in underwater:
        current = current + 1 if below else 0
        longest = max(longest, current)
    return int(longest)


def constraint_violation_rate(binding_history: Sequence[Dict[str, bool]]) -> float:
    """Fraction of decisions on which at least one constraint bound.

    ``binding_history`` is a per-decision sequence of
    ``{constraint_name: bound}`` masks — exactly what
    ``PortfolioEnv.risk_binding_history`` records.  Returns 0.0 for an
    empty history (no decisions, or no risk engine).
    """
    if not binding_history:
        return 0.0
    violated = sum(1 for binding in binding_history if any(binding.values()))
    return violated / len(binding_history)


def hit_rate(values: Sequence[float]) -> float:
    """Fraction of periods with positive return."""
    rets = periodic_returns(values)
    return float((rets > 0).mean())


def implementation_shortfall(
    values: Sequence[float], ideal_values: Sequence[float]
) -> float:
    """Fraction of terminal wealth lost to execution frictions.

    ``values`` is the realized trajectory (impact, partial fills);
    ``ideal_values`` the commission-only benchmark trajectory of the
    *same decision stream* (Perold's paper portfolio).  Returns
    ``1 − (values_f/values_0) / (ideal_f/ideal_0)`` — 0 under ideal
    execution, positive when frictions cost wealth.
    """
    actual = _values_array(values)
    ideal = _values_array(ideal_values)
    if actual.shape != ideal.shape:
        raise ValueError(
            f"trajectories must align, got {actual.shape} vs {ideal.shape}"
        )
    return float(1.0 - (actual[-1] / actual[0]) / (ideal[-1] / ideal[0]))


@dataclass(frozen=True)
class BacktestMetrics:
    """The paper's Table 3 metric triple plus companions."""

    fapv: float
    sharpe: float
    mdd: float
    sortino: float
    calmar: float
    annual_volatility: float
    hit_rate: float
    num_periods: int

    def as_dict(self) -> Dict[str, float]:
        return {
            "fAPV": self.fapv,
            "Sharpe": self.sharpe,
            "MDD": self.mdd,
            "Sortino": self.sortino,
            "Calmar": self.calmar,
            "AnnVol": self.annual_volatility,
            "HitRate": self.hit_rate,
            "Periods": self.num_periods,
        }


def evaluate_backtest(
    values: Sequence[float],
    period_seconds: int,
    risk_free_rate: float = 0.0,
) -> BacktestMetrics:
    """Compute the full metric set for a portfolio value trajectory."""
    v = _values_array(values)
    return BacktestMetrics(
        fapv=final_apv(v),
        sharpe=sharpe_ratio(v, risk_free_rate),
        mdd=max_drawdown(v),
        sortino=sortino_ratio(v, risk_free_rate),
        calmar=calmar_ratio(v, period_seconds),
        annual_volatility=annualized_volatility(v, period_seconds),
        hit_rate=hit_rate(v),
        num_periods=int(v.size - 1),
    )
