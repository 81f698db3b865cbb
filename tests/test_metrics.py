"""Unit tests for performance metrics (eqs. (15)-(17))."""

import warnings

import numpy as np
import pytest

from repro.data.regimes import SECONDS_PER_YEAR
from repro.metrics import (
    annualized_volatility,
    calmar_ratio,
    evaluate_backtest,
    final_apv,
    hit_rate,
    max_drawdown,
    periodic_returns,
    sharpe_ratio,
    sortino_ratio,
    turnover,
)


class TestFAPV:
    def test_doubling(self):
        assert final_apv([1.0, 1.5, 2.0]) == 2.0

    def test_start_normalisation(self):
        assert final_apv([50.0, 100.0]) == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            final_apv([1.0])
        with pytest.raises(ValueError):
            final_apv([1.0, -1.0])


class TestSharpe:
    def test_constant_growth_zero_variance(self):
        # Identical returns -> zero std -> defined as 0.
        assert sharpe_ratio([1.0, 1.1, 1.21]) == 0.0

    def test_known_series(self):
        values = [1.0, 1.1, 1.045, 1.1495]
        rets = periodic_returns(values)
        expected = rets.mean() / rets.std(ddof=1)
        assert sharpe_ratio(values) == pytest.approx(expected)

    def test_risk_free_shifts(self):
        values = [1.0, 1.02, 1.01, 1.05]
        assert sharpe_ratio(values, risk_free_rate=0.01) < sharpe_ratio(values)

    def test_sign(self):
        up = [1.0, 1.1, 1.15, 1.3, 1.35]
        down = [1.0, 0.9, 0.85, 0.7, 0.68]
        assert sharpe_ratio(up) > 0 > sharpe_ratio(down)


class TestMDD:
    def test_monotone_has_zero(self):
        assert max_drawdown([1.0, 1.1, 1.2, 1.3]) == 0.0

    def test_known_drawdown(self):
        # Peak 2.0 -> trough 1.0: MDD = 0.5.
        assert max_drawdown([1.0, 2.0, 1.0, 1.5]) == pytest.approx(0.5)

    def test_uses_running_peak(self):
        # Later smaller dip from a higher peak.
        values = [1.0, 2.0, 1.8, 3.0, 2.4]
        assert max_drawdown(values) == pytest.approx(0.2)

    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = np.exp(np.cumsum(rng.normal(0, 0.1, 50)))
            mdd = max_drawdown(v)
            assert 0.0 <= mdd < 1.0


class TestOtherMetrics:
    def test_sortino_no_downside(self):
        assert sortino_ratio([1.0, 1.1, 1.2]) == float("inf")

    def test_sortino_sign(self):
        assert sortino_ratio([1.0, 0.9, 0.95, 0.8]) < 0

    def test_annualized_volatility_scaling(self):
        values = [1.0, 1.01, 0.99, 1.02, 1.0, 1.01]
        hourly = annualized_volatility(values, 3600)
        daily = annualized_volatility(values, 86400)
        assert hourly > daily  # finer periods annualise to more vol

    def test_calmar_no_drawdown(self):
        assert calmar_ratio([1.0, 1.1, 1.2], 86400) == float("inf")

    def test_calmar_short_high_growth_window_does_not_overflow(self):
        # Two hourly periods of 10% growth annualise past the float
        # range; the ratio is +inf, with no overflow warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert calmar_ratio([1.0, 1.1, 1.2], 3600) == float("inf")
            assert calmar_ratio([1.0, 1.3, 1.2], 3600) == float("inf")
            assert evaluate_backtest([1.0, 1.1, 1.2], 3600).calmar == float("inf")

    def test_calmar_matches_power_formula(self):
        values = [1.0, 1.1, 0.99, 1.2]
        years = 3 * 86400 * 30 / SECONDS_PER_YEAR
        expected = (1.2 ** (1.0 / years) - 1.0) / max_drawdown(values)
        assert calmar_ratio(values, 86400 * 30) == pytest.approx(expected)

    def test_turnover(self):
        w = np.array([[0.5, 0.5], [0.0, 1.0], [0.0, 1.0]])
        assert turnover(w) == pytest.approx(0.5)  # (1.0 + 0.0) / 2

    def test_hit_rate(self):
        values = [1.0, 1.1, 1.05, 1.2]
        assert hit_rate(values) == pytest.approx(2.0 / 3.0)


class TestEvaluateBacktest:
    def test_fields_consistent(self):
        rng = np.random.default_rng(1)
        values = np.exp(np.cumsum(rng.normal(0.001, 0.02, 200)))
        values = np.concatenate([[1.0], values])
        m = evaluate_backtest(values, period_seconds=7200)
        assert m.fapv == pytest.approx(final_apv(values))
        assert m.mdd == pytest.approx(max_drawdown(values))
        assert m.sharpe == pytest.approx(sharpe_ratio(values))
        assert m.num_periods == 200

    def test_as_dict_keys(self):
        m = evaluate_backtest([1.0, 1.1, 1.2], 3600)
        assert {"fAPV", "Sharpe", "MDD"} <= set(m.as_dict())
