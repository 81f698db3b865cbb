"""The execution engine: target weights → realized fills.

``ExecutionEngine`` is the layer between a strategy's decision and the
portfolio it actually ends up holding.  Given the drifted pre-trade
weights ``w'_t``, the requested target ``w_t``, the portfolio value and
the decision period's tradable volume, it:

1. applies the model's per-asset participation caps (partial fills —
   capped buys are additionally limited by the cash actually available
   from starting cash plus realized sale proceeds, so a capped sell can
   never fund a leveraged buy);
2. charges the exact commission remainder μ_t
   (:func:`~repro.envs.costs.transaction_remainders_exact`) on the
   *executed* rebalance;
3. charges the model's impact cost on each executed trade's
   participation, shrinking μ_t further.

The zero-cost invariant: with :class:`~repro.execution.models.ZeroSlippage`
(no caps, zero rates) the executed weights are the target array itself
and the returned μ_t is bit-identical to the commission-only fixed
point — the whole execution layer is a numerical no-op, which is what
the parity tests in ``tests/test_execution.py`` gate.

Portfolio notional
------------------
Back-tests normalise the portfolio to value 1, but impact depends on
*money*: ``portfolio_notional`` is the assumed real size (quote units)
of a portfolio of value 1.0, so participation is
``|Δw| · value · notional / tradable_volume``.  Sweeping it answers
"at what AUM do the paper's fAPVs stop surviving execution?".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..data.market import MarketData
from ..envs.costs import DEFAULT_COMMISSION, transaction_remainders_exact
from .models import SlippageModel, ZeroSlippage

__all__ = ["ExecutionEngine", "ExecutionFill", "FillRound"]

# Volume floor: a dead market (zero printed volume) reads as "one quote
# unit per period" rather than a division by zero; any realistic trade
# against it then saturates participation (and the cap, if any).
_MIN_VOLUME = 1e-12


@dataclass
class ExecutionFill:
    """Outcome of executing one rebalance.

    ``weights`` are the post-trade target actually achieved (equal to
    the requested target under full fills); ``mu`` the total value
    remainder (commission × impact); ``ideal_mu`` the commission-only
    remainder of the *requested* full-fill rebalance — the benchmark
    implementation shortfall is measured against.
    """

    weights: np.ndarray
    mu: float
    commission_mu: float
    ideal_mu: float
    slippage_cost: float
    fill_ratio: float


@dataclass
class FillRound:
    """Outcome of executing a ``(batch, N)`` round of rebalances: row
    ``i`` of every array is what :class:`ExecutionFill` says about
    rebalance ``i``."""

    weights: np.ndarray
    mu: np.ndarray
    commission_mu: np.ndarray
    ideal_mu: np.ndarray
    slippage_cost: np.ndarray
    fill_ratio: np.ndarray


class ExecutionEngine:
    """Prices and (partially) fills rebalances against market liquidity.

    Parameters
    ----------
    model:
        The slippage model (default :class:`ZeroSlippage` — exact
        commission-only behaviour).
    commission:
        Per-side commission rate for the exact μ_t fixed point.
    portfolio_notional:
        Quote-unit size of a value-1.0 portfolio (see module docs).
    adv_window_days:
        Trailing window of :meth:`~repro.data.market.MarketData.adv_panel`
        used as the per-period tradable volume.
    """

    def __init__(
        self,
        model: Optional[SlippageModel] = None,
        commission: float = DEFAULT_COMMISSION,
        portfolio_notional: float = 1e6,
        adv_window_days: float = 1.0,
    ):
        if portfolio_notional <= 0:
            raise ValueError("portfolio_notional must be positive")
        if adv_window_days <= 0:
            raise ValueError("adv_window_days must be positive")
        self.model: SlippageModel = model if model is not None else ZeroSlippage()
        self.commission = float(commission)
        self.portfolio_notional = float(portfolio_notional)
        self.adv_window_days = float(adv_window_days)

    @property
    def is_free(self) -> bool:
        """True when this engine provably never alters the trade — the
        hook serving's fast path keys on."""
        return self.model.is_free

    # ------------------------------------------------------------------
    def tradable_volume(self, data: MarketData, t) -> np.ndarray:
        """Per-asset tradable volume of decision period ``t`` (quote
        units): the panel's trailing ADV, floored away from zero.  An
        index array ``t`` returns one row per index."""
        window = max(
            int(self.adv_window_days * 86_400 / data.period_seconds), 1
        )
        return np.maximum(data.adv_panel(window)[t], _MIN_VOLUME)

    # ------------------------------------------------------------------
    def execute(
        self,
        w_drifted: np.ndarray,
        w_target: np.ndarray,
        value: float,
        volume: np.ndarray,
    ) -> ExecutionFill:
        """Fill one rebalance: ``w'_t`` → target, against ``volume``.

        ``w_drifted``/``w_target`` are simplex weight vectors (cash
        first); ``volume`` the per-asset tradable volume (quote units)
        of the decision period; ``value`` the current portfolio value in
        back-test units (scaled by ``portfolio_notional`` internally).
        The batch-1 front of :meth:`execute_batch`: under full fills the
        returned weights are the target array itself.
        """
        target = np.asarray(w_target, dtype=np.float64)
        out = self.execute_batch(
            np.asarray(w_drifted, dtype=np.float64)[None, :],
            target[None, :],
            np.array([float(value)]),
            np.asarray(volume, dtype=np.float64)[None, :],
        )
        return ExecutionFill(
            weights=target if self.model.participation_cap is None else out.weights[0],
            mu=float(out.mu[0]),
            commission_mu=float(out.commission_mu[0]),
            ideal_mu=float(out.ideal_mu[0]),
            slippage_cost=float(out.slippage_cost[0]),
            fill_ratio=float(out.fill_ratio[0]),
        )

    def execute_batch(
        self,
        w_drifted: np.ndarray,
        w_target: np.ndarray,
        values: np.ndarray,
        volume: np.ndarray,
    ) -> FillRound:
        """Fill a ``(batch, N)`` round of rebalances at once.

        ``values`` are the rows' portfolio values and ``volume`` their
        ``(batch, n_assets)`` tradable volumes.  Without a participation
        cap the executed weights are the target array itself.
        """
        w_prime = np.asarray(w_drifted, dtype=np.float64)
        target = np.asarray(w_target, dtype=np.float64)
        volume = np.maximum(np.asarray(volume, dtype=np.float64), _MIN_VOLUME)
        notional = np.asarray(values, dtype=np.float64) * self.portfolio_notional

        cap = self.model.participation_cap
        if cap is None:
            executed = target
            fill_ratio = np.ones(target.shape[0])
        else:
            executed, fill_ratio = self._partial_fill(
                w_prime, target, notional, volume, cap
            )

        commission_mu = transaction_remainders_exact(
            w_prime, executed, self.commission, self.commission
        )
        if executed is target:
            ideal_mu = commission_mu
        else:
            ideal_mu = transaction_remainders_exact(
                w_prime, target, self.commission, self.commission
            )

        trade = np.abs(executed[:, 1:] - w_prime[:, 1:])
        participation = trade * (notional[:, None] / volume)
        rates = np.asarray(self.model.cost_rates(participation), dtype=np.float64)
        slippage = (trade * rates).sum(axis=1)
        # Impact can at most consume the whole portfolio; keep μ in
        # (0, 1] so log-returns stay defined.
        mu = np.where(
            slippage != 0.0,
            np.minimum(np.maximum(commission_mu * (1.0 - slippage), 1e-12), 1.0),
            commission_mu,
        )
        return FillRound(
            weights=executed,
            mu=mu,
            commission_mu=commission_mu,
            ideal_mu=ideal_mu,
            slippage_cost=slippage,
            fill_ratio=fill_ratio,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _partial_fill(
        w_prime: np.ndarray,
        target: np.ndarray,
        notional: np.ndarray,
        volume: np.ndarray,
        cap: float,
    ):
        """Cap each asset's trade at ``cap`` × its tradable volume.

        Sells fill first (up to the cap); buys fill up to the cap *and*
        the cash actually available (starting cash plus realized sale
        proceeds), scaled down pro rata if short.  Cash absorbs the
        residual, so each executed row stays on the simplex.
        """
        wp = w_prime[:, 1:]
        # Largest |Δw| each asset's liquidity admits this period.
        cap_frac = (cap * volume) / notional[:, None]
        delta = target[:, 1:] - wp
        sells = np.minimum(np.maximum(-delta, 0.0), cap_frac)
        buys = np.minimum(np.maximum(delta, 0.0), cap_frac)
        budget = w_prime[:, 0] + sells.sum(axis=1)
        total_buys = buys.sum(axis=1)
        short = total_buys > budget
        if short.any():
            buys[short] = buys[short] * (budget[short] / total_buys[short])[:, None]
        assets = wp - sells + buys
        executed = np.empty_like(w_prime)
        executed[:, 0] = np.maximum(1.0 - assets.sum(axis=1), 0.0)
        executed[:, 1:] = assets
        desired = np.abs(delta).sum(axis=1)
        done = sells.sum(axis=1) + buys.sum(axis=1)
        moved = desired > 0.0
        fill_ratio = np.ones(w_prime.shape[0])
        fill_ratio[moved] = np.minimum(done[moved] / desired[moved], 1.0)
        return executed, fill_ratio

    # ------------------------------------------------------------------
    def estimate_batch(
        self,
        w_prev: np.ndarray,
        w_target: np.ndarray,
        volume: np.ndarray,
        value: float = 1.0,
    ) -> Dict[str, np.ndarray]:
        """Vectorized pre-trade cost estimate for a batch of rebalances.

        The serving layer's advisory path: ``w_prev``/``w_target`` are
        ``(batch, n_assets+1)`` weight matrices, ``volume`` the
        ``(batch, n_assets)`` (or broadcastable ``(n_assets,)``)
        tradable volumes at each request's decision period.  Returns
        per-row ``cost`` (fraction of portfolio value expected lost to
        impact, charged — like :meth:`execute` — on the *fillable*
        portion under the model's cap), ``max_participation`` (of the
        fillable trade), and ``fill_ratio`` (expected filled fraction
        of the requested trade).  No exact μ fixed point here —
        estimates must stay allocation-light enough for the hot serving
        path.
        """
        prev = np.atleast_2d(np.asarray(w_prev, dtype=np.float64))
        tgt = np.atleast_2d(np.asarray(w_target, dtype=np.float64))
        vol = np.maximum(np.asarray(volume, dtype=np.float64), _MIN_VOLUME)
        notional = float(value) * self.portfolio_notional
        trade = np.abs(tgt[:, 1:] - prev[:, 1:])
        cap = self.model.participation_cap
        if cap is None:
            filled = trade
            fill_ratio = np.ones(trade.shape[0])
        else:
            # Trade-space fills, matching _partial_fill's semantics: a
            # participation-space ratio would let illiquid assets (huge
            # participation per unit of weight) dominate the estimate,
            # and costing the uncapped request would overstate realized
            # slippage by up to 1/fill_ratio.
            filled = np.minimum(trade, (cap * vol) / notional)
            desired = trade.sum(axis=1)
            fill_ratio = np.where(
                desired > 0.0, filled.sum(axis=1) / np.maximum(desired, 1e-300), 1.0
            )
        participation = filled * (notional / vol)
        rates = np.asarray(self.model.cost_rates(participation), dtype=np.float64)
        return {
            "cost": (filled * rates).sum(axis=1),
            "max_participation": participation.max(axis=1, initial=0.0),
            "fill_ratio": fill_ratio,
        }
