"""Portfolio risk & constraints layer.

A vectorized limit zoo (:mod:`~repro.risk.limits`) composed by a
deterministic projection engine (:mod:`~repro.risk.engine`) applied
between a strategy's decision and execution — identically in backtest,
walk-forward, and serving.
"""

from .engine import CONSTRAINT_NAMES, RiskEngine, RiskReport, RiskRound
from .limits import (
    CashFloor,
    DrawdownLockout,
    LeverageSchedule,
    LockoutState,
    PositionCap,
    RiskLimit,
    TurnoverBudget,
)

__all__ = [
    "CONSTRAINT_NAMES",
    "CashFloor",
    "DrawdownLockout",
    "LeverageSchedule",
    "LockoutState",
    "PositionCap",
    "RiskEngine",
    "RiskLimit",
    "RiskReport",
    "RiskRound",
    "TurnoverBudget",
]
