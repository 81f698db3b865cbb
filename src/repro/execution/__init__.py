"""Liquidity-aware execution & slippage simulation.

Models how target weights actually get filled on a thin-liquidity
venue: a :class:`SlippageModel` zoo (zero / linear / square-root /
depth-limited impact, all vectorized over ``(batch, assets)``) and the
:class:`ExecutionEngine` that wraps the exact commission fixed point,
applies impact and partial fills, and reports implementation-shortfall
inputs.  Threaded through the back-tester, walk-forward evaluation, the
serving layer, and the experiment grid's ``ExecutionRegime`` axis; with
the default :class:`ZeroSlippage` model everything is bit-identical to
the commission-only path.
"""

from .engine import ExecutionEngine, ExecutionFill, FillRound
from .models import (
    DepthLimited,
    LinearImpact,
    SlippageModel,
    SquareRootImpact,
    ZeroSlippage,
)

__all__ = [
    "DepthLimited",
    "ExecutionEngine",
    "ExecutionFill",
    "FillRound",
    "LinearImpact",
    "SlippageModel",
    "SquareRootImpact",
    "ZeroSlippage",
]
