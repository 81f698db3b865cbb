"""Portfolio-management environment substrate (§II.A of the paper).

Price-tensor/flat-state observation builders, the transaction remainder
factor μ_t, the vectorized portfolio-book step, the sequential
:class:`PortfolioEnv`, Jiang-style portfolio-vector memory, and the
geometric minibatch sampler.
"""

from .backtester import Backtester, BacktestResult, concat_states
from .book import BookStep, InvalidAction, normalize_actions, step_book
from .costs import (
    DEFAULT_COMMISSION,
    drifted_weights,
    transaction_remainder_approx,
    transaction_remainder_exact,
    transaction_remainders_exact,
)
from .observations import (
    ObservationConfig,
    PRICE_FEATURES,
    price_tensor,
    price_tensor_batch,
    price_tensor_rows,
    sdp_state,
    sdp_state_batch,
    sdp_state_rows,
)
from .portfolio import PortfolioEnv, StepResult, step_envs
from .pvm import PortfolioVectorMemory
from .sampling import DEFAULT_GEOMETRIC_BIAS, GeometricBatchSampler

__all__ = [
    "Backtester",
    "BacktestResult",
    "BookStep",
    "DEFAULT_COMMISSION",
    "DEFAULT_GEOMETRIC_BIAS",
    "GeometricBatchSampler",
    "InvalidAction",
    "concat_states",
    "ObservationConfig",
    "PRICE_FEATURES",
    "PortfolioEnv",
    "PortfolioVectorMemory",
    "StepResult",
    "drifted_weights",
    "normalize_actions",
    "price_tensor",
    "price_tensor_batch",
    "price_tensor_rows",
    "sdp_state",
    "sdp_state_batch",
    "sdp_state_rows",
    "step_book",
    "step_envs",
    "transaction_remainder_approx",
    "transaction_remainder_exact",
    "transaction_remainders_exact",
]
