"""Geometrically-biased minibatch sampling over training periods.

Jiang et al. sample the *start* of each training minibatch so that
recent periods are exponentially more likely:
``P(start = t_b) ∝ (1 − β)^{N − t_b}`` — markets drift, so the policy
should weight the recent past.  The paper trains SDP in the same
framework (batch size 128, Table 2).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..utils.rng import make_rng

DEFAULT_GEOMETRIC_BIAS = 5e-3


class GeometricBatchSampler:
    """Sample blocks of consecutive decision indices.

    Parameters
    ----------
    first_index:
        Earliest valid decision index (needs a full observation window
        and a previous period for the PVM).
    last_index:
        Latest decision index with a next-period price relative
        available (exclusive bound is ``last_index + 1``).
    batch_size:
        Number of consecutive periods per minibatch.
    bias:
        Geometric decay β; larger = more concentrated on the recent end.
    """

    def __init__(
        self,
        first_index: int,
        last_index: int,
        batch_size: int,
        bias: float = DEFAULT_GEOMETRIC_BIAS,
        rng: Optional[np.random.Generator] = None,
    ):
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if not 0.0 < bias < 1.0:
            raise ValueError(f"bias must be in (0, 1), got {bias}")
        if last_index - first_index + 1 < batch_size:
            raise ValueError(
                f"range [{first_index}, {last_index}] shorter than batch "
                f"size {batch_size}"
            )
        self.first_index = int(first_index)
        self.last_index = int(last_index)
        self.batch_size = int(batch_size)
        self.bias = float(bias)
        self._rng = rng if rng is not None else make_rng(0)
        # Valid start positions: start + batch_size - 1 <= last_index.
        n_starts = self.last_index - self.batch_size + 2 - self.first_index
        exponents = np.arange(n_starts - 1, -1, -1, dtype=np.float64)
        weights = (1.0 - self.bias) ** exponents
        self._probabilities = weights / weights.sum()
        # Precomputed inverse CDF.  ``Generator.choice(n, p=...)`` builds
        # this cumsum, renormalises, and searchsorts one uniform draw on
        # *every* call (plus an O(n) validation of p); doing it once here
        # keeps the sampled index stream bit-identical — same uniforms
        # consumed, same searchsorted — at O(log n) per sample.
        cdf = self._probabilities.cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf

    @classmethod
    def for_seed(
        cls,
        first_index: int,
        last_index: int,
        batch_size: int,
        seed: int,
        bias: float = DEFAULT_GEOMETRIC_BIAS,
    ) -> "GeometricBatchSampler":
        """A sampler whose index stream is a pure function of ``seed``.

        The training loop
        (:class:`~repro.agents.multiseed.MultiSeedTrainer`, and the
        serial :class:`~repro.agents.trainer.PolicyTrainer` as its
        S = 1 front) builds each seed's stream with it, so a seed's
        draw sequence is identical whether it trains alone or stacked
        with other seeds — the shard spec's seed alone determines the
        stream, with no dependence on which seeds ride along.
        """
        return cls(
            first_index,
            last_index,
            batch_size,
            bias=bias,
            rng=make_rng(seed),
        )

    def sample(self) -> np.ndarray:
        """One minibatch of consecutive decision indices."""
        start = self.first_index + int(
            self._cdf.searchsorted(self._rng.random(), side="right")
        )
        return np.arange(start, start + self.batch_size, dtype=np.int64)

    def start_distribution(self) -> np.ndarray:
        """Probability of each valid start index (diagnostics/tests)."""
        return self._probabilities.copy()
