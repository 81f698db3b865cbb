"""Nearest-rank percentiles and the ten-samples-beyond rule."""

import pytest

from perfbench.stats import nearest_rank, samples_beyond


def test_nearest_rank_picks_a_sample():
    values = [15, 20, 35, 40, 50]
    assert nearest_rank(values, 5) == 15
    assert nearest_rank(values, 30) == 20
    assert nearest_rank(values, 40) == 20
    assert nearest_rank(values, 50) == 35
    assert nearest_rank(values, 100) == 50


def test_nearest_rank_ignores_input_order():
    values = list(range(1, 101))
    assert nearest_rank(values[::-1], 90) == 90
    assert nearest_rank(values, 95) == 95


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0)


@pytest.mark.parametrize(
    "n, p, beyond",
    [
        (100, 90, 10),  # the least a p90 needs
        (99, 90, 9),
        (200, 95, 10),  # the least a p95 needs
        (199, 95, 9),
        (1, 50, 0),
    ],
)
def test_samples_beyond(n, p, beyond):
    assert samples_beyond(n, p) == beyond
    values = list(range(n))
    assert sum(v > nearest_rank(values, p) for v in values) == beyond
