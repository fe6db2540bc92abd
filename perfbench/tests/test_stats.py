"""Nearest-rank percentiles and the tail rule: report the highest
percentile that has at least ten samples beyond it."""

import pytest

from fqbench.stats import beyond, percentile, tail_percentile


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50.0) == 50
    assert percentile(values, 99.0) == 99
    assert percentile(list(reversed(values)), 100.0) == 100
    assert percentile([7.0], 99.0) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


@pytest.mark.parametrize(
    "count, expected",
    [
        (19, None),
        (20, 50.0),
        (99, 50.0),
        (100, 90.0),
        (999, 90.0),
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected
    if expected is not None:
        assert beyond(count, expected) >= 10


def test_beyond_counts_samples_above_the_rank():
    assert beyond(1000, 99.0) == 10
    assert beyond(999, 99.0) == 9
