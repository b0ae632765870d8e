"""Uniqueness scores (Definition 4)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.privacy import (
    commonness_scores,
    default_bandwidth,
    degree_uniqueness,
    uniqueness_scores,
)
from repro.privacy import uniqueness
from repro.ugraph import UncertainGraph


def test_commonness_matches_direct_kernel_sum():
    values = np.array([1.0, 2.0, 2.5, 10.0])
    theta = 1.5
    norm = 1.0 / (theta * np.sqrt(2 * np.pi))
    expected = [
        sum(norm * np.exp(-((v - u) ** 2) / (2 * theta**2)) for u in values)
        for v in values
    ]
    np.testing.assert_allclose(commonness_scores(values, theta), expected)


def test_outlier_is_most_unique():
    values = np.array([5.0, 5.1, 4.9, 5.0, 30.0])
    scores = uniqueness_scores(values, theta=1.0)
    assert np.argmax(scores) == 4


def test_identical_values_equal_scores():
    scores = uniqueness_scores(np.full(6, 3.0), theta=1.0)
    np.testing.assert_allclose(scores, scores[0])


def test_uniqueness_positive():
    rng = np.random.default_rng(0)
    scores = uniqueness_scores(rng.random(50) * 10, theta=0.5)
    assert (scores > 0).all()


def test_denser_cluster_means_lower_uniqueness():
    # value 1.0 appears 5 times; value 9.0 twice.
    values = np.array([1.0] * 5 + [9.0] * 2)
    scores = uniqueness_scores(values, theta=0.5)
    assert scores[0] < scores[-1]


def test_theta_must_be_positive():
    with pytest.raises(ConfigurationError):
        commonness_scores(np.array([1.0, 2.0]), theta=0.0)


def test_values_must_be_1d():
    with pytest.raises(ConfigurationError):
        commonness_scores(np.ones((2, 2)))


def test_default_bandwidth_is_std():
    values = np.array([1.0, 3.0, 5.0])
    assert default_bandwidth(values) == pytest.approx(values.std())


def test_default_bandwidth_floor_for_constant_values():
    assert default_bandwidth(np.full(5, 2.0)) > 0


def test_degree_uniqueness_flags_hubs():
    """A star center (high degree) is more unique than the leaves."""
    star = UncertainGraph(6, [(0, i, 0.8) for i in range(1, 6)])
    scores = degree_uniqueness(star)
    assert np.argmax(scores) == 0


def test_chunked_path_matches_small_path(monkeypatch):
    """Commonness over several row chunks agrees with the direct formula."""
    monkeypatch.setattr(uniqueness, "_CHUNK_ELEMENTS", 1024 * 1500)
    rng = np.random.default_rng(1)
    values = rng.random(1500) * 4
    theta = 0.7
    scores = commonness_scores(values, theta)
    sample = rng.choice(1500, size=5, replace=False)
    norm = 1.0 / (theta * np.sqrt(2 * np.pi))
    for i in sample:
        direct = (norm * np.exp(-((values[i] - values) ** 2) / (2 * theta**2))).sum()
        assert scores[i] == pytest.approx(direct)


@pytest.mark.parametrize("rows", [1, 2, 7, 64, 299, 300, 10_000])
def test_chunk_budget_does_not_change_scores(monkeypatch, rows):
    """A row's kernel sum does not depend on how rows are chunked: the
    scores are bit-identical from one chunk of every row down to 1-row
    chunks, including budgets that leave a ragged last chunk."""
    rng = np.random.default_rng(4)
    values = np.round(rng.gamma(2.0, 3.0, size=300), 1)
    whole = commonness_scores(values)
    monkeypatch.setattr(uniqueness, "_CHUNK_ELEMENTS", rows * values.size)
    np.testing.assert_array_equal(commonness_scores(values), whole)
    np.testing.assert_array_equal(
        uniqueness_scores(values), 1.0 / whole
    )


def test_chunk_budget_below_one_row_still_scores(monkeypatch):
    """A budget smaller than one row still takes one row per chunk."""
    values = np.linspace(0.0, 5.0, 50)
    whole = commonness_scores(values)
    monkeypatch.setattr(uniqueness, "_CHUNK_ELEMENTS", 3)
    np.testing.assert_array_equal(commonness_scores(values), whole)
