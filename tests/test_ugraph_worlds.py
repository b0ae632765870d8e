"""Unit tests for possible-world sampling."""

import numpy as np
import pytest

from repro.ugraph import (
    UncertainGraph,
    WorldSampler,
    sample_edge_masks,
    world_log_probability,
)


def test_mask_shape(triangle):
    masks = sample_edge_masks(triangle, 50, seed=0)
    assert masks.shape == (50, 3)
    assert masks.dtype == bool


def test_invalid_sample_count(triangle):
    with pytest.raises(ValueError):
        sample_edge_masks(triangle, 0)


def test_empirical_frequencies_match_probabilities(triangle):
    masks = sample_edge_masks(triangle, 20_000, seed=1)
    freq = masks.mean(axis=0)
    np.testing.assert_allclose(freq, triangle.edge_probabilities, atol=0.02)


def test_certain_edges_always_present():
    g = UncertainGraph(3, [(0, 1, 1.0), (1, 2, 0.0)])
    masks = sample_edge_masks(g, 100, seed=2)
    assert masks[:, 0].all()
    assert not masks[:, 1].any()


def test_seed_reproducibility(triangle):
    a = sample_edge_masks(triangle, 100, seed=7)
    b = sample_edge_masks(triangle, 100, seed=7)
    np.testing.assert_array_equal(a, b)


def test_world_log_probability(triangle):
    mask = np.array([True, True, False])
    expected = np.log(0.5) + np.log(0.8) + np.log(1 - 0.3)
    assert world_log_probability(triangle, mask) == pytest.approx(expected)


def test_world_log_probability_impossible():
    g = UncertainGraph(2, [(0, 1, 0.0)])
    assert world_log_probability(g, np.array([True])) == -np.inf


def test_world_log_probability_shape_check(triangle):
    with pytest.raises(ValueError):
        world_log_probability(triangle, np.array([True]))


def test_world_probabilities_sum_to_one(triangle):
    """Sum of Pr[world] over all 2^3 worlds is 1."""
    import itertools

    total = 0.0
    for bits in itertools.product([False, True], repeat=3):
        total += np.exp(world_log_probability(triangle, np.array(bits)))
    assert total == pytest.approx(1.0)


class TestAntitheticSampling:
    def test_marginals_preserved(self, triangle):
        masks = sample_edge_masks(triangle, 20_000, seed=5, antithetic=True)
        np.testing.assert_allclose(
            masks.mean(axis=0), triangle.edge_probabilities, atol=0.02
        )

    def test_pairs_are_complementary_draws(self):
        """For p = 0.5 the paired worlds are exact complements."""
        g = UncertainGraph(3, [(0, 1, 0.5), (1, 2, 0.5)])
        masks = sample_edge_masks(g, 100, seed=6, antithetic=True)
        np.testing.assert_array_equal(masks[0::2], ~masks[1::2])

    def test_requires_even_count(self, triangle):
        with pytest.raises(ValueError, match="even"):
            sample_edge_masks(triangle, 7, antithetic=True)

    def test_variance_reduction_on_pair_count(self, path4):
        """Antithetic estimates of E[connected pairs] have lower spread
        across repetitions than independent sampling."""
        from repro.reliability import WorldStore

        def estimates(antithetic):
            return np.array([
                WorldStore(
                    path4, 100, seed=trial, antithetic=antithetic
                ).base_view().expected_connected_pairs()
                for trial in range(60)
            ])

        plain = estimates(False).std()
        paired = estimates(True).std()
        assert paired < plain

    def test_antithetic_estimator_validates_parity(self, triangle):
        from repro.exceptions import EstimationError
        from repro.reliability import WorldStore

        with pytest.raises(EstimationError):
            WorldStore(triangle, n_samples=11, antithetic=True)


def test_sampler_iter_worlds(triangle):
    sampler = WorldSampler(triangle, seed=3)
    worlds = list(sampler.iter_worlds(10))
    assert len(worlds) == 10
    for src, dst in worlds:
        assert src.shape == dst.shape
        assert np.all(src < dst)


def test_sampler_networkx_includes_all_nodes(path4):
    sampler = WorldSampler(path4, seed=4)
    for g in sampler.sample_networkx(5):
        assert g.number_of_nodes() == 4
