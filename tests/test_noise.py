"""Noise generation and perturbation rules (Section V-F)."""

import numpy as np
import pytest

from repro.core import (
    apply_max_entropy,
    apply_naive,
    draw_noise,
    perturb_probabilities,
    truncated_normal_noise,
)
from repro.exceptions import ConfigurationError


class TestTruncatedNormal:
    def test_range(self):
        r = truncated_normal_noise(0.4, size=5000, seed=0)
        assert r.min() >= 0.0
        assert r.max() <= 1.0

    def test_zero_sigma_gives_zero_noise(self):
        r = truncated_normal_noise(0.0, size=100, seed=1)
        np.testing.assert_array_equal(r, 0.0)

    def test_scale_monotonicity(self):
        small = truncated_normal_noise(0.05, size=20_000, seed=2).mean()
        large = truncated_normal_noise(0.5, size=20_000, seed=2).mean()
        assert large > small

    def test_half_normal_mean_for_small_sigma(self):
        """Far from truncation, E[r] = sigma * sqrt(2/pi)."""
        sigma = 0.05
        r = truncated_normal_noise(sigma, size=100_000, seed=3)
        assert r.mean() == pytest.approx(sigma * np.sqrt(2 / np.pi), rel=0.03)

    def test_per_edge_scales(self):
        sigma = np.array([0.0, 0.2, 0.0, 0.4])
        r = truncated_normal_noise(sigma, seed=4)
        assert r[0] == 0.0 and r[2] == 0.0
        assert r[1] > 0.0 and r[3] > 0.0

    def test_scalar_needs_size(self):
        with pytest.raises(ConfigurationError):
            truncated_normal_noise(0.5)

    @pytest.mark.parametrize("sigma", [1e15, 1e16, 1e308, np.inf])
    def test_huge_scale_draws_uniform(self, sigma):
        """``R_s`` tends to U(0, 1) as ``s`` grows: a huge or infinite
        scale draws finite, nonzero noise with mean 1/2, not zeros (the
        truncation span cancelling) or NaN (``inf * 0``)."""
        r = truncated_normal_noise(sigma, size=100_000, seed=8)
        assert np.isfinite(r).all()
        assert (r > 0.0).all()
        assert r.mean() == pytest.approx(0.5, abs=0.01)


class TestWhiteNoise:
    def test_white_noise_replaces_some_draws(self):
        sigma = np.full(50_000, 1e-6)  # truncated draws ~ 0
        r = draw_noise(sigma, white_noise=0.1, seed=5)
        big = (r > 0.01).mean()
        assert big == pytest.approx(0.1 * 0.99, abs=0.01)

    def test_no_white_noise(self):
        sigma = np.full(1000, 1e-6)
        r = draw_noise(sigma, white_noise=0.0, seed=6)
        assert (r < 0.01).all()


class TestMaxEntropyRule:
    def test_fixed_point_at_half(self):
        p = np.full(10, 0.5)
        r = np.linspace(0, 1, 10)
        np.testing.assert_allclose(apply_max_entropy(p, r), 0.5)

    def test_never_moves_away_from_half(self):
        rng = np.random.default_rng(7)
        p = rng.random(1000)
        r = rng.random(1000)
        updated = apply_max_entropy(p, r)
        assert (np.abs(updated - 0.5) <= np.abs(p - 0.5) + 1e-12).all()

    def test_full_noise_reflects_probability(self):
        p = np.array([0.2, 0.7])
        np.testing.assert_allclose(
            apply_max_entropy(p, np.ones(2)), [0.8, 0.3]
        )

    def test_zero_noise_is_identity(self):
        p = np.array([0.1, 0.6, 0.9])
        np.testing.assert_allclose(apply_max_entropy(p, np.zeros(3)), p)

    def test_deterministic_edges_reduce_to_boldi_rule(self):
        """p in {0, 1} reproduces the deterministic-graph injection."""
        r = np.array([0.3, 0.3])
        np.testing.assert_allclose(
            apply_max_entropy(np.array([0.0, 1.0]), r), [0.3, 0.7]
        )

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(8)
        out = apply_max_entropy(rng.random(500), rng.random(500))
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestNaiveRule:
    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(9)
        out = apply_naive(rng.random(2000), rng.random(2000), seed=10)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_moves_both_directions(self):
        p = np.full(2000, 0.5)
        r = np.full(2000, 0.2)
        out = apply_naive(p, r, seed=11)
        assert (out > 0.5).any() and (out < 0.5).any()

    def test_can_move_away_from_half(self):
        """Unlike max-entropy, naive noise can push past 1/2's pull."""
        p = np.full(2000, 0.5)
        out = apply_naive(p, np.full(2000, 0.3), seed=12)
        assert (np.abs(out - 0.5) > 0.2).all()


class TestPerturbProbabilities:
    def test_max_entropy_mode(self):
        p = np.array([0.1, 0.9])
        out = perturb_probabilities(p, np.full(2, 0.2), mode="max-entropy",
                                    seed=13)
        assert (np.abs(out - 0.5) <= np.abs(p - 0.5)).all()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            perturb_probabilities(np.array([0.5]), np.array([0.1]),
                                  mode="quantum")

    def test_reproducible(self):
        p = np.linspace(0.1, 0.9, 20)
        sigma = np.full(20, 0.3)
        a = perturb_probabilities(p, sigma, seed=14)
        b = perturb_probabilities(p, sigma, seed=14)
        np.testing.assert_array_equal(a, b)


class TestEntropyGain:
    def test_max_entropy_beats_naive_on_entropy(self):
        """Same noise magnitudes: the guided rule yields higher degree
        entropy -- the claim behind the ME heuristic (Lemmas 4-6)."""
        from repro.privacy import degree_entropy_per_vertex
        from repro.ugraph import UncertainGraph

        rng = np.random.default_rng(15)
        n, m = 40, 120
        pairs = set()
        while len(pairs) < m:
            u, v = rng.integers(0, n, 2)
            if u != v:
                pairs.add((min(u, v), max(u, v)))
        p = np.clip(rng.beta(0.5, 0.5, size=m), 0.01, 0.99)  # bimodal
        graph = UncertainGraph(n, [(u, v, pi) for (u, v), pi in zip(sorted(pairs), p)])

        sigma = np.full(m, 0.25)
        guided = graph.with_probabilities(
            perturb_probabilities(graph.edge_probabilities, sigma,
                                  mode="max-entropy", seed=16)
        )
        naive = graph.with_probabilities(
            perturb_probabilities(graph.edge_probabilities, sigma,
                                  mode="naive", seed=16)
        )
        assert (
            degree_entropy_per_vertex(guided).mean()
            > degree_entropy_per_vertex(naive).mean()
        )
