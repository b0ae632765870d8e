"""ChameleonConfig and variant presets."""

from dataclasses import fields

import pytest

from repro.core import VARIANTS, ChameleonConfig, variant_config
from repro.exceptions import ConfigurationError


class TestDefaults:
    def test_default_is_full_chameleon(self):
        cfg = ChameleonConfig()
        assert cfg.reliability_oriented
        assert cfg.anonymity_oriented
        assert cfg.name == "rsme"

    def test_with_privacy_copies(self):
        cfg = ChameleonConfig(k=5, epsilon=0.1)
        updated = cfg.with_privacy(10, 0.2)
        assert (updated.k, updated.epsilon) == (10, 0.2)
        assert (cfg.k, cfg.epsilon) == (5, 0.1)
        assert updated.selection_mode == cfg.selection_mode


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0},
            {"epsilon": -0.1},
            {"epsilon": 1.0},
            {"size_multiplier": 0.5},
            {"white_noise": 1.5},
            {"n_trials": 0},
            {"relevance_samples": 0},
            {"selection_mode": "psychic"},
            {"perturbation_mode": "psychic"},
            {"utility_samples": -1},
            {"world_memory_budget": 0},
            {"resume": True},  # without a checkpoint_path
            {"sigma_initial": 0.0},
            {"sigma_initial": 100.0},  # above sigma_max
            {"sigma_tolerance": 0.0},
            # NaN fails every comparison, so each check is written to
            # reject it; infinities are out of every field's domain.
            {"size_multiplier": float("nan")},
            {"size_multiplier": float("inf")},
            {"sigma_initial": float("nan")},
            {"sigma_max": float("nan")},
            {"sigma_max": float("inf")},
            {"sigma_initial": float("inf"), "sigma_max": float("inf")},
            {"sigma_tolerance": float("nan")},
            {"sigma_tolerance": float("inf")},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ConfigurationError):
            ChameleonConfig(**kwargs)

    @pytest.mark.parametrize("field, value", [
        ("trial_timeout", 5.0),
        ("max_retries", 1),
        ("retry_backoff", 0.0),
        ("fault_plan", "crash@0.0"),
    ])
    def test_supervision_fields_are_gone(self, field, value):
        """The sigma search runs unsupervised: no deadline, retry or
        fault-plan knob is left to set."""
        with pytest.raises(TypeError, match=field):
            ChameleonConfig(**{field: value})
        with pytest.raises(TypeError, match=field):
            variant_config("rsme", **{field: value})


class TestVariants:
    def test_table2_presets(self):
        assert set(VARIANTS) == {"rsme", "rs", "me"}

    def test_rsme(self):
        cfg = variant_config("rsme")
        assert cfg.reliability_oriented and cfg.anonymity_oriented

    def test_rs(self):
        cfg = variant_config("rs")
        assert cfg.reliability_oriented and not cfg.anonymity_oriented

    def test_me(self):
        cfg = variant_config("me")
        assert not cfg.reliability_oriented and cfg.anonymity_oriented

    def test_case_insensitive(self):
        assert variant_config("RSME").name == "rsme"

    def test_overrides(self):
        cfg = variant_config("me", k=42, n_trials=2)
        assert cfg.k == 42
        assert cfg.n_trials == 2
        assert cfg.selection_mode == "uniqueness-only"

    def test_connectivity_backend_override(self):
        """There is one connectivity labeler, so no variant can pick
        another."""
        with pytest.raises(TypeError, match="connectivity_backend"):
            variant_config("rsme", connectivity_backend="batched-scipy")

    def test_connectivity_defaults(self):
        cfg = ChameleonConfig()
        names = {f.name for f in fields(cfg)}
        assert not names & {"connectivity_backend", "trial_backend",
                            "n_workers", "trial_timeout", "max_retries",
                            "retry_backoff", "fault_plan"}
        assert len(fields(cfg)) == 19
        assert cfg.utility_samples == 0

    def test_unknown_variant(self):
        with pytest.raises(ConfigurationError):
            variant_config("gan")
