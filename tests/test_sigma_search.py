"""``anonymize`` against the exhaustive sigma-search oracle.

Production stops a probe's trial loop at the first trial that reaches
epsilon-hat 0 and scores utility once, for the accepted candidate.
:mod:`tests.search_oracle` runs every trial and scores every successful
probe.  The two must agree bit for bit, and spies hold production to
the work it is meant to do: exactly the trials up to the first
epsilon-hat 0 of each probe, and one world-store derive per successful
run.
"""

import functools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.parallel
from repro.core import anonymize
from repro.datasets import load_profile
from repro.reliability.worldstore import FULL_MATRIX_LIMIT, WorldStore
from tests.search_oracle import early_exit_trial_count, oracle_anonymize

#: Profile stand-ins small enough for a hypothesis loop.  On ppi- and
#: brightkite-like graphs nearly every probe stops at trial 1; the
#: dblp-like ones mix that with probes that stop later or run every
#: trial, so they are drawn more often.
_PROFILES = (("ppi", 0.25), ("brightkite", 0.2), ("dblp", 0.2),
             ("dblp", 0.3))

#: Forces a chunked world store on every graph above.
_CHUNKING_BUDGET = 64 * 1024


@functools.cache
def _graph(name: str, scale: float):
    return load_profile(name, scale=scale, seed=3)


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def assert_same_run(result, oracle) -> None:
    """``result`` equals the oracle's run bit for bit."""
    best = oracle.best
    assert result.success == best.success
    assert _bits(result.sigma) == _bits(best.sigma)
    assert _bits(result.epsilon_achieved) == _bits(best.epsilon_achieved)
    assert result.sigma_history == oracle.sigma_history
    assert result.n_genobf_calls == len(oracle.sigma_history)
    if best.graph is None:
        assert result.graph is None and result.report is None
    else:
        assert result.graph.n_nodes == best.graph.n_nodes
        for name in ("edge_src", "edge_dst", "edge_probabilities"):
            got = getattr(result.graph, name)
            expected = getattr(best.graph, name)
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes(), name
        assert result.report.entropies.tobytes() == \
            best.report.entropies.tobytes()
        np.testing.assert_array_equal(
            result.report.obfuscated, best.report.obfuscated
        )
    if oracle.utility_discrepancy is None:
        assert result.utility_discrepancy is None
    else:
        assert _bits(result.utility_discrepancy) == \
            _bits(oracle.utility_discrepancy)


def spied_anonymize(graph, k, epsilon, **kwargs):
    """``anonymize`` with its trials per probe and its utility derives
    (the chunk count of each derive's store) recorded."""
    trials: Counter = Counter()
    derives: list[int] = []
    real_trial = repro.core.parallel.run_trial
    real_derive = WorldStore.derive

    def trial(graph, config, context, sigma, probe, *rest):
        trials[probe] += 1
        return real_trial(graph, config, context, sigma, probe, *rest)

    def derive(store, delta):
        derives.append(store.n_chunks)
        return real_derive(store, delta)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.core.parallel, "run_trial", trial)
        patch.setattr(WorldStore, "derive", derive)
        result = anonymize(graph, k, epsilon, **kwargs)
    return result, trials, derives


def check_against_oracle(graph, k, epsilon, **kwargs):
    oracle = oracle_anonymize(graph, k, epsilon, **kwargs)
    result, trials, derives = spied_anonymize(graph, k, epsilon, **kwargs)
    assert_same_run(result, oracle)
    n_trials = kwargs["n_trials"]
    assert trials == Counter({
        probe: early_exit_trial_count(results, n_trials)
        for probe, results in enumerate(oracle.trials)
    })
    scored = kwargs.get("utility_samples", 0) > 0 and result.success
    assert len(derives) == int(scored)
    return result, oracle, derives


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    profile=st.sampled_from(_PROFILES),
    seed=st.integers(0, 2**16),
    k=st.integers(2, 10),
    epsilon=st.sampled_from([0.01, 0.05, 0.1, 0.3]),
    n_trials=st.integers(1, 4),
    utility_samples=st.sampled_from([0, 20, 60]),
    chunked=st.booleans(),
)
def test_anonymize_equals_exhaustive_search(
    profile, seed, k, epsilon, n_trials, utility_samples, chunked
):
    kwargs = dict(
        seed=seed, n_trials=n_trials, utility_samples=utility_samples,
        relevance_samples=30, sigma_tolerance=0.1,
    )
    if chunked:
        kwargs["world_memory_budget"] = _CHUNKING_BUDGET
    __, __, derives = check_against_oracle(
        _graph(*profile), k, epsilon, **kwargs
    )
    if chunked:
        assert all(n_chunks > 1 for n_chunks in derives)


def test_probe_stops_after_a_later_trial():
    """A probe whose first trial misses epsilon-hat 0 stops at the
    trial that reaches it, and later trials are never run."""
    result, oracle, __ = check_against_oracle(
        _graph("dblp", 0.2), 3, 0.01, seed=2, n_trials=4,
        relevance_samples=30, sigma_tolerance=0.1, utility_samples=20,
    )
    counts = [early_exit_trial_count(r, 4) for r in oracle.trials]
    assert any(1 < count < 4 for count in counts)
    assert result.utility_discrepancy is not None


def test_no_trial_reaches_zero():
    """dblp-like at k = 20, epsilon = 0.01: every probe runs every trial."""
    graph = load_profile("dblp", scale=1.0, seed=2019)
    result, oracle, __ = check_against_oracle(
        graph, 20, 0.01, seed=1, n_trials=3,
        relevance_samples=30, sigma_tolerance=0.1, utility_samples=20,
    )
    assert result.success and result.epsilon_achieved > 0.0
    assert not any(
        r.satisfied and r.epsilon_achieved == 0.0
        for results in oracle.trials for r in results
    )


def test_failed_search_never_derives():
    """No sigma succeeds: every trial runs and no candidate is scored."""
    result, oracle, derives = check_against_oracle(
        _graph("dblp", 0.2), 40, 0.01, seed=1, n_trials=2,
        relevance_samples=30, sigma_tolerance=0.1, utility_samples=20,
    )
    assert not result.success and derives == []
    assert result.utility_discrepancy is None


def test_sampled_pairs_utility():
    """Above ``FULL_MATRIX_LIMIT`` utility is scored on a pair sample."""
    graph = load_profile("brightkite", scale=2.6, seed=3)
    assert graph.n_nodes > FULL_MATRIX_LIMIT
    result, __, __ = check_against_oracle(
        graph, 5, 0.1, seed=1, n_trials=1,
        relevance_samples=20, sigma_tolerance=0.5, utility_samples=20,
    )
    assert result.utility_discrepancy is not None
