"""Incremental re-certification pipeline tests.

The load-bearing property (the ISSUE's oracle): after any sequence of
update batches -- and any adopted repair -- the incremental path's
``(k, epsilon)`` verdict and per-vertex entropy columns are
bit-identical to rebuilding every cache from the patched graph, across
chunked x antithetic world-store configurations.
"""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import EstimationError, GraphFormatError, ObfuscationError
from repro.privacy import check_obfuscation
from repro.privacy.incremental import DegreeUncertaintyCache
from repro.reliability.worldstore import WorldStore, graph_delta
from repro.stream import (
    IncrementalRecertifier,
    RepairPolicy,
    UpdateBatch,
    read_update_file,
    repair_violations,
    write_update_file,
)
from repro.ugraph import UncertainGraph, read_edge_list, write_edge_list


def random_graph(seed: int, n: int = 40, n_edges: int = 120) -> UncertainGraph:
    rng = np.random.default_rng(seed)
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < n_edges:
        u, v = (int(x) for x in rng.integers(0, n, 2))
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    ordered = sorted(pairs)
    ps = rng.uniform(0.1, 0.9, len(ordered))
    return UncertainGraph(
        n, [(u, v, float(p)) for (u, v), p in zip(ordered, ps)]
    )


def random_batch(
    graph: UncertainGraph, rng: np.random.Generator, size: int
) -> UpdateBatch:
    """``size`` updates: mostly existing edges, sometimes a fresh pair."""
    deltas = []
    seen: set[tuple[int, int]] = set()
    pairs = list(graph.endpoint_pairs())
    while len(deltas) < size:
        if pairs and rng.random() < 0.8:
            u, v = pairs[int(rng.integers(0, len(pairs)))]
        else:
            u, v = (int(x) for x in rng.integers(0, graph.n_nodes, 2))
            if u == v:
                continue
            u, v = min(u, v), max(u, v)
        if (u, v) in seen:
            continue
        seen.add((u, v))
        old = graph.probability(u, v)
        new = float(np.clip(old + rng.normal(0.0, 0.25), 0.0, 1.0))
        deltas.append((u, v, old, new))
    return UpdateBatch.from_deltas(deltas)


# -- UpdateBatch -------------------------------------------------------- #

def test_batch_canonicalizes_and_validates():
    batch = UpdateBatch.from_deltas([(5, 2, 0.3, 0.4)])
    assert batch.us[0] == 2 and batch.vs[0] == 5
    assert len(batch) == 1
    assert list(batch.touched_vertices()) == [2, 5]

    with pytest.raises(ObfuscationError, match="self-loop"):
        UpdateBatch.from_deltas([(3, 3, 0.1, 0.2)])
    with pytest.raises(ObfuscationError, match="more than once"):
        UpdateBatch.from_deltas([(1, 2, 0.1, 0.2), (2, 1, 0.2, 0.3)])
    with pytest.raises(ObfuscationError, match="p_new"):
        UpdateBatch.from_deltas([(1, 2, 0.1, 1.5)])
    with pytest.raises(ObfuscationError, match="negative"):
        UpdateBatch.from_deltas([(-1, 2, 0.1, 0.2)])


@pytest.mark.parametrize("row, message", [
    ((1.7, 3, 0.1, 0.2), "must be integers"),
    ((float("nan"), 3, 0.1, 0.2), "must be integers"),
    ((1, float("inf"), 0.1, 0.2), "must be integers"),
    (("1", 3, 0.1, 0.2), "must be integers"),
    ((2**64, 3, 0.1, 0.2), "int64"),
    ((2**63, 3, 0.1, 0.2), "int64"),
    ((1, 3, "abc", 0.2), "must be numbers"),
    ((1, 3, 0.1, None), "must be numbers"),
    ((1, 3, 10**400, 0.2), "must be numbers"),
])
def test_batch_rejects_bad_ids_and_probabilities(row, message):
    """A float id is an error, never a truncation, and every bad row ends
    in an ``ObfuscationError`` naming it (``path:line`` from a file)."""
    with pytest.raises(ObfuscationError, match=f"update row 1: .*{message}"):
        UpdateBatch.from_deltas([(0, 1, 0.5, 0.6), row])


def test_batch_accepts_numpy_integer_ids():
    batch = UpdateBatch.from_deltas([(np.int64(4), np.int32(2), 0.1, 0.2)])
    assert batch.as_delta() == [(2, 4, 0.1, 0.2)]


def test_batch_from_graphs_round_trips(triangle):
    updated = UncertainGraph(3, [(0, 1, 0.9), (1, 2, 0.8), (0, 2, 0.3)])
    batch = UpdateBatch.from_graphs(triangle, updated)
    assert batch.as_delta() == [(0, 1, 0.5, 0.9)]
    batch.validate_against(triangle)
    with pytest.raises(ObfuscationError, match="p_old"):
        batch.validate_against(updated)


def test_update_file_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    graph = random_graph(1)
    batch = random_batch(graph, rng, 7)
    path = tmp_path / "batch.upd"
    write_update_file(batch, path)
    loaded = read_update_file(path)
    assert np.array_equal(loaded.us, batch.us)
    assert np.array_equal(loaded.vs, batch.vs)
    # repr round-trip: float-EXACT, not approximately equal
    assert np.array_equal(loaded.p_old, batch.p_old)
    assert np.array_equal(loaded.p_new, batch.p_new)


def test_update_file_rejects_malformed(tmp_path):
    path = tmp_path / "bad.upd"
    path.write_text("1 2 0.5\n")
    with pytest.raises(GraphFormatError, match="expected"):
        read_update_file(path)
    path.write_text("# fine\n1 2 0.5 abc\n")
    with pytest.raises(GraphFormatError):
        read_update_file(path)


def test_update_file_errors_name_the_line(tmp_path):
    """Row errors name the file line, not the row's position among the
    parsed rows: comments and blank lines count."""
    path = tmp_path / "u2.txt"
    path.write_text("# header\n\n0 1 0.5 0.6\n2 2 0 0.5\n")
    with pytest.raises(
        GraphFormatError, match=r"u2\.txt:4: self-loop on vertex 2$"
    ):
        read_update_file(path)
    path.write_text("0 1 0.5 0.6\n# gap\n\n1 2 0.1 0.2\n1 0 0.5 0.7\n")
    with pytest.raises(
        GraphFormatError,
        match=r"u2\.txt:5: names pair \(0, 1\) more than once "
              r"\(first at .*u2\.txt:1\)",
    ):
        read_update_file(path)
    path.write_text("\n\n-1 2 0.1 0.2\n")
    with pytest.raises(GraphFormatError, match=r"u2\.txt:3: negative"):
        read_update_file(path)
    path.write_text("# a\n1 2 0.1 1.5\n")
    with pytest.raises(GraphFormatError, match=r"u2\.txt:2: p_new=1\.5"):
        read_update_file(path)


#: Tokens an update file row may hold: numbers of every size (ids past
#: int64, floats past double), special floats, Python literal forms
#: ``int``/``float`` accept or reject, comment marks and stray text.
_FUZZ_TOKENS = st.one_of(
    st.integers(-(2**70), 2**70).map(str),
    st.integers(0, 12).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from([
        "nan", "-inf", "1e999", "-0.0", "0x1f", "1_0", "#", "1#2", "+3",
        "9" * 5000, "\x00", "\t", "\r",
    ]),
    st.text(max_size=5),
)
_FUZZ_ROWS = st.lists(
    st.lists(_FUZZ_TOKENS, max_size=6).map(" ".join), max_size=8
).map(lambda rows: "\n".join(rows).encode("utf-8"))


@st.composite
def _truncated_update_files(draw) -> bytes:
    """A valid update file cut at an arbitrary byte."""
    rows = draw(st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 30),
                  st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        max_size=6,
    ))
    text = "# u v p_old p_new\n" + "".join(
        f"{u} {v} {old!r} {new!r}\n" for u, v, old, new in rows
    )
    data = text.encode("utf-8")
    return data[:draw(st.integers(0, len(data)))]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.one_of(
    st.binary(max_size=300), _FUZZ_ROWS, _truncated_update_files()
))
def test_update_file_fuzz_ends_in_batch_or_format_error(
    tmp_path_factory, data
):
    """Random bytes, huge numbers and truncated rows: every update file
    parses to an :class:`UpdateBatch` or raises :class:`GraphFormatError`
    -- never another exception."""
    path = tmp_path_factory.mktemp("fuzz") / "batch.upd"
    path.write_bytes(data)
    try:
        batch = read_update_file(path)
    except GraphFormatError as exc:
        assert str(path) in str(exc)
        return
    assert isinstance(batch, UpdateBatch)
    assert np.all(batch.us < batch.vs)


# -- the oracle property ------------------------------------------------ #

@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_batches=st.integers(min_value=1, max_value=3),
    chunk=st.sampled_from([4, 16]),
    antithetic=st.booleans(),
)
def test_incremental_matches_full_recompute_oracle(
    seed, n_batches, chunk, antithetic
):
    """Chained batches through the recertifier == rebuilding from the
    patched graph, bit for bit, across every store configuration."""
    monkeypatch = pytest.MonkeyPatch()
    try:
        monkeypatch.setenv("REPRO_WORLD_CHUNK", str(chunk))
        rng = np.random.default_rng(seed)
        graph = random_graph(seed)
        store = WorldStore(graph, n_samples=24, seed=7, antithetic=antithetic)
        store.warm()
        recertifier = IncrementalRecertifier(
            graph, k=3, epsilon=0.2, store=store
        )
        for __ in range(n_batches):
            batch = random_batch(recertifier.graph, rng, 3)
            outcome = recertifier.apply(batch)

            # Oracle 1: verdict + entropy columns vs. a cold rebuild
            # from the patched graph (same adversary knowledge).
            oracle = check_obfuscation(
                outcome.graph, 3, 0.2,
                knowledge=recertifier.cache.knowledge,
            )
            assert outcome.report.satisfied == oracle.satisfied
            assert (
                outcome.report.epsilon_achieved
                == oracle.epsilon_achieved
            )
            assert np.array_equal(
                outcome.report.entropies, oracle.entropies
            )
            assert np.array_equal(
                outcome.report.obfuscated, oracle.obfuscated
            )

            # Oracle 2: the patched pmf matrix vs. a cold cache
            # (up to trailing all-zero padding columns).
            fresh = DegreeUncertaintyCache(
                outcome.graph, knowledge=recertifier.cache.knowledge
            )
            patched = recertifier.cache.base_matrix
            width = min(patched.shape[1], fresh.base_matrix.shape[1])
            assert np.array_equal(
                patched[:, :width], fresh.base_matrix[:, :width]
            )
            assert not patched[:, width:].any()
            assert not fresh.base_matrix[:, width:].any()

            # Oracle 3: the rebased store vs. a pristine store's
            # derived view of the same cumulative delta.
            pristine = WorldStore(
                graph, n_samples=24, seed=7, antithetic=antithetic
            )
            pristine.warm()
            view = pristine.derive(graph_delta(graph, outcome.graph))
            qpairs = list(outcome.graph.endpoint_pairs())[:15]
            assert np.array_equal(
                view.reliability_of_pairs(qpairs),
                store.base_view().reliability_of_pairs(qpairs),
            )
    finally:
        monkeypatch.undo()


# -- targeted repair ---------------------------------------------------- #

def hub_graph() -> tuple[UncertainGraph, np.ndarray, dict]:
    """Six hub vertices with 10 uncertain edges each; adversary knows
    structural degrees.  Collapsing one hub's edges to certainty makes
    its degree observation uniquely attributable."""
    rng = np.random.default_rng(11)
    n = 60
    edges: dict[tuple[int, int], float] = {}
    others = list(range(6, n))
    for hub in range(6):
        for v in rng.choice(others, 10, replace=False):
            v = int(v)
            edges[(min(hub, v), max(hub, v))] = 0.5
    for __ in range(120):
        u, v = (int(x) for x in rng.choice(others, 2, replace=False))
        edges[(min(u, v), max(u, v))] = 0.5
    graph = UncertainGraph(n, [(u, v, p) for (u, v), p in edges.items()])
    degrees = np.zeros(n, dtype=np.int64)
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
    return graph, degrees, edges


def test_repair_restores_certificate_locally():
    graph, knowledge, edges = hub_graph()
    k, epsilon = 4, 0.08

    recertifier = IncrementalRecertifier(
        graph, k, epsilon, knowledge=knowledge
    )
    batch = UpdateBatch.from_deltas(
        [(u, v, p, 1.0) for (u, v), p in edges.items() if u == 0]
    )
    outcome = recertifier.apply(batch, repair=RepairPolicy(entropy=7))
    assert outcome.repair is not None, "update should have broken the cert"
    assert outcome.repaired and outcome.report.satisfied

    # Locality: every repaired edge touches a violating vertex.
    repair = outcome.repair
    violators = set(repair.violators.tolist())
    assert violators
    for u, v in zip(repair.us.tolist(), repair.vs.tolist()):
        assert u in violators or v in violators

    # The post-repair certificate is bit-identical to the oracle.
    oracle = check_obfuscation(outcome.graph, k, epsilon, knowledge=knowledge)
    assert np.array_equal(outcome.report.entropies, oracle.entropies)
    assert outcome.report.epsilon_achieved == oracle.epsilon_achieved


def test_repair_is_deterministic():
    graph, knowledge, edges = hub_graph()
    batch_deltas = [
        (u, v, p, 1.0) for (u, v), p in edges.items() if u == 0
    ]

    def run():
        recertifier = IncrementalRecertifier(
            graph, 4, 0.08, knowledge=knowledge
        )
        return recertifier.apply(
            UpdateBatch.from_deltas(batch_deltas),
            repair=RepairPolicy(entropy=99),
        )

    first, second = run(), run()
    assert np.array_equal(first.report.entropies, second.report.entropies)
    assert first.repair.sigma == second.repair.sigma
    assert np.array_equal(first.repair.p_new, second.repair.p_new)


def test_repair_requires_violations(triangle):
    cache = DegreeUncertaintyCache(triangle)
    report = cache.check_base(1, 0.9)
    assert report.satisfied
    with pytest.raises(ObfuscationError, match="already obfuscated"):
        repair_violations(
            triangle, cache, report, 1, 0.9, RepairPolicy()
        )


@pytest.mark.parametrize("fields", [
    {"n_trials": 0},
    {"sigma_initial": 0.0},
    {"sigma_initial": 2.0, "sigma_max": 1.0},
    {"sigma_initial": float("nan")},
    {"sigma_max": float("nan")},
    {"sigma_max": float("inf")},
    {"sigma_initial": float("inf"), "sigma_max": float("inf")},
    {"size_multiplier": float("nan")},
    {"size_multiplier": float("inf")},
    {"size_multiplier": -1.0},
    {"size_multiplier": 0.0},
])
def test_repair_policy_rejects_bad_ladder(fields):
    """A NaN or infinite rung or multiplier is an error up front, not a
    ladder that runs no trial and reads as an infeasible repair."""
    with pytest.raises(ObfuscationError):
        RepairPolicy(**fields)


def test_no_repair_policy_reports_violation():
    graph, knowledge, edges = hub_graph()
    recertifier = IncrementalRecertifier(graph, 4, 0.08, knowledge=knowledge)
    batch = UpdateBatch.from_deltas(
        [(u, v, p, 1.0) for (u, v), p in edges.items() if u == 0]
    )
    outcome = recertifier.apply(batch)  # no policy
    assert not outcome.report.satisfied
    assert not outcome.repaired and outcome.repair is None


def test_stale_batch_raises(triangle):
    recertifier = IncrementalRecertifier(triangle, 1, 0.9)
    stale = UpdateBatch.from_deltas([(0, 1, 0.4, 0.6)])  # p_old is 0.5
    with pytest.raises(ObfuscationError):
        recertifier.apply(stale)


def test_store_of_another_graph_is_rejected_up_front():
    graph = random_graph(4)
    probs = graph.edge_probabilities.copy()
    probs[7] = 0.99
    store = WorldStore(graph.with_probabilities(probs), n_samples=8, seed=1)
    with pytest.raises(EstimationError, match="different graph"):
        IncrementalRecertifier(graph, 2, 0.5, store=store)
    smaller = WorldStore(random_graph(4, n=30), n_samples=8, seed=1)
    with pytest.raises(EstimationError, match="30-vertex"):
        IncrementalRecertifier(graph, 2, 0.5, store=smaller)


def test_store_of_an_equal_graph_is_accepted():
    """Equal probabilities on every pair pass, whatever the graph object
    and however the store's universe grew (a pair at 0 is absent)."""
    graph = random_graph(5)
    store = WorldStore(graph, n_samples=8, seed=1)
    u, v = next(
        (u, v) for u in range(graph.n_nodes)
        for v in range(u + 1, graph.n_nodes) if not graph.has_edge(u, v)
    )
    store.derive([(u, v, 0.0, 0.5)])  # grows a column at p = 0
    copy = UncertainGraph(graph.n_nodes, [e.as_tuple() for e in graph.edges()])
    recertifier = IncrementalRecertifier(copy, 2, 0.5, store=store)
    outcome = recertifier.apply(random_batch(copy, np.random.default_rng(2), 6))
    assert outcome.n_dirty_worlds is not None


# -- CLI + served update ------------------------------------------------ #

def _cli(argv):
    from repro.cli import CommandRuntime, _dispatch, build_parser

    out, err = io.StringIO(), io.StringIO()
    args = build_parser().parse_args(argv)
    code = _dispatch(args, out, err, CommandRuntime())
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def published_setup(tmp_path):
    graph = random_graph(5, n=60, n_edges=200)
    pub = tmp_path / "pub.pel"
    write_edge_list(graph, pub)
    on_disk = read_edge_list(pub)
    rng = np.random.default_rng(2)
    batch = random_batch(on_disk, rng, 5)
    upd = tmp_path / "batch.upd"
    write_update_file(batch, upd)
    return pub, upd, on_disk, batch


def test_cli_update_end_to_end(published_setup, tmp_path):
    pub, upd, on_disk, batch = published_setup
    out_path = tmp_path / "out.pel"
    code, stdout, err = _cli([
        "update", str(pub), str(upd), str(out_path),
        "--k", "3", "--epsilon", "0.2", "--samples", "40",
    ])
    import json

    payload = json.loads(stdout)
    assert code == (0 if payload["satisfied"] else 1)
    assert payload["n_updates"] == len(batch)
    assert payload["samples"] == 40
    assert "update_discrepancy" in payload
    assert out_path.exists()

    # The written graph is the batch applied to the published graph
    # (no repair fired at this lax threshold).
    if payload["satisfied"] and not payload["repaired"]:
        result = read_edge_list(out_path)
        for u, v, old, new in batch.as_delta():
            written = round(new, 6)  # edge lists carry 6 decimals
            if written > 0:
                assert result.probability(u, v) == pytest.approx(
                    new, abs=5e-7
                )


@pytest.mark.parametrize("sigma", ["1e16", "1e17", "1e308"])
def test_cli_update_huge_sigma_draws_noise(tmp_path, sigma):
    """A huge repair sigma perturbs like U(0, 1) noise.  The hub batch
    pins hub 0's edges at p = 1 and every other edge sits at the
    max-entropy fixed point 1/2, so the repair, which targets hub 0,
    moves a pinned edge off 1 unless its noise drew 0: the truncated
    normal's span used to cancel to zero draws from sigma ~ 1e16, and
    near 1e308 the per-edge scale overflowed to a NaN probability
    (exit 2)."""
    import json

    graph, __, edges = hub_graph()
    pub = tmp_path / "hub.pel"
    write_edge_list(graph, pub)
    on_disk = read_edge_list(pub)
    # Knowledge: structural degrees, the expected degrees of the
    # all-certain graph.
    original = tmp_path / "certain.pel"
    write_edge_list(
        UncertainGraph(graph.n_nodes, [(u, v, 1.0) for u, v in edges]),
        original,
    )
    pinned = [
        (u, v, p, 1.0)
        for u, v, p in (e.as_tuple() for e in on_disk.edges()) if u == 0
    ]
    upd = tmp_path / "hub.upd"
    write_update_file(UpdateBatch.from_deltas(pinned), upd)
    out_path = tmp_path / "out.pel"
    code, stdout, err = _cli([
        "update", str(pub), str(upd), str(out_path), "--k", "4",
        "--epsilon", "0.08", "--original", str(original),
        "--sigma", sigma, "--sigma-max", sigma, "--samples", "0",
    ])
    assert code == 0, err
    payload = json.loads(stdout)
    assert payload["repaired"] and payload["satisfied"]
    released = read_edge_list(out_path).edge_probabilities
    assert np.isfinite(released).all()
    assert int((released == 1.0).sum()) <= len(pinned) // 2


def test_cli_update_rejects_stale_updates(published_setup, tmp_path):
    pub, upd, on_disk, batch = published_setup
    stale = UpdateBatch.from_deltas([
        (int(batch.us[0]), int(batch.vs[0]), 0.123456, 0.5)
    ])
    stale_path = tmp_path / "stale.upd"
    write_update_file(stale, stale_path)
    code, stdout, err = _cli([
        "update", str(pub), str(stale_path), str(tmp_path / "o.pel"),
        "--k", "3", "--epsilon", "0.2",
    ])
    assert code == 2
    assert "p_old" in err


def test_served_update_byte_identical(published_setup, tmp_path):
    from repro.server import ChameleonService

    pub, upd, on_disk, batch = published_setup
    service = ChameleonService()
    try:
        served_out = tmp_path / "served.pel"
        direct_out = tmp_path / "direct.pel"
        tail = ["--k", "3", "--epsilon", "0.2", "--samples", "30"]
        job = service._jobs.submit(
            ["update", str(pub), str(upd), str(served_out)] + tail
        )
        service._run_job(job)
        code, stdout, __ = _cli(
            ["update", str(pub), str(upd), str(direct_out)] + tail
        )
        assert job.state == "done", job.error
        assert job.exit_code == code
        assert job.stdout == stdout
        assert served_out.read_bytes() == direct_out.read_bytes()

        # Second serving rides the warm degree cache + warm store.
        repeat_out = tmp_path / "repeat.pel"
        repeat = service._jobs.submit(
            ["update", str(pub), str(upd), str(repeat_out)] + tail
        )
        service._run_job(repeat)
        assert repeat.state == "done", repeat.error
        assert repeat.stdout == stdout
        assert repeat_out.read_bytes() == direct_out.read_bytes()
    finally:
        service._executor.shutdown(wait=True, cancel_futures=True)


def test_served_update_leaves_warm_dataset_intact(tmp_path):
    """Served updates that add fresh pairs run on a clone of the warm
    dataset's degree cache; a later served anonymize of the same dataset
    must still match the one-shot run byte for byte."""
    from repro.server import ChameleonService

    pub = tmp_path / "pub.pel"
    write_edge_list(random_graph(5, n=60, n_edges=200), pub)
    on_disk = read_edge_list(pub)
    fresh = [
        (0, v, 0.0, 0.6) for v in range(1, on_disk.n_nodes)
        if not on_disk.has_edge(0, v)
    ][:2]
    upd = tmp_path / "fresh.upd"
    write_update_file(UpdateBatch.from_deltas(fresh), upd)
    tail = ["--method", "me", "--k", "3", "--epsilon", "0.2",
            "--trials", "2", "--seed", "7"]
    service = ChameleonService()
    try:
        for attempt in range(2):
            update = service._jobs.submit([
                "update", str(pub), str(upd),
                str(tmp_path / f"updated{attempt}.pel"),
                "--k", "3", "--epsilon", "0.2", "--samples", "0",
            ])
            service._run_job(update)
            assert update.state == "done", update.error
        served_out = tmp_path / "served.pel"
        direct_out = tmp_path / "direct.pel"
        job = service._jobs.submit(
            ["anonymize", str(pub), str(served_out)] + tail
        )
        service._run_job(job)
        code, stdout, __ = _cli(
            ["anonymize", str(pub), str(direct_out)] + tail
        )
        assert job.exit_code == code, job.error
        assert job.stdout == stdout
        assert served_out.read_bytes() == direct_out.read_bytes()
    finally:
        service._executor.shutdown(wait=True, cancel_futures=True)
