"""Warm anonymization service tests.

The load-bearing property: a served job is byte-identical to the same
argv run one-shot through the CLI.  Everything else -- result cache,
bounded queue, cooperative cancellation, the TCP protocol -- is tested
around that invariant.
"""

import io
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import CommandRuntime, _dispatch, build_parser
from repro.exceptions import ServerError
from repro.reliability import WorldStore
from repro.server import (
    CachedResult,
    ChameleonService,
    DatasetRegistry,
    JobCancelled,
    JobQueue,
    ResultCache,
    ServiceClient,
    job_fingerprint,
)
from repro.server.service import _make_runtime, _parse_job_argv


def one_shot(argv):
    """Run a subcommand exactly as ``main`` would (cold runtime)."""
    out, err = io.StringIO(), io.StringIO()
    args = build_parser().parse_args(argv)
    code = _dispatch(args, out, err, CommandRuntime())
    return code, out.getvalue()


def serve_job(service, argv):
    """Run one job synchronously through the service's executor path."""
    job = service._jobs.submit(list(argv))
    service._run_job(job)
    return job


@pytest.fixture(scope="module")
def toy_graph(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "toy.pel"
    code, _ = one_shot(["generate", "ppi", str(path), "--scale", "0.2",
                        "--seed", "5"])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def warm_service():
    """One service reused across tests, so later jobs hit warm state."""
    service = ChameleonService()
    yield service
    service._executor.shutdown(wait=True, cancel_futures=True)


# -- bit-identity: served == one-shot --------------------------------- #

@settings(max_examples=3, deadline=None)
@given(seed=st.integers(min_value=0, max_value=9999),
       k=st.sampled_from([3, 4, 5]))
def test_served_anonymize_bit_identical(warm_service, toy_graph,
                                        tmp_path_factory, seed, k):
    """Property: for any (seed, k), serving anonymize through the warm
    runtime yields the same stdout, exit code and output bytes as a
    cold one-shot run."""
    workdir = tmp_path_factory.mktemp("prop")
    served_out = workdir / "served.pel"
    direct_out = workdir / "direct.pel"
    tail = ["--method", "me", "--k", str(k), "--epsilon", "0.08",
            "--trials", "2", "--seed", str(seed)]

    job = serve_job(warm_service,
                    ["anonymize", str(toy_graph), str(served_out)] + tail)
    code, stdout = one_shot(
        ["anonymize", str(toy_graph), str(direct_out)] + tail)

    assert job.state == "done"
    assert job.exit_code == code
    assert job.stdout == stdout
    assert served_out.read_bytes() == direct_out.read_bytes()


def test_served_check_evaluate_discrepancy_match(warm_service, toy_graph,
                                                 tmp_path):
    """check / evaluate / discrepancy ride the warm degree cache and
    warm world stores; their bytes must not notice."""
    anon = tmp_path / "anon.pel"
    code, _ = one_shot(["anonymize", str(toy_graph), str(anon),
                        "--method", "me", "--k", "4", "--epsilon", "0.08",
                        "--trials", "2", "--seed", "21"])
    assert code == 0

    for argv in (
        ["check", str(anon), "--k", "2", "--epsilon", "0.5",
         "--original", str(toy_graph)],
        ["evaluate", str(toy_graph), str(anon), "--samples", "60",
         "--seed", "22"],
        ["discrepancy", str(toy_graph), str(anon), "--samples", "60",
         "--seed", "23"],
    ):
        job = serve_job(warm_service, argv)
        code, stdout = one_shot(argv)
        assert job.state == "done", (argv, job.error)
        assert job.exit_code == code
        assert job.stdout == stdout
        # the second serving of the same argv exercises the warm paths
        # built by the first; bytes still identical
        repeat = serve_job(warm_service, argv)
        assert repeat.stdout == stdout


def test_probe_events_reported(warm_service, toy_graph, tmp_path):
    job = serve_job(warm_service, [
        "anonymize", str(toy_graph), str(tmp_path / "a.pel"),
        "--method", "me", "--k", "4", "--epsilon", "0.08",
        "--trials", "2", "--seed", "40",
    ])
    snapshot = job.snapshot()
    assert snapshot["n_events"] > 0
    assert any(event["type"] == "probe" for event in snapshot["events"])
    assert all("sigma" in event for event in snapshot["events"]
               if event["type"] == "probe")


# -- result cache ------------------------------------------------------ #

def test_cache_hit_replays_without_rerun(toy_graph, tmp_path):
    service = ChameleonService()
    target = tmp_path / "anon.pel"
    argv = ["anonymize", str(toy_graph), str(target),
            "--method", "me", "--k", "4", "--epsilon", "0.08",
            "--trials", "2", "--seed", "31"]

    first = serve_job(service, argv)
    assert first.state == "done" and not first.cached
    produced = target.read_bytes()

    target.unlink()
    second = serve_job(service, argv)
    assert second.cached, "identical request must be served from cache"
    assert second.stdout == first.stdout
    assert second.exit_code == first.exit_code
    # a cached job never re-runs the sigma search: no probe events
    assert second.snapshot()["n_events"] == 0
    # ... and the replay rewrote the output file byte-for-byte
    assert target.read_bytes() == produced
    assert service._cache.stats()["hits"] == 1


def test_unseeded_job_bypasses_cache():
    service = ChameleonService()
    argv = ["summary", "ppi"]  # no --seed: fresh entropy per load
    first = serve_job(service, argv)
    second = serve_job(service, argv)
    assert first.state == "done"
    assert first.fingerprint is None
    assert not second.cached
    assert service._cache.stats() == {
        "entries": 0, "max_entries": 128, "hits": 0, "misses": 0,
    }


def test_fingerprint_keys(toy_graph, tmp_path):
    parse = build_parser().parse_args

    common = ["--k", "4", "--seed", "1"]
    base = ["anonymize", str(toy_graph), str(tmp_path / "x.pel")] + common
    key = job_fingerprint(parse(base))
    assert key == job_fingerprint(parse(list(base)))
    assert key != job_fingerprint(parse(base[:-1] + ["2"]))
    other_out = ["anonymize", str(toy_graph),
                 str(tmp_path / "y.pel")] + common
    assert key != job_fingerprint(parse(other_out))

    # editing the input file invalidates the key (content, not path)
    copy = tmp_path / "copy.pel"
    copy.write_bytes(toy_graph.read_bytes())
    moved = ["anonymize", str(copy), str(tmp_path / "x.pel")] + common
    assert job_fingerprint(parse(moved)) == key  # same bytes, same key
    copy.write_bytes(toy_graph.read_bytes() + b"# tweak\n")
    assert job_fingerprint(parse(moved)) != key

    # unseeded jobs and unservable inputs fingerprint to None
    assert job_fingerprint(parse(["anonymize", str(toy_graph),
                                  str(tmp_path / "x.pel"),
                                  "--k", "4"])) is None
    assert job_fingerprint(parse(["capabilities"])) is None


def test_result_cache_lru_and_file_replay(tmp_path):
    cache = ResultCache(max_entries=2)
    target = tmp_path / "out.bin"
    cache.put("a", CachedResult(0, "A", "", {str(target): b"payload"}))
    cache.put("b", CachedResult(0, "B", "", {}))
    cache.put("c", CachedResult(1, "C", "", {}))
    assert cache.get("a") is None, "oldest entry must be evicted"
    hit = cache.get("c")
    assert hit.exit_code == 1

    cache.put("a", CachedResult(0, "A", "", {str(target): b"payload"}))
    cache.get("a").replay()
    assert target.read_bytes() == b"payload"


# -- job queue / cancellation ------------------------------------------ #

def test_queue_full_rejected():
    queue = JobQueue(max_pending=1)
    queue.submit(["summary", "ppi"])
    with pytest.raises(ServerError, match="full"):
        queue.submit(["summary", "ppi"])


def test_unknown_job_rejected():
    queue = JobQueue()
    with pytest.raises(ServerError, match="unknown job"):
        queue.get("j999")


def test_parse_rejects_non_servable_and_bad_argv():
    with pytest.raises(ServerError, match="not servable"):
        _parse_job_argv(["serve"])
    with pytest.raises(ServerError, match="not servable"):
        _parse_job_argv(["shutdown"])
    with pytest.raises(ServerError, match="empty"):
        _parse_job_argv([])
    with pytest.raises(ServerError, match="cannot parse"):
        _parse_job_argv(["anonymize"])  # missing required arguments


def test_cancel_before_start(toy_graph, tmp_path):
    service = ChameleonService()
    job = service._jobs.submit([
        "anonymize", str(toy_graph), str(tmp_path / "a.pel"),
        "--method", "me", "--k", "4", "--epsilon", "0.08", "--seed", "1",
    ])
    job.cancel()
    service._run_job(job)
    assert job.state == "cancelled"
    assert job.started_at is None
    assert not (tmp_path / "a.pel").exists()


def test_observer_raises_after_cancel(toy_graph):
    service = ChameleonService()
    job = service._jobs.submit(["summary", str(toy_graph)])
    runtime = _make_runtime(service._registry, job)
    runtime.probe_observer({"type": "probe", "probe": 0})
    assert job.snapshot()["n_events"] == 1
    job.cancel()
    with pytest.raises(JobCancelled):
        runtime.probe_observer({"type": "probe", "probe": 1})


def test_cancel_mid_run(toy_graph, tmp_path):
    """Cooperative cancellation lands at a probe boundary: a running
    job slowed by injected delays ends up 'cancelled', not 'done'."""
    service = ChameleonService()
    job = service._jobs.submit([
        "anonymize", str(toy_graph), str(tmp_path / "slow.pel"),
        "--method", "me", "--k", "4", "--epsilon", "0.08",
        "--trials", "2", "--seed", "50",
        "--faults", "delay@*.*:0.4x1000",
    ])
    timer = threading.Timer(0.2, job.cancel)
    timer.start()
    try:
        service._run_job(job)
    finally:
        timer.cancel()
    assert job.state == "cancelled"
    assert job.exit_code is None


# -- warm state is bit-identical to cold state ------------------------- #

def test_registry_degree_cache_returns_fresh_clones(toy_graph):
    registry = DatasetRegistry()
    graph = registry.load(str(toy_graph))
    first = registry.degree_cache(graph)
    second = registry.degree_cache(graph)
    assert first is not None and second is not None
    assert first is not second, "warm cache must be cloned per job"
    assert registry.stats()["warm_degree_caches"] == 1


def test_registry_unknown_graph_falls_back_cold(toy_graph):
    registry = DatasetRegistry()
    graph = CommandRuntime().load(str(toy_graph))  # not via the registry
    assert registry.degree_cache(graph) is None
    store = registry.world_store(graph, 30, 1)
    assert store.discrepancy is not None  # plain cold store, usable


def test_worldstore_clone_bit_identity(toy_graph):
    graph = CommandRuntime().load(str(toy_graph))
    u = int(graph.edge_src[0])
    v = int(graph.edge_dst[0])
    p = float(graph.edge_probabilities[0])
    delta = [(u, v, p, min(1.0, p / 2 + 0.25))]

    pristine = WorldStore(graph, n_samples=40, seed=9)
    twin = pristine.clone()

    fresh = WorldStore(graph, n_samples=40, seed=9)
    expected = fresh.discrepancy(fresh.derive(delta), seed=3)
    assert twin.discrepancy(twin.derive(delta), seed=3) == expected
    # consuming the clone must not disturb the pristine original
    assert pristine.clone().discrepancy(
        pristine.clone().derive(delta), seed=3) == expected


def test_registry_evicts_lru(toy_graph, tmp_path):
    registry = DatasetRegistry(max_datasets=1)
    registry.load(str(toy_graph))
    other = tmp_path / "other.pel"
    other.write_bytes(toy_graph.read_bytes() + b"\n")
    registry.load(str(other))
    stats = registry.stats()
    assert stats["datasets"] == 1
    assert stats["evictions"] == 1


# -- the TCP protocol --------------------------------------------------- #

@pytest.fixture()
def live_service():
    import asyncio

    service = ChameleonService(port=0)
    ready = threading.Event()
    endpoint = {}

    def announce(host, port):
        endpoint["port"] = port
        ready.set()

    thread = threading.Thread(
        target=lambda: asyncio.run(service.run(announce=announce)),
        daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=30), "service did not start"
    client = ServiceClient("127.0.0.1", endpoint["port"], timeout=120.0)
    yield client
    client.request({"op": "shutdown"})
    thread.join(timeout=30)
    assert not thread.is_alive()


def test_tcp_protocol_roundtrip(live_service, toy_graph):
    argv = ["summary", str(toy_graph)]
    reply = live_service.request({"op": "submit", "argv": argv})
    job_id = reply["job"]

    result = live_service.request(
        {"op": "result", "job": job_id, "wait": True})["result"]
    code, stdout = one_shot(argv)
    assert result["state"] == "done"
    assert result["exit"] == code
    assert result["stdout"] == stdout

    status = live_service.request({"op": "status", "job": job_id})["job"]
    assert status["state"] == "done"
    assert "stdout" not in status  # status is the lightweight view

    stats = live_service.request({"op": "stats"})["stats"]
    assert stats["queue"]["done"] >= 1
    assert "shm_segments" not in stats

    with pytest.raises(ServerError, match="unknown job"):
        live_service.request({"op": "status", "job": "j999"})
    with pytest.raises(ServerError, match="unknown op"):
        live_service.request({"op": "frobnicate"})
    with pytest.raises(ServerError, match="not servable"):
        live_service.request({"op": "submit", "argv": ["serve"]})


def test_tcp_concurrent_submissions(live_service, toy_graph):
    """Interleaved clients: every reply matches its own one-shot run."""
    argvs = [["summary", str(toy_graph)],
             ["diagnose", str(toy_graph), "--k", "4",
              "--epsilon", "0.08"],
             ["check", str(toy_graph), "--k", "2", "--epsilon", "0.5"]]
    results = [None] * len(argvs)

    def submit(index):
        reply = live_service.request(
            {"op": "submit", "argv": argvs[index], "wait": True})
        results[index] = reply["result"]

    threads = [threading.Thread(target=submit, args=(i,))
               for i in range(len(argvs))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)

    for argv, result in zip(argvs, results):
        assert result is not None, f"no reply for {argv}"
        code, stdout = one_shot(argv)
        assert result["state"] == "done", (argv, result["error"])
        assert result["exit"] == code
        assert result["stdout"] == stdout


def test_oversize_frame_gets_protocol_error(live_service, caplog):
    """A request line past the 64 KiB stream limit gets one protocol
    error instead of a reset connection and a logged traceback, and the
    service keeps answering new connections."""
    import json
    import logging
    import socket

    endpoint = (live_service._host, live_service._port)
    frame = b'{"op": "stats", "pad": "' + b"x" * (70 * 1024) + b'"}\n'
    with caplog.at_level(logging.ERROR):
        with socket.create_connection(endpoint, timeout=30) as sock:
            stream = sock.makefile("rwb")
            stream.write(frame)
            stream.flush()
            reply = json.loads(stream.readline())
        assert reply == {
            "ok": False, "error": "request frame exceeds 65536 bytes",
        }
        assert live_service.request({"op": "stats"})["ok"]
    assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []
