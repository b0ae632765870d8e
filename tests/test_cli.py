"""CLI smoke and behavior tests (driven in-process through main)."""

import json

import pytest

from repro.baselines import rep_an
from repro.cli import build_parser, main
from repro.ugraph import read_edge_list
from tests.checker_oracle import use_full_checker
from tests.connectivity_oracle import use_oracle_labeler
from tests.trial_faults import crash_at_probe

#: The five world-sampling subcommands, with their required arguments.
MONTE_CARLO_COMMANDS = (
    ["anonymize", "a.pel", "b.pel", "--k", "3"],
    ["check", "a.pel", "--k", "3"],
    ["update", "a.pel", "u.txt", "b.pel", "--k", "3"],
    ["evaluate", "a.pel", "b.pel"],
    ["discrepancy", "a.pel", "b.pel"],
)


def test_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["summary", "ppi"])
    assert args.command == "summary"


def test_generate_and_summary(tmp_path, capsys):
    out = tmp_path / "g.pel"
    assert main(["generate", "ppi", str(out), "--scale", "0.2",
                 "--seed", "1"]) == 0
    assert out.exists()
    graph = read_edge_list(out)
    assert graph.n_edges > 0
    capsys.readouterr()  # drop the generate progress line

    assert main(["summary", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["nodes"] == graph.n_nodes


def test_anonymize_and_check_and_evaluate(tmp_path, capsys):
    source = tmp_path / "orig.pel"
    target = tmp_path / "anon.pel"
    assert main(["generate", "ppi", str(source), "--scale", "0.2",
                 "--seed", "2"]) == 0
    capsys.readouterr()

    code = main([
        "anonymize", str(source), str(target),
        "--method", "me", "--k", "4", "--epsilon", "0.08",
        "--trials", "2", "--seed", "3",
    ])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["success"] is True
    assert target.exists()

    code = main(["check", str(target), "--k", "4", "--epsilon", "0.08",
                 "--original", str(source)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["satisfied"] is True

    code = main(["evaluate", str(source), str(target), "--samples", "60",
                 "--seed", "4"])
    rows = json.loads(capsys.readouterr().out)
    assert code == 0
    assert "average_degree" in rows


def test_check_failure_exit_code(tmp_path, capsys):
    source = tmp_path / "orig.pel"
    main(["generate", "ppi", str(source), "--scale", "0.2", "--seed", "5"])
    capsys.readouterr()
    # An unanonymized heavy-tailed graph cannot satisfy a huge k.
    code = main(["check", str(source), "--k", "60", "--epsilon", "0.0"])
    assert code == 1


def test_error_reported_as_exit_2(tmp_path, capsys):
    code = main(["summary", "/does/not/exist.pel"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_report_subcommand(tmp_path, capsys):
    source = tmp_path / "orig.pel"
    target = tmp_path / "anon.pel"
    report_path = tmp_path / "release.md"
    main(["generate", "ppi", str(source), "--scale", "0.2", "--seed", "6"])
    main(["anonymize", str(source), str(target), "--method", "me",
          "--k", "4", "--epsilon", "0.08", "--trials", "2", "--seed", "7"])
    capsys.readouterr()

    code = main(["report", str(source), str(target), "--k", "4",
                 "--epsilon", "0.08", "--samples", "40", "--seed", "8",
                 "--output", str(report_path)])
    assert code == 0
    text = report_path.read_text()
    assert text.startswith("# Uncertain-graph anonymization report")
    assert "SATISFIED" in text


def test_report_to_stdout(tmp_path, capsys):
    source = tmp_path / "orig.pel"
    main(["generate", "ppi", str(source), "--scale", "0.2", "--seed", "9"])
    capsys.readouterr()
    code = main(["report", str(source), str(source), "--k", "2",
                 "--epsilon", "0.5", "--samples", "30", "--seed", "10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "## Utility preservation" in out


REP_AN_ARGS = ["--method", "rep-an", "--k", "3", "--epsilon", "0.1",
               "--trials", "2", "--seed", "15"]


def test_anonymize_repan_method(tmp_path, capsys):
    """A plain rep-an run prints the library's summary; the uniform
    --world-memory-budget flag is accepted and changes nothing."""
    source = tmp_path / "orig.pel"
    target = tmp_path / "anon.pel"
    main(["generate", "ppi", str(source), "--scale", "0.2", "--seed", "14"])
    capsys.readouterr()
    code = main(["anonymize", str(source), str(target)] + REP_AN_ARGS)
    stdout = capsys.readouterr().out
    summary = json.loads(stdout)
    assert code == 0
    assert summary["method"] == "rep-an"
    assert target.exists()
    expected = rep_an(read_edge_list(source), 3, 0.1, seed=15, n_trials=2)
    assert stdout == json.dumps(
        expected.summary(include_timing=False), indent=2
    ) + "\n"

    budgeted = tmp_path / "budgeted.pel"
    code = main(["anonymize", str(source), str(budgeted)] + REP_AN_ARGS
                + ["--world-memory-budget", "64k"])
    assert code == 0
    assert capsys.readouterr().out == stdout
    assert budgeted.read_bytes() == target.read_bytes()


@pytest.mark.parametrize("flag, extra", [
    ("--checkpoint", ["--checkpoint", "journal.jsonl"]),
    ("--resume", ["--resume"]),
    ("--utility-samples", ["--utility-samples", "20"]),
])
def test_anonymize_repan_rejects_sigma_search_flags(
    tmp_path, capsys, monkeypatch, flag, extra
):
    """Rep-An runs no sigma search: a flag that only steers one is an
    error naming the flag, not silently ignored."""
    monkeypatch.chdir(tmp_path)
    main(["generate", "ppi", "orig.pel", "--scale", "0.2", "--seed", "14"])
    capsys.readouterr()
    code = main(["anonymize", "orig.pel", "anon.pel"] + REP_AN_ARGS + extra)
    captured = capsys.readouterr()
    assert code == 2
    assert flag in captured.err and "rep-an" in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["orig.pel"]


def test_anonymize_failure_exit_code(tmp_path, capsys):
    source = tmp_path / "orig.pel"
    target = tmp_path / "anon.pel"
    main(["generate", "ppi", str(source), "--scale", "0.2", "--seed", "16"])
    capsys.readouterr()
    # k close to n with zero tolerance is unachievable (but valid input).
    code = main([
        "anonymize", str(source), str(target),
        "--method", "me", "--k", "60", "--epsilon", "0.0",
        "--trials", "1", "--seed", "17",
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert "FAILED" in err
    assert not target.exists()


def test_sweep_subcommand(tmp_path, capsys):
    source = tmp_path / "orig.pel"
    main(["generate", "ppi", str(source), "--scale", "0.2", "--seed", "12"])
    capsys.readouterr()
    code = main(["sweep", str(source), "--k", "3", "5",
                 "--epsilon", "0.08", "--method", "me",
                 "--trials", "2", "--samples", "60", "--seed", "13"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert any(ln.strip().startswith("3") for ln in lines)
    assert any(ln.strip().startswith("5") for ln in lines)
    assert "FAILED" not in out


def test_diagnose_subcommand(tmp_path, capsys):
    source = tmp_path / "orig.pel"
    main(["generate", "ppi", str(source), "--scale", "0.2", "--seed", "11"])
    capsys.readouterr()

    code = main(["diagnose", str(source), "--k", "4", "--epsilon", "0.05"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["feasible"] is True

    # An absurd k on a tiny graph is structurally infeasible: exit 1.
    code = main(["diagnose", str(source), "--k", "10000",
                 "--epsilon", "0.0"])
    assert code == 1


def test_backend_flags_parse(capsys):
    """The execution flag left: every world-sampling subcommand keeps
    ``--world-memory-budget``; ``--workers`` is gone from all of them
    (there is one trial engine and one connectivity labeler)."""
    parser = build_parser()
    for command_tail in (*MONTE_CARLO_COMMANDS,
                         ["sweep", "a.pel", "--k", "3"]):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(command_tail + ["--workers", "2"])
        assert exc.value.code == 2
    for command_tail in MONTE_CARLO_COMMANDS:
        args = parser.parse_args(
            command_tail + ["--world-memory-budget", "64m"]
        )
        assert args.world_memory_budget == 64 * 1024**2
        assert not hasattr(args, "backend")
        assert not hasattr(args, "workers")
    capsys.readouterr()


def test_checker_flag_parses_and_rejects_unknown(capsys):
    """``--checker`` is gone (the full checker is a test oracle now):
    every value, the former ``full`` included, is a usage error."""
    parser = build_parser()
    args = parser.parse_args(["anonymize", "a.pel", "b.pel", "--k", "3"])
    assert not hasattr(args, "checker")
    for value in ("full", "incremental", "magic"):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(
                ["anonymize", "a.pel", "b.pel", "--k", "3", "--checker", value]
            )
        assert exc.value.code == 2
    capsys.readouterr()


def test_thread_trial_backend_exits_2(capsys):
    """There is one trial engine: ``--trial-backend`` of any value, and
    ``--workers``, are usage errors on both commands that took them."""
    parser = build_parser()
    for command in (["anonymize", "a.pel", "b.pel", "--k", "3"],
                    ["sweep", "ppi", "--k", "3"]):
        args = parser.parse_args(command)
        assert not hasattr(args, "trial_backend")
        for flags in (["--trial-backend", "thread"],
                      ["--trial-backend", "serial"],
                      ["--trial-backend", "process"],
                      ["--trial-backend", "auto"],
                      ["--workers", "2"]):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(command + flags)
            assert exc.value.code == 2
    capsys.readouterr()


def test_shm_fault_exits_2(tmp_path, capsys):
    """The ``shm`` fault kind went with the worker pool it poisoned, and
    ``--faults`` with the in-library fault harness: a usage error."""
    source = tmp_path / "orig.pel"
    source.write_text("0 1 0.5\n1 2 0.5\n")
    with pytest.raises(SystemExit) as exc:
        main(["anonymize", str(source), str(tmp_path / "anon.pel"),
              "--k", "2", "--epsilon", "0.5", "--faults", "shm"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --faults shm" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--trial-timeout", "5.0"],
    ["--max-retries", "1"],
    ["--faults", "crash@0.0"],
])
def test_supervision_flags_exit_2(capsys, flags):
    """The sigma search runs unsupervised: the deadline, retry and
    fault-plan flags are usage errors on both search commands."""
    parser = build_parser()
    for command in (["anonymize", "a.pel", "b.pel", "--k", "3"],
                    ["sweep", "ppi", "--k", "3"]):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(command + flags)
        assert exc.value.code == 2
    capsys.readouterr()


def test_anonymize_with_full_checker(tmp_path, capsys, monkeypatch):
    """A run whose trial checks go through the full oracle writes the
    same bytes as the default incremental checker (the check draws
    nothing from the rng)."""
    source = tmp_path / "orig.pel"
    a = tmp_path / "anon-incremental.pel"
    b = tmp_path / "anon-full.pel"
    main(["generate", "ppi", str(source), "--scale", "0.2", "--seed", "6"])
    capsys.readouterr()
    common = ["--method", "me", "--k", "4", "--epsilon", "0.08",
              "--trials", "2", "--seed", "7"]
    assert main(["anonymize", str(source), str(a)] + common) == 0
    incremental_out = capsys.readouterr().out
    use_full_checker(monkeypatch)
    assert main(["anonymize", str(source), str(b)] + common) == 0
    assert capsys.readouterr().out == incremental_out
    assert a.read_bytes() == b.read_bytes()


def test_backend_flag_rejects_unknown(capsys):
    """There is one connectivity labeler: ``--backend`` of any value,
    every former engine name included, is a usage error."""
    for command_tail in MONTE_CARLO_COMMANDS:
        for value in ("auto", "batched-scipy", "process", "scipy",
                      "python", "gpu"):
            with pytest.raises(SystemExit) as exc:
                main(command_tail + ["--backend", value])
            assert exc.value.code == 2
    capsys.readouterr()


def test_workers_flag_rejects_non_positive(capsys):
    parser = build_parser()
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["serve", "--job-workers", "0"])
    assert exc.value.code == 2
    assert "--job-workers must be >= 1" in capsys.readouterr().err


def test_pipeline_with_batched_backend(tmp_path, capsys):
    source = tmp_path / "orig.pel"
    target = tmp_path / "anon.pel"
    main(["generate", "ppi", str(source), "--scale", "0.2", "--seed", "21"])
    capsys.readouterr()

    code = main([
        "anonymize", str(source), str(target),
        "--method", "rsme", "--k", "3", "--epsilon", "0.1",
        "--trials", "2", "--seed", "22",
    ])
    summary = json.loads(capsys.readouterr().out)
    assert code == 0
    assert summary["success"] is True

    code = main(["check", str(target), "--k", "3", "--epsilon", "0.1",
                 "--original", str(source)])
    capsys.readouterr()
    assert code == 0

    code = main(["evaluate", str(source), str(target), "--samples", "40",
                 "--seed", "23"])
    rows = json.loads(capsys.readouterr().out)
    assert code == 0
    assert "reliability" in rows


def test_resilience_flags_parse():
    parser = build_parser()
    args = parser.parse_args([
        "anonymize", "a.pel", "b.pel", "--k", "3",
        "--checkpoint", "search.jsonl", "--resume",
    ])
    assert args.checkpoint == "search.jsonl"
    assert args.resume is True
    # Defaults: no checkpoint, nothing to resume.
    args = parser.parse_args(["anonymize", "a.pel", "b.pel", "--k", "3"])
    assert args.checkpoint is None
    assert args.resume is False
    for retired in ("trial_timeout", "max_retries", "faults"):
        assert not hasattr(args, retired)


def test_resume_without_checkpoint_exit_2(tmp_path, capsys):
    source = tmp_path / "orig.pel"
    main(["generate", "ppi", str(source), "--scale", "0.2", "--seed", "30"])
    capsys.readouterr()
    code = main([
        "anonymize", str(source), str(tmp_path / "anon.pel"),
        "--method", "me", "--k", "4", "--epsilon", "0.08",
        "--trials", "2", "--seed", "31", "--resume",
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("journal, problem", [
    ("dir", "cannot read checkpoint journal"),
    ("missing/search.jsonl", "cannot open checkpoint journal"),
    (b"[1, 2]\n", "has no recognizable header"),
    (b"\xff\xfe\n", "line 1 is not UTF-8 text"),
])
def test_unusable_checkpoint_exit_3(tmp_path, capsys, journal, problem):
    """A checkpoint journal that cannot be read, written or resumed is
    exit 3 with one message naming it, never an internal error."""
    source = tmp_path / "orig.pel"
    target = tmp_path / "anon.pel"
    main(["generate", "ppi", str(source), "--scale", "0.2", "--seed", "32"])
    capsys.readouterr()
    if isinstance(journal, bytes):
        path = tmp_path / "search.jsonl"
        path.write_bytes(journal)
    else:
        path = tmp_path / journal
        if journal == "dir":
            path.mkdir()
    code = main([
        "anonymize", str(source), str(target),
        "--method", "me", "--k", "4", "--epsilon", "0.08",
        "--trials", "2", "--seed", "33",
        "--checkpoint", str(path), "--resume",
    ])
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" not in err
    assert err.startswith("resilience error: ") and problem in err
    assert str(path) in err
    assert not target.exists()


def test_fault_recovery_matches_clean_run(tmp_path, capsys, monkeypatch):
    """A run killed mid-search by a failing trial resumes from its
    checkpoint to the clean run's exact bytes."""
    source = tmp_path / "orig.pel"
    clean = tmp_path / "clean.pel"
    recovered = tmp_path / "recovered.pel"
    journal = tmp_path / "search.jsonl"
    main(["generate", "ppi", str(source), "--scale", "0.2", "--seed", "34"])
    capsys.readouterr()
    common = ["--method", "me", "--k", "4", "--epsilon", "0.08",
              "--trials", "2", "--seed", "35"]
    assert main(["anonymize", str(source), str(clean)] + common) == 0
    clean_summary = json.loads(capsys.readouterr().out)

    with monkeypatch.context() as patch:
        crash_at_probe(patch, 2)
        assert main(["anonymize", str(source), str(recovered),
                     "--checkpoint", str(journal)] + common) == 4
    assert "killed at probe 2" in capsys.readouterr().err
    assert not recovered.exists()
    assert len(journal.read_text().splitlines()) == 3  # header + 2 probes

    assert main(["anonymize", str(source), str(recovered),
                 "--checkpoint", str(journal), "--resume"] + common) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary == {**clean_summary, "resumed_probes": 2}
    assert summary["trial_retries"] == 0
    assert clean.read_bytes() == recovered.read_bytes()


def test_checkpoint_resume_roundtrip(tmp_path, capsys):
    source = tmp_path / "orig.pel"
    first = tmp_path / "first.pel"
    resumed = tmp_path / "resumed.pel"
    journal = tmp_path / "search.jsonl"
    main(["generate", "ppi", str(source), "--scale", "0.2", "--seed", "36"])
    capsys.readouterr()
    common = ["--method", "me", "--k", "4", "--epsilon", "0.08",
              "--trials", "2", "--seed", "37",
              "--checkpoint", str(journal)]
    assert main(["anonymize", str(source), str(first)] + common) == 0
    capsys.readouterr()
    assert journal.exists()
    assert main(["anonymize", str(source), str(resumed),
                 "--resume"] + common) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["resumed_probes"] > 0
    assert first.read_text() == resumed.read_text()


def test_evaluate_backend_equivalence(tmp_path, capsys, monkeypatch):
    """Seeded evaluate output is byte-identical whether worlds are
    labeled by the batched kernel or by the per-world oracle."""
    source = tmp_path / "orig.pel"
    target = tmp_path / "anon.pel"
    main(["generate", "ppi", str(source), "--scale", "0.2", "--seed", "24"])
    main(["anonymize", str(source), str(target), "--method", "me",
          "--k", "3", "--epsilon", "0.1", "--trials", "2", "--seed", "25"])
    capsys.readouterr()

    argv = ["evaluate", str(source), str(target), "--samples", "40",
            "--seed", "26"]
    assert main(argv) == 0
    batched = capsys.readouterr().out
    use_oracle_labeler(monkeypatch)
    assert main(argv) == 0
    assert capsys.readouterr().out == batched


def _single_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


@pytest.mark.parametrize("command", ["check", "anonymize", "update"])
def test_undecodable_input_exits_2(tmp_path, capsys, command):
    """A file that is not UTF-8 text is bad input: exit 2 with one
    ``error:`` line naming the file, never an internal-error traceback."""
    published = tmp_path / "published.pel"
    published.write_text("0 1 0.5\n1 2 0.5\n")
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe0 1 0.5 0.6\n")
    argv = {
        "check": ["check", str(bad), "--k", "2"],
        "anonymize": ["anonymize", str(bad), str(tmp_path / "out.pel"),
                      "--k", "2", "--seed", "1"],
        "update": ["update", str(published), str(bad),
                   str(tmp_path / "out.pel"), "--k", "2"],
    }[command]
    assert main(argv) == 2
    assert str(bad) in _single_error_line(capsys)


def test_update_vertex_id_beyond_int64_exits_2(tmp_path, capsys):
    """An update vertex id no int64 holds is bad input: exit 2 with one
    ``error:`` line naming the file and line, not an overflow
    traceback."""
    published = tmp_path / "published.pel"
    published.write_text("0 1 0.5\n1 2 0.5\n")
    updates = tmp_path / "u.txt"
    updates.write_text("# u v p_old p_new\n0 100000000000000000000000 0 0.5\n")
    argv = ["update", str(published), str(updates),
            str(tmp_path / "out.pel"), "--k", "2", "--epsilon", "0.5"]
    assert main(argv) == 2
    assert f"{updates}:2:" in _single_error_line(capsys)


def test_directory_as_graph_exits_2(tmp_path, capsys):
    """A directory where an edge-list file belongs is bad input: exit 2
    with one ``error:`` line naming it."""
    folder = tmp_path / "graphs"
    folder.mkdir()
    assert main(["check", str(folder), "--k", "2"]) == 2
    assert str(folder) in _single_error_line(capsys)


def test_broken_pipe_exits_141(monkeypatch, capsys):
    """A vanished consumer (`chameleon ... | head`) is the conventional
    128 + SIGPIPE exit, not the internal-error exit 4."""
    from repro import cli

    def raiser(args, out, err, runtime):
        raise BrokenPipeError

    monkeypatch.setitem(cli._COMMANDS, "capabilities", raiser)
    assert cli.main(["capabilities"]) == 141
    assert "internal error" not in capsys.readouterr().err


#: Every subcommand taking ``--seed``, ``--samples``, ``--scale``,
#: ``--sigma``, ``--sigma-max`` or ``--multiplier``: its argv before the
#: flag.  ``{graph}`` is an edge-list file, ``{updates}`` an update file
#: and ``{out}`` the file the command would write.
NUMERIC_FLAG_COMMANDS = {
    "generate": ["generate", "ppi", "{out}"],
    "anonymize": ["anonymize", "{graph}", "{out}", "--k", "2"],
    "discrepancy": ["discrepancy", "{graph}", "{graph}"],
    "evaluate": ["evaluate", "{graph}", "{graph}"],
    "report": ["report", "{graph}", "{graph}", "--k", "2",
               "--output", "{out}"],
    "sweep": ["sweep", "{graph}", "--k", "2"],
    "summary": ["summary", "ppi"],
    "update": ["update", "{graph}", "{updates}", "{out}", "--k", "2",
               "--samples", "5"],
    "diagnose": ["diagnose", "{graph}", "--k", "2"],
}

NUMERIC_FLAG_CASES = [
    *[(command, "--seed", value)
      for command in NUMERIC_FLAG_COMMANDS if command != "diagnose"
      for value in ("-1", "nan", "inf")],
    *[(command, "--samples", value)
      for command in ("discrepancy", "evaluate", "report", "sweep")
      for value in ("-1", "0", "nan", "inf")],
    *[("update", "--samples", value) for value in ("-1", "-2", "nan", "inf")],
    *[("generate", "--scale", value) for value in ("-1", "0", "nan", "inf")],
    *[(command, flag, value)
      for command, flag in (("update", "--sigma"), ("update", "--sigma-max"),
                            ("update", "--multiplier"),
                            ("diagnose", "--multiplier"))
      for value in ("nan", "inf", "-1", "0")],
]


def _numeric_flag_argv(tmp_path, command):
    graph = tmp_path / "graph.pel"
    graph.write_text("0 1 0.5\n1 2 0.5\n2 3 0.5\n")
    updates = tmp_path / "updates.txt"
    updates.write_text("0 1 0.5 0.6\n")
    out = tmp_path / "out.pel"
    argv = [part.format(graph=graph, updates=updates, out=out)
            for part in NUMERIC_FLAG_COMMANDS[command]]
    return argv, out


@pytest.mark.parametrize("command, flag, value", NUMERIC_FLAG_CASES)
def test_bad_numeric_flag_is_a_usage_error(
    tmp_path, capsys, command, flag, value
):
    """A negative seed, a non-positive sample count (negative for
    ``update``, where 0 disables), a non-finite or non-positive scale or
    sigma rung and a non-finite multiplier below 1 are usage errors:
    exit 2 naming the flag, no traceback and no output file -- and the
    service refuses the job at parse time."""
    from repro.exceptions import ServerError
    from repro.server.service import _parse_job_argv

    argv, out = _numeric_flag_argv(tmp_path, command)
    argv += [flag, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "usage:" in err and f"argument {flag}: {flag} must be" in err
    assert not out.exists()
    with pytest.raises(ServerError, match=f"cannot parse.*{flag} must be"):
        _parse_job_argv(argv)


@pytest.mark.parametrize("command, flag, text, expected", [
    ("summary", "--seed", "0", 0),
    ("generate", "--seed", "12", 12),
    ("evaluate", "--samples", "1", 1),
    ("update", "--samples", "0", 0),
    ("generate", "--scale", "0.25", 0.25),
    ("generate", "--scale", "1e-3", 1e-3),
    ("update", "--sigma", "0.25", 0.25),
    ("update", "--sigma-max", "8", 8.0),
    ("update", "--multiplier", "1", 1.0),
    ("diagnose", "--multiplier", "2.5", 2.5),
])
def test_valid_numeric_flags_parse_as_before(
    tmp_path, command, flag, text, expected
):
    argv, __ = _numeric_flag_argv(tmp_path, command)
    args = build_parser().parse_args(argv + [flag, text])
    value = getattr(args, flag.lstrip("-").replace("-", "_"))
    assert value == expected and type(value) is type(expected)


def test_valid_numeric_flags_keep_their_stdout(tmp_path, capsys):
    """In-range values run as before: ``generate`` prints the counts of
    the graph the library builds, and ``update --samples 0`` reports no
    utility tracking."""
    from repro.datasets import load_dataset

    out = tmp_path / "g.pel"
    assert main(["generate", "ppi", str(out), "--scale", "0.2",
                 "--seed", "0"]) == 0
    graph = load_dataset("ppi", scale=0.2, seed=0)
    assert capsys.readouterr().out == (
        f"wrote {graph.n_nodes} nodes / {graph.n_edges} edges to {out}\n"
    )
    argv, target = _numeric_flag_argv(tmp_path, "update")
    assert main(argv + ["--samples", "0", "--epsilon", "0.9"]) in (0, 1)
    payload = json.loads(capsys.readouterr().out)
    assert "samples" not in payload and target.exists()


@pytest.mark.parametrize("value", ["store", "fresh"])
def test_evaluate_engine_flag_exits_2(tmp_path, capsys, value):
    """There is one reliability estimator: ``evaluate --engine`` of any
    value, the former default included, is a usage error."""
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "a.pel", "b.pel", "--engine", value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --engine {value}" in \
        capsys.readouterr().err
