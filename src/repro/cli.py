"""Command-line interface: ``chameleon <subcommand>``.

Subcommands
-----------
``generate``   materialize a dataset profile as an edge-list file
``anonymize``  run a method (rsme / rs / me / rep-an) on a graph file
``check``      evaluate the (k, epsilon)-obfuscation criterion
``update``     apply an edge-probability update batch and re-certify
               incrementally (patch caches, repair violations locally)
``evaluate``   compare an anonymized graph against the original
``discrepancy``  reliability discrepancy via one CRN world store
``summary``    print Table-I style dataset characteristics
``capabilities``  report the execution environment (library versions,
               usable CPUs, REPRO_* knobs)
``serve``      run the warm anonymization service (see ``repro.server``)
``submit`` / ``status`` / ``result`` / ``cancel`` / ``stats`` /
``shutdown``   talk to a running service

All one-shot subcommands speak the probabilistic edge-list format
(``u v p`` lines) so they compose through the filesystem.

Execution/IO boundary
---------------------
Every subcommand implementation takes ``(args, out, err, runtime)``:
``out``/``err`` are explicit text streams (so the service can capture a
job's bytes without touching process-global stdio) and ``runtime`` is a
:class:`CommandRuntime` supplying dataset loading and warm state.  The
cold runtime used by one-shot runs builds everything from scratch; the
service substitutes bit-identical warm clones.  Because both paths run
the *same* command functions, a served result is byte-identical to the
equivalent one-shot run by construction.

Exit codes
----------
``0``  success
``1``  the run completed but its goal was not met (no obfuscation
       found, criterion unsatisfied, infeasible target)
``2``  a library error (bad input, bad configuration, service protocol)
``3``  supervised execution exhausted its retries or a checkpoint
       could not be resumed
``4``  an unexpected internal error (traceback on stderr)
``141``  the output consumer closed the pipe early (128 + SIGPIPE);
       conventional for ``chameleon ... | head``-style pipelines
"""

from __future__ import annotations

import argparse
import io
import json
import os
import signal
import sys
import traceback

from .baselines import rep_an
from .core import anonymize
from .datasets import dataset_tolerance, load_dataset
from .exceptions import ReproError, ResilienceError, ServerError

#: Exit code of a run whose goal was not met (infeasible target).
EXIT_UNSATISFIED = 1
#: Exit code for library errors (bad input or configuration).
EXIT_ERROR = 2
#: Exit code when supervision (bounded retries) was exhausted.
EXIT_RESILIENCE = 3
#: Exit code for unexpected internal errors.
EXIT_INTERNAL = 4
#: Exit code when stdout's consumer vanished mid-write (128 + SIGPIPE).
EXIT_SIGPIPE = 128 + int(getattr(signal, "SIGPIPE", 13))
from .metrics import compare_graphs
from .privacy import check_obfuscation, expected_degree_knowledge
from .ugraph import read_edge_list, summarize, write_edge_list

__all__ = ["main", "build_parser", "CommandRuntime"]


class CommandRuntime:
    """The execution/IO boundary behind every subcommand.

    One-shot CLI runs use this cold implementation: datasets load from
    scratch and no warm state exists, so ``degree_cache`` returns None
    (the anonymizer builds its own) and ``world_store`` builds fresh.
    The anonymization service substitutes a warm runtime backed by
    :class:`repro.server.registry.DatasetRegistry` whose overrides hand
    out cached datasets and *clones* of per-dataset caches.

    The contract every override must keep: whatever it returns must be
    bit-identical to what this cold implementation would have produced
    for the same arguments.  That single invariant is why a served
    result can be byte-compared against a one-shot run
    (``tests/test_server.py`` does exactly that).
    """

    #: Per-probe progress callback threaded into the sigma search and
    #: sweeps (None: no progress reporting).  The service binds this to
    #: the job's event log and cancellation flag.
    probe_observer = None

    def load(self, source, scale: float = 1.0, seed=None):
        """Load a dataset from a profile name or an edge-list path."""
        return load_dataset(source, scale=scale, seed=seed)

    def degree_cache(self, graph):
        """A warm :class:`DegreeUncertaintyCache` for ``graph``, or None.

        None means "build cold inside the anonymizer" -- the cache's
        output is bit-identical either way, so this hook only moves the
        O(n * d^2) construction cost, never the result.
        """
        return None

    def world_store(self, graph, n_samples, seed, memory_budget=None):
        """A pristine CRN world store for ``(graph, n_samples, seed)``."""
        from .reliability.worldstore import WorldStore

        return WorldStore(
            graph, n_samples, seed=seed, memory_budget=memory_budget
        )


def _worker_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"--job-workers must be >= 1, got {value}"
        )
    return value


def _byte_budget(text: str) -> int:
    """Parse a byte count with optional k/m/g suffix (e.g. ``256m``)."""
    raw = text.strip().lower()
    scale = {"k": 1024, "m": 1024**2, "g": 1024**3}.get(raw[-1:], 1)
    digits = raw[:-1] if scale != 1 else raw
    try:
        value = int(digits) * scale
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a byte count like 512m, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"memory budget must be positive, got {text!r}"
        )
    return value


def _add_memory_budget_argument(subparser: argparse.ArgumentParser) -> None:
    """World-state budget flag shared by the Monte-Carlo subcommands."""
    subparser.add_argument(
        "--world-memory-budget", type=_byte_budget, default=None,
        help="byte cap on the world store's per-chunk temporaries and "
             "pair-equality cache (suffixes k/m/g accepted); the store "
             "chunks its matrices to fit -- results are bit-identical "
             "(default: unbounded)",
    )


def _add_endpoint_arguments(subparser: argparse.ArgumentParser) -> None:
    """Flags locating a running service (client subcommands)."""
    subparser.add_argument(
        "--host", default="127.0.0.1",
        help="service address (default: 127.0.0.1)",
    )
    subparser.add_argument(
        "--port", type=int, default=None, help="service port",
    )
    subparser.add_argument(
        "--port-file", default=None,
        help="file holding the service port "
             "(written by 'serve --port-file')",
    )


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests, docs and the service)."""
    parser = argparse.ArgumentParser(
        prog="chameleon",
        description="Reliability-preserving anonymization of uncertain graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="materialize a dataset profile")
    gen.add_argument("profile", help="dblp | brightkite | ppi")
    gen.add_argument("output", help="edge-list file to write")
    gen.add_argument("--scale", type=float, default=1.0)
    gen.add_argument("--seed", type=int, default=None)

    anon = sub.add_parser("anonymize", help="anonymize an uncertain graph")
    anon.add_argument("input", help="edge-list file or profile name")
    anon.add_argument("output", help="edge-list file for the anonymized graph")
    anon.add_argument("--method", default="rsme",
                      choices=("rsme", "rs", "me", "rep-an"))
    anon.add_argument("--k", type=int, required=True)
    anon.add_argument("--epsilon", type=float, default=None,
                      help="tolerance (defaults to the profile's)")
    anon.add_argument("--trials", type=int, default=5)
    anon.add_argument("--seed", type=int, default=None)
    anon.add_argument(
        "--utility-samples", type=int, default=0,
        help="worlds for sigma-search utility verification; every "
             "successful candidate's reliability discrepancy is scored "
             "on one persistent world store (0 disables)",
    )
    anon.add_argument(
        "--trial-timeout", type=float, default=None,
        help="per-trial deadline in seconds; an overrunning trial is "
             "retried on the same deterministic stream (default: none)",
    )
    anon.add_argument(
        "--max-retries", type=int, default=2,
        help="probe re-executions before the supervisor gives up with "
             "exit 3 (default: 2)",
    )
    anon.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="sigma-search checkpoint journal; every completed probe "
             "is persisted so an interrupted run can be resumed",
    )
    anon.add_argument(
        "--resume", action="store_true",
        help="replay completed probes from --checkpoint instead of "
             "recomputing them (bit-identical to an uninterrupted run)",
    )
    anon.add_argument(
        "--faults", default=None, metavar="PLAN",
        help="deterministic fault-injection plan for testing the "
             "supervision layer, e.g. 'crash@0.0;delay@*.1:0.5' "
             "(default: the REPRO_FAULTS environment variable)",
    )
    _add_memory_budget_argument(anon)

    check = sub.add_parser("check", help="evaluate (k, epsilon)-obfuscation")
    check.add_argument("published", help="edge-list file or profile name")
    check.add_argument("--k", type=int, required=True)
    check.add_argument("--epsilon", type=float, default=0.05)
    check.add_argument("--original", default=None,
                       help="graph whose degrees the adversary knows")
    _add_memory_budget_argument(check)

    upd = sub.add_parser(
        "update",
        help="apply an edge-probability update batch to a published "
             "graph and re-certify (k, epsilon) incrementally, with "
             "targeted local repair of under-obfuscated vertices",
    )
    upd.add_argument("published", help="edge-list file or profile name")
    upd.add_argument("updates",
                     help="update file: 'u v p_old p_new' lines; p_old "
                          "must match the published graph exactly")
    upd.add_argument("output",
                     help="edge-list file for the re-certified graph")
    upd.add_argument("--k", type=int, required=True)
    upd.add_argument("--epsilon", type=float, default=0.05)
    upd.add_argument("--original", default=None,
                     help="graph whose degrees the adversary knows "
                          "(default: the published graph's expectation)")
    upd.add_argument(
        "--seed", type=int, default=0,
        help="deterministic entropy for the repair trials and the "
             "world store; an integer (never wall-clock), so the "
             "outcome is a pure function of the inputs (default: 0)",
    )
    upd.add_argument("--no-repair", action="store_true",
                     help="only re-certify; report violations instead "
                          "of attempting the targeted local repair")
    upd.add_argument("--trials", type=int, default=5,
                     help="repair trials per sigma rung (default: 5)")
    upd.add_argument("--sigma", type=float, default=1.0,
                     help="first rung of the repair noise ladder")
    upd.add_argument("--sigma-max", type=float, default=64.0,
                     help="last rung of the repair noise ladder")
    upd.add_argument("--multiplier", type=float, default=1.3,
                     help="candidate-pool multiplier c for the repair "
                          "selection walk (default: 1.3)")
    upd.add_argument(
        "--samples", type=int, default=0,
        help="Monte-Carlo worlds for utility tracking: rebases a CRN "
             "world store through the update and reports the "
             "reliability discrepancy against the pre-update graph "
             "(0 disables)",
    )
    _add_memory_budget_argument(upd)

    ev = sub.add_parser("evaluate", help="utility comparison of two graphs")
    ev.add_argument("original", help="edge-list file or profile name")
    ev.add_argument("anonymized", help="edge-list file")
    ev.add_argument("--samples", type=int, default=200)
    ev.add_argument("--seed", type=int, default=None)
    ev.add_argument(
        "--engine", default="store", choices=("store", "fresh"),
        help="reliability-group engine (store: one CRN world store, the "
             "anonymized graph derived as a delta; fresh: two "
             "independently sampled estimators)",
    )
    ev.add_argument(
        "--antithetic", action="store_true",
        help="antithetic world pairing for the reliability group "
             "(requires an even --samples)",
    )
    _add_memory_budget_argument(ev)

    disc = sub.add_parser(
        "discrepancy",
        help="reliability discrepancy of an anonymized graph via one "
             "CRN world store (deterministic: --seed is an integer)",
    )
    disc.add_argument("original", help="edge-list file or profile name")
    disc.add_argument("anonymized", help="edge-list file")
    disc.add_argument("--samples", type=int, default=200)
    disc.add_argument(
        "--seed", type=int, default=0,
        help="world-store seed; an integer (never wall-clock entropy), "
             "so the store is a pure function of (graph, samples, seed) "
             "and a warm service can serve it from cache (default: 0)",
    )
    _add_memory_budget_argument(disc)

    summ = sub.add_parser("summary", help="dataset characteristics (Table I)")
    summ.add_argument("input", help="edge-list file or profile name")
    summ.add_argument("--seed", type=int, default=None)

    rep = sub.add_parser("report", help="full Markdown release report")
    rep.add_argument("original", help="edge-list file or profile name")
    rep.add_argument("anonymized", help="edge-list file")
    rep.add_argument("--k", type=int, required=True)
    rep.add_argument("--epsilon", type=float, default=0.05)
    rep.add_argument("--samples", type=int, default=200)
    rep.add_argument("--seed", type=int, default=None)
    rep.add_argument("--output", default=None,
                     help="write the report here instead of stdout")

    diag = sub.add_parser("diagnose",
                          help="structural feasibility of a privacy target")
    diag.add_argument("input", help="edge-list file or profile name")
    diag.add_argument("--k", type=int, required=True)
    diag.add_argument("--epsilon", type=float, default=0.05)
    diag.add_argument("--multiplier", type=float, default=2.0,
                      help="candidate multiplier c the anonymizer will use")

    sweep = sub.add_parser("sweep",
                           help="privacy/utility frontier over several k")
    sweep.add_argument("input", help="edge-list file or profile name")
    sweep.add_argument("--k", type=int, nargs="+", required=True,
                       help="privacy levels, e.g. --k 5 10 20")
    sweep.add_argument("--epsilon", type=float, default=None)
    sweep.add_argument("--method", default="rsme",
                       choices=("rsme", "rs", "me"))
    sweep.add_argument("--trials", type=int, default=4)
    sweep.add_argument("--samples", type=int, default=300,
                       help="Monte-Carlo worlds for the utility column")
    sweep.add_argument("--seed", type=int, default=None)

    sub.add_parser(
        "capabilities",
        help="report the execution environment (library versions, "
             "usable CPUs, REPRO_* knobs) as JSON",
    )

    serve = sub.add_parser(
        "serve",
        help="run the warm anonymization service (JSON-lines over a "
             "local TCP socket; datasets and caches stay warm between "
             "jobs, results are byte-identical to one-shot runs)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0: pick a free one)")
    serve.add_argument("--port-file", default=None,
                       help="write the bound port here once listening")
    serve.add_argument("--max-queue", type=int, default=16,
                       help="bound on queued + running jobs (default: 16)")
    serve.add_argument("--max-datasets", type=int, default=4,
                       help="warm datasets kept, LRU-evicted (default: 4)")
    serve.add_argument("--job-workers", type=_worker_count, default=2,
                       help="jobs executed concurrently (default: 2)")

    submit = sub.add_parser(
        "submit", help="submit a one-shot subcommand to a running service"
    )
    _add_endpoint_arguments(submit)
    submit.add_argument(
        "--wait", action="store_true",
        help="block until the job finishes, replay its output and exit "
             "with its code (byte-identical to running it directly)",
    )
    submit.add_argument(
        "job", nargs=argparse.REMAINDER, metavar="-- subcommand ...",
        help="the subcommand to run, after '--', e.g. "
             "-- anonymize in.pel out.pel --k 5 --seed 1",
    )

    status = sub.add_parser("status", help="job status from a service")
    _add_endpoint_arguments(status)
    status.add_argument("job_id", help="job id returned by submit")

    result = sub.add_parser(
        "result",
        help="wait for a job, replay its output, exit with its code",
    )
    _add_endpoint_arguments(result)
    result.add_argument("job_id", help="job id returned by submit")

    cancel = sub.add_parser("cancel", help="cancel a queued or running job")
    _add_endpoint_arguments(cancel)
    cancel.add_argument("job_id", help="job id returned by submit")

    stats = sub.add_parser(
        "stats",
        help="service statistics (cache hits, warm objects, queue depth)",
    )
    _add_endpoint_arguments(stats)

    shutdown = sub.add_parser("shutdown", help="stop a running service")
    _add_endpoint_arguments(shutdown)
    return parser


def _cmd_generate(args, out, err, runtime) -> int:
    graph = runtime.load(args.profile, scale=args.scale, seed=args.seed)
    write_edge_list(graph, args.output)
    print(f"wrote {graph.n_nodes} nodes / {graph.n_edges} edges to "
          f"{args.output}", file=out)
    return 0


def _cmd_anonymize(args, out, err, runtime) -> int:
    graph = runtime.load(args.input, seed=args.seed)
    epsilon = args.epsilon
    if epsilon is None:
        epsilon = dataset_tolerance(args.input)
    if args.method == "rep-an":
        # Rep-An's obfuscation phase is degree-based and never samples
        # worlds, so the trial/resilience flags do not apply to it.
        result = rep_an(graph, args.k, epsilon, seed=args.seed,
                        n_trials=args.trials)
    else:
        result = anonymize(graph, args.k, epsilon, method=args.method,
                           seed=args.seed, n_trials=args.trials,
                           degree_cache=runtime.degree_cache(graph),
                           observer=runtime.probe_observer,
                           utility_samples=args.utility_samples,
                           world_memory_budget=args.world_memory_budget,
                           trial_timeout=args.trial_timeout,
                           max_retries=args.max_retries,
                           fault_plan=args.faults,
                           checkpoint_path=args.checkpoint,
                           resume=args.resume)
    if not result.success:
        print(
            f"FAILED: no (k={args.k}, eps={epsilon}) obfuscation found",
            file=err,
        )
        return EXIT_UNSATISFIED
    write_edge_list(result.graph.dropping_zero_edges(), args.output)
    # stdout is a pure function of the inputs (for a seeded run): the
    # wall-clock fields go to stderr as a diagnostic, so a served result
    # can be byte-compared against a one-shot run.
    print(json.dumps(result.summary(include_timing=False), indent=2),
          file=out)
    print(f"timing: elapsed={result.elapsed_seconds:.2f}s "
          f"search={result.search_seconds:.2f}s", file=err)
    return 0


def _cmd_check(args, out, err, runtime) -> int:
    # The (k, epsilon) check itself is degree-based and never samples
    # worlds; --world-memory-budget is accepted (and argparse-validated)
    # so scripted anonymize -> check -> evaluate pipelines can pass one
    # uniform flag set without failing on the degree-only stage.
    published = runtime.load(args.published)
    knowledge = None
    if args.original:
        knowledge = expected_degree_knowledge(runtime.load(args.original))
    report = check_obfuscation(published, args.k, args.epsilon,
                               knowledge=knowledge)
    print(json.dumps({
        "k": report.k,
        "epsilon": report.epsilon,
        "epsilon_achieved": report.epsilon_achieved,
        "satisfied": report.satisfied,
        "n_obfuscated": report.n_obfuscated,
        "n_nodes": int(report.obfuscated.shape[0]),
    }, indent=2), file=out)
    return 0 if report.satisfied else 1


def _cmd_update(args, out, err, runtime) -> int:
    from .reliability.worldstore import graph_delta
    from .stream import IncrementalRecertifier, RepairPolicy, read_update_file

    published = runtime.load(args.published)
    batch = read_update_file(args.updates)
    batch.validate_against(published)
    knowledge = None
    if args.original:
        knowledge = expected_degree_knowledge(runtime.load(args.original))
    # The warm service hands out a clone of its resident degree cache
    # here, which is what makes a served update skip the O(n * d^2)
    # pmf construction entirely.
    cache = runtime.degree_cache(published)
    pristine = work = None
    if args.samples > 0:
        pristine = runtime.world_store(
            published, args.samples, args.seed,
            memory_budget=args.world_memory_budget,
        )
        # The recertifier rebases a COW clone; the pristine store keeps
        # answering for the pre-update graph so the discrepancy below
        # compares against what was actually published.
        work = pristine.clone()
    recertifier = IncrementalRecertifier(
        published, args.k, args.epsilon,
        knowledge=knowledge, cache=cache, store=work,
    )
    policy = None
    if not args.no_repair:
        policy = RepairPolicy(
            n_trials=args.trials,
            sigma_initial=args.sigma,
            sigma_max=args.sigma_max,
            size_multiplier=args.multiplier,
            entropy=args.seed,
        )
    outcome = recertifier.apply(batch, repair=policy)
    write_edge_list(outcome.graph.dropping_zero_edges(), args.output)
    report = outcome.report
    payload = {
        "k": report.k,
        "epsilon": report.epsilon,
        "epsilon_achieved": report.epsilon_achieved,
        "satisfied": report.satisfied,
        "n_obfuscated": report.n_obfuscated,
        "n_nodes": int(report.obfuscated.shape[0]),
        "n_updates": outcome.n_updates,
        "n_touched": int(outcome.touched.shape[0]),
        "repaired": outcome.repaired,
    }
    if outcome.repair is not None:
        payload["repair_sigma"] = outcome.repair.sigma
        payload["repair_trials"] = outcome.repair.n_trials_run
    if pristine is not None:
        view = pristine.derive(graph_delta(published, outcome.graph))
        payload["samples"] = args.samples
        # Count dirty worlds from the pristine store's view of the
        # *total* published -> re-certified delta, not the rebase
        # stats: a warm store rebases batch and repair separately
        # (double-counting worlds both flip) and a lazy cold store
        # defers thresholding entirely, so only the view's count is
        # identical across every runtime.
        payload["n_dirty_worlds"] = int(view.n_dirty)
        payload["update_discrepancy"] = pristine.discrepancy(
            view, seed=args.seed
        )
    print(json.dumps(payload, indent=2), file=out)
    return 0 if report.satisfied else EXIT_UNSATISFIED


def _cmd_evaluate(args, out, err, runtime) -> int:
    original = runtime.load(args.original, seed=args.seed)
    anonymized = read_edge_list(args.anonymized)
    comparison = compare_graphs(
        original, anonymized, n_samples=args.samples, seed=args.seed,
        reliability_engine=args.engine, antithetic=args.antithetic,
        memory_budget=args.world_memory_budget,
    )
    rows = {
        name: {
            "original": c.original,
            "anonymized": c.anonymized,
            "relative_error": c.relative_error,
        }
        for name, c in comparison.items()
    }
    print(json.dumps(rows, indent=2), file=out)
    return 0


def _cmd_discrepancy(args, out, err, runtime) -> int:
    from .reliability.worldstore import graph_delta

    original = runtime.load(args.original, seed=args.seed)
    anonymized = read_edge_list(args.anonymized)
    # Unlike `evaluate` (which seeds its store mid-stream from the run
    # generator), the store here is a pure function of
    # (graph, samples, seed) -- exactly the shape a warm service can
    # cache and clone per request without changing a single bit.
    store = runtime.world_store(
        original, args.samples, args.seed,
        memory_budget=args.world_memory_budget,
    )
    view = store.derive(graph_delta(original, anonymized))
    value = store.discrepancy(view, seed=args.seed)
    print(json.dumps({
        "samples": args.samples,
        "seed": args.seed,
        "n_dirty_worlds": int(view.n_dirty),
        "discrepancy": value,
    }, indent=2), file=out)
    return 0


def _cmd_summary(args, out, err, runtime) -> int:
    graph = runtime.load(args.input, seed=args.seed)
    print(json.dumps(summarize(graph), indent=2), file=out)
    return 0


def _cmd_report(args, out, err, runtime) -> int:
    from .report import build_report

    original = runtime.load(args.original, seed=args.seed)
    anonymized = read_edge_list(args.anonymized)
    text = build_report(
        original, anonymized, args.k, args.epsilon,
        n_samples=args.samples, seed=args.seed,
    )
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text)
        print(f"wrote report to {args.output}", file=out)
    else:
        print(text, file=out)
    return 0


def _cmd_diagnose(args, out, err, runtime) -> int:
    from .core import diagnose_feasibility

    graph = runtime.load(args.input)
    report = diagnose_feasibility(
        graph, args.k, args.epsilon, candidate_multiplier=args.multiplier
    )
    print(json.dumps(report.summary(), indent=2), file=out)
    return 0 if report.feasible else 1


def _cmd_sweep(args, out, err, runtime) -> int:
    from .core import sweep_anonymize
    from .metrics import average_reliability_discrepancy

    graph = runtime.load(args.input, seed=args.seed)
    epsilon = args.epsilon
    if epsilon is None:
        epsilon = dataset_tolerance(args.input)
    results = sweep_anonymize(
        graph, args.k, epsilon, method=args.method, seed=args.seed,
        observer=runtime.probe_observer, n_trials=args.trials,
    )
    header = f"{'k':>6} {'status':>8} {'sigma':>10} {'rel.loss':>10}"
    print(header, file=out)
    print("-" * len(header), file=out)
    any_failed = False
    for k in args.k:
        result = results[k]
        if result.success:
            loss = average_reliability_discrepancy(
                graph, result.graph, n_samples=args.samples, seed=args.seed,
            )
            print(f"{k:>6} {'ok':>8} {result.sigma:>10.4f} {loss:>10.4f}",
                  file=out)
        else:
            any_failed = True
            print(f"{k:>6} {'FAILED':>8} {'-':>10} {'-':>10}", file=out)
    return 1 if any_failed else 0


def _cmd_capabilities(args, out, err, runtime) -> int:
    from .core import execution_environment

    print(json.dumps(execution_environment(), indent=2), file=out)
    return 0


def _cmd_serve(args, out, err, runtime) -> int:
    from .server.service import run_server

    return run_server(args, out, err)


def _replay_result(payload: dict, out, err) -> int:
    """Mirror a finished job's captured output and exit code.

    For a ``done`` job the replayed bytes and the returned code are
    exactly what the equivalent one-shot invocation would have produced
    -- the service captured them from the same command function.
    """
    out.write(payload.get("stdout", ""))
    err.write(payload.get("stderr", ""))
    state = payload.get("state")
    if state == "done":
        return int(payload["exit"])
    if state == "cancelled":
        print(f"job {payload.get('id')} was cancelled", file=err)
        return EXIT_ERROR
    print(f"job {payload.get('id')} failed: {payload.get('error')}",
          file=err)
    return EXIT_ERROR


def _cmd_submit(args, out, err, runtime) -> int:
    from .server.client import ServiceClient, resolve_endpoint

    argv = list(args.job)
    if argv and argv[0] == "--":
        argv = argv[1:]
    if not argv:
        raise ServerError(
            "submit needs a subcommand after '--', e.g. "
            "chameleon submit -- summary ppi --seed 1"
        )
    client = ServiceClient(*resolve_endpoint(args))
    reply = client.request({
        "op": "submit", "argv": argv, "wait": bool(args.wait),
    })
    if args.wait:
        return _replay_result(reply["result"], out, err)
    print(json.dumps({"job": reply["job"], "state": reply["state"]},
                     indent=2), file=out)
    return 0


def _cmd_status(args, out, err, runtime) -> int:
    from .server.client import ServiceClient, resolve_endpoint

    client = ServiceClient(*resolve_endpoint(args))
    reply = client.request({"op": "status", "job": args.job_id})
    print(json.dumps(reply["job"], indent=2), file=out)
    return 0


def _cmd_result(args, out, err, runtime) -> int:
    from .server.client import ServiceClient, resolve_endpoint

    client = ServiceClient(*resolve_endpoint(args))
    reply = client.request({"op": "result", "job": args.job_id,
                            "wait": True})
    return _replay_result(reply["result"], out, err)


def _cmd_cancel(args, out, err, runtime) -> int:
    from .server.client import ServiceClient, resolve_endpoint

    client = ServiceClient(*resolve_endpoint(args))
    reply = client.request({"op": "cancel", "job": args.job_id})
    print(json.dumps(reply["job"], indent=2), file=out)
    return 0


def _cmd_stats(args, out, err, runtime) -> int:
    from .server.client import ServiceClient, resolve_endpoint

    client = ServiceClient(*resolve_endpoint(args))
    reply = client.request({"op": "stats"})
    print(json.dumps(reply["stats"], indent=2), file=out)
    return 0


def _cmd_shutdown(args, out, err, runtime) -> int:
    from .server.client import ServiceClient, resolve_endpoint

    client = ServiceClient(*resolve_endpoint(args))
    client.request({"op": "shutdown"})
    print("shutdown requested", file=out)
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "anonymize": _cmd_anonymize,
    "check": _cmd_check,
    "update": _cmd_update,
    "evaluate": _cmd_evaluate,
    "discrepancy": _cmd_discrepancy,
    "summary": _cmd_summary,
    "report": _cmd_report,
    "diagnose": _cmd_diagnose,
    "sweep": _cmd_sweep,
    "capabilities": _cmd_capabilities,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "result": _cmd_result,
    "cancel": _cmd_cancel,
    "stats": _cmd_stats,
    "shutdown": _cmd_shutdown,
}


def _dispatch(args, out, err, runtime, passthrough=()) -> int:
    """Run one parsed subcommand through the error-to-exit-code ladder.

    ``passthrough`` lists exception types that must escape untranslated;
    the service passes its cancellation signal here so a cancelled job
    is not misreported as an internal error.  ``BrokenPipeError`` always
    escapes -- only :func:`main`, which owns the real stdio, can decide
    what a vanished consumer means.
    """
    try:
        return _COMMANDS[args.command](args, out, err, runtime)
    except BrokenPipeError:
        raise
    except passthrough:
        raise
    except ResilienceError as exc:
        # Before the generic handler: ResilienceError is a ReproError,
        # but "every recovery option failed" (timeouts exhausted, ladder
        # walked to the end, unresumable checkpoint) deserves its own
        # exit code so schedulers can distinguish it from bad input.
        print(f"resilience error: {exc}", file=err)
        return EXIT_RESILIENCE
    except ReproError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_ERROR
    except Exception:  # noqa: BLE001 -- last-resort boundary: anything
        # escaping here is a bug, reported as such with its traceback.
        traceback.print_exc(file=err)
        print("internal error (this is a bug; traceback above)",
              file=err)
        return EXIT_INTERNAL


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code (see module docs)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args, sys.stdout, sys.stderr, CommandRuntime())
    except BrokenPipeError:
        # The consumer went away mid-write (`chameleon ... | head`).
        # Not a bug: exit with the conventional 128 + SIGPIPE status,
        # and point stdout's fd at /dev/null so the interpreter's
        # shutdown flush cannot raise a second time.
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        except (OSError, ValueError, io.UnsupportedOperation):
            pass  # stdout is not a real fd (captured in tests)
        return EXIT_SIGPIPE


if __name__ == "__main__":
    sys.exit(main())
