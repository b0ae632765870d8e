"""The warm anonymization service: asyncio JSON-lines API over TCP.

Protocol: one JSON object per line, one JSON reply per line, over a
local TCP connection (default bind 127.0.0.1).  Operations::

    {"op": "submit", "argv": ["anonymize", ...], "wait": false}
    {"op": "status", "job": "j1"}
    {"op": "result", "job": "j1", "wait": true}
    {"op": "cancel", "job": "j1"}
    {"op": "stats"}
    {"op": "shutdown"}

Every reply carries ``"ok"``; failures carry ``"error"`` instead of
crashing the connection.  A request line longer than ``FRAME_LIMIT``
bytes gets one protocol error, after which that connection is closed.
The event loop never computes: jobs are offloaded to a thread pool,
and each job executes the *same* command function a one-shot CLI run
would, with three substitutions wired
through the :class:`repro.cli.CommandRuntime` boundary:

* ``out``/``err`` are per-job string buffers instead of process stdio;
* datasets and expensive caches come from the
  :class:`~repro.server.registry.DatasetRegistry` as bit-identical warm
  clones;
* a progress observer feeds the job's event log and raises
  :class:`~repro.server.jobs.JobCancelled` when cancellation was
  requested (checked at sigma-probe / sweep-k boundaries).

Because the command function, its parsed arguments, and the values it
computes are identical to the one-shot path, a served job's stdout,
output files and exit code are byte-identical to running the same argv
directly -- the property ``tests/test_server.py`` asserts.

Deterministic jobs are additionally memoized in a
:class:`~repro.server.cache.ResultCache`: a repeated request replays the
recorded bytes without re-running the sigma search.

Shutdown (op, SIGTERM or SIGINT) cancels outstanding jobs and drains
the executor.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import io
import json
import logging
import signal
import time
from pathlib import Path

from ..exceptions import ServerError
from .cache import CachedResult, ResultCache
from .fingerprint import CACHEABLE_COMMANDS, OUTPUT_FIELDS, job_fingerprint
from .jobs import Job, JobCancelled, JobQueue
from .registry import DatasetRegistry

__all__ = ["ChameleonService", "run_server", "SERVABLE_COMMANDS"]

logger = logging.getLogger("repro.server")

#: One-shot subcommands a job may name.  The service refuses to recurse
#: into itself (serve / submit / ...), and ``capabilities`` is allowed
#: but never cached (it reports ambient state).
SERVABLE_COMMANDS = frozenset(CACHEABLE_COMMANDS) | {"capabilities"}

#: Longest request line, in bytes (asyncio's default stream limit).
FRAME_LIMIT = 64 * 1024


def _make_runtime(registry: DatasetRegistry, job: Job):
    """Per-job :class:`repro.cli.CommandRuntime` backed by the registry.

    The class is defined inside the factory because :mod:`repro.cli`
    must not be imported at module load time (the CLI imports this
    module lazily; a top-level import back would be a cycle).
    """
    from ..cli import CommandRuntime

    class Runtime(CommandRuntime):
        def __init__(self):
            def observe(event):
                if job.cancel_requested:
                    raise JobCancelled(job.id)
                job.record_event(event)

            self.probe_observer = observe

        def load(self, source, scale=1.0, seed=None):
            return registry.load(source, scale=scale, seed=seed)

        def degree_cache(self, graph):
            return registry.degree_cache(graph)

        def world_store(self, graph, n_samples, seed, memory_budget=None):
            return registry.world_store(
                graph, n_samples, seed, memory_budget=memory_budget
            )

    return Runtime()


def _parse_job_argv(argv: list[str]):
    """Parse a job's argv with the CLI's own parser (exact parity).

    argparse reports problems by printing and raising ``SystemExit``;
    both are captured and re-raised as :class:`ServerError` so a typo in
    a submitted argv is a protocol error, never a dead server.
    """
    from ..cli import build_parser

    if not argv:
        raise ServerError("empty job argv")
    if argv[0] not in SERVABLE_COMMANDS:
        raise ServerError(
            f"subcommand {argv[0]!r} is not servable "
            f"(servable: {', '.join(sorted(SERVABLE_COMMANDS))})"
        )
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer), \
                contextlib.redirect_stderr(buffer):
            return build_parser().parse_args(argv)
    except SystemExit:
        lines = buffer.getvalue().strip().splitlines()
        detail = lines[-1] if lines else "argument parse error"
        raise ServerError(
            f"cannot parse job argv {argv!r}: {detail}"
        ) from None


class ChameleonService:
    """One listening service instance (see module docstring)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_queue: int = 16,
        max_datasets: int = 4,
        job_workers: int = 2,
        port_file: str | None = None,
    ):
        self._host = host
        self._port = int(port)
        self._port_file = port_file
        self._registry = DatasetRegistry(max_datasets)
        self._jobs = JobQueue(max_queue)
        self._cache = ResultCache()
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=int(job_workers), thread_name_prefix="repro-job"
        )
        self._futures: dict[str, asyncio.Future] = {}
        #: Open connections: handler task -> its stream reader.
        self._connections: dict[asyncio.Task, asyncio.StreamReader] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._started = time.time()

    # -- job execution (thread pool) ------------------------------------- #

    def _run_job(self, job: Job) -> None:
        from ..cli import _dispatch

        if job.cancel_requested:
            job.state = "cancelled"
            job.finished_at = time.time()
            logger.info("job %s cancelled before start", job.id)
            return
        job.state = "running"
        job.started_at = time.time()
        out, err = io.StringIO(), io.StringIO()
        try:
            args = _parse_job_argv(job.argv)
            key = job_fingerprint(args)
            job.fingerprint = key
            cached = self._cache.get(key) if key else None
            if cached is not None:
                cached.replay()
                job.stdout = cached.stdout
                job.stderr = cached.stderr
                job.exit_code = cached.exit_code
                job.cached = True
                job.state = "done"
                return
            runtime = _make_runtime(self._registry, job)
            code = _dispatch(
                args, out, err, runtime, passthrough=(JobCancelled,)
            )
            job.stdout = out.getvalue()
            job.stderr = err.getvalue()
            job.exit_code = int(code)
            job.state = "done"
            if key is not None:
                files = {}
                for field in OUTPUT_FIELDS.get(args.command, ()):
                    path = getattr(args, field, None)
                    if path and Path(path).is_file():
                        files[path] = Path(path).read_bytes()
                self._cache.put(key, CachedResult(
                    job.exit_code, job.stdout, job.stderr, files
                ))
        except JobCancelled:
            job.stdout = out.getvalue()
            job.stderr = err.getvalue()
            job.state = "cancelled"
        except ServerError as exc:
            job.error = str(exc)
            job.state = "failed"
        except Exception as exc:  # noqa: BLE001 -- job boundary: a bug
            # in one job must not take down the service.
            job.error = f"{type(exc).__name__}: {exc}"
            job.state = "failed"
            logger.exception("job %s crashed", job.id)
        finally:
            job.finished_at = time.time()
            logger.info(
                "job %s finished: state=%s exit=%s cached=%s "
                "elapsed=%.2fs argv=%s",
                job.id, job.state, job.exit_code, job.cached,
                job.finished_at - (job.started_at or job.finished_at),
                " ".join(job.argv),
            )

    # -- protocol ---------------------------------------------------------- #

    async def _op_submit(self, request: dict) -> dict:
        argv = request.get("argv")
        if not isinstance(argv, list) or not argv or not all(
            isinstance(item, str) for item in argv
        ):
            raise ServerError("submit needs 'argv': a list of strings")
        if argv[0] not in SERVABLE_COMMANDS:
            # Reject before queuing: an unservable subcommand can never
            # become a runnable job, so it must not consume queue depth.
            raise ServerError(
                f"subcommand {argv[0]!r} is not servable "
                f"(servable: {', '.join(sorted(SERVABLE_COMMANDS))})"
            )
        job = self._jobs.submit(argv)
        logger.info("job %s submitted: %s", job.id, " ".join(argv))
        future = self._loop.run_in_executor(
            self._executor, self._run_job, job
        )
        self._futures[job.id] = future
        if request.get("wait"):
            # asyncio.wait, unlike awaiting the future, returns when
            # shutdown cancels a queued job: the reply then reports the
            # job's 'cancelled' state.
            await asyncio.wait([future])
            return {
                "ok": True, "job": job.id, "state": job.state,
                "result": job.snapshot(with_output=True),
            }
        return {"ok": True, "job": job.id, "state": job.state}

    async def _op_result(self, request: dict) -> dict:
        job = self._jobs.get(str(request.get("job")))
        future = self._futures.get(job.id)
        if request.get("wait", True) and future is not None:
            await asyncio.wait([future])
        return {"ok": True, "result": job.snapshot(with_output=True)}

    def _op_status(self, request: dict) -> dict:
        job = self._jobs.get(str(request.get("job")))
        return {"ok": True, "job": job.snapshot()}

    def _op_cancel(self, request: dict) -> dict:
        job = self._jobs.get(str(request.get("job")))
        job.cancel()
        logger.info("job %s cancellation requested", job.id)
        return {"ok": True, "job": job.snapshot()}

    def _op_stats(self) -> dict:
        return {"ok": True, "stats": {
            "uptime_seconds": time.time() - self._started,
            "queue": self._jobs.stats(),
            "cache": self._cache.stats(),
            "datasets": self._registry.stats(),
        }}

    async def _handle_request(self, request: dict) -> dict:
        op = request.get("op")
        if op == "submit":
            return await self._op_submit(request)
        if op == "status":
            return self._op_status(request)
        if op == "result":
            return await self._op_result(request)
        if op == "cancel":
            return self._op_cancel(request)
        if op == "stats":
            return self._op_stats()
        if op == "shutdown":
            logger.info("shutdown requested")
            self._loop.call_soon(self._stop.set)
            return {"ok": True}
        raise ServerError(f"unknown op {op!r}")

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._connections[task] = reader
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # asyncio raises a frame past the stream limit as
                    # ValueError, and the frame's end can no longer be
                    # found reliably: answer once and close.
                    writer.write(json.dumps({
                        "ok": False,
                        "error": f"request frame exceeds {FRAME_LIMIT} bytes",
                    }).encode() + b"\n")
                    await writer.drain()
                    return
                if not line:
                    return
                try:
                    request = json.loads(line)
                    if not isinstance(request, dict):
                        raise ServerError("request must be a JSON object")
                    reply = await self._handle_request(request)
                except ServerError as exc:
                    reply = {"ok": False, "error": str(exc)}
                except (ValueError, RecursionError) as exc:
                    # A frame nested past the decoder's recursion limit
                    # is as malformed as undecodable bytes (a ValueError).
                    reply = {"ok": False, "error": f"bad request: {exc}"}
                except asyncio.CancelledError:
                    raise
                except Exception as exc:  # noqa: BLE001 -- connection
                    # boundary: report, keep serving other clients.
                    logger.exception("request handling crashed")
                    reply = {"ok": False,
                             "error": f"internal error: {exc}"}
                writer.write(json.dumps(reply).encode() + b"\n")
                await writer.drain()
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            del self._connections[task]
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    # -- lifecycle ---------------------------------------------------------- #

    async def run(self, announce=None) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            # Unavailable off the main thread (tests run the loop in a
            # worker thread) and on some platforms; shutdown still works
            # through the protocol op.
            with contextlib.suppress(
                NotImplementedError, ValueError, RuntimeError
            ):
                self._loop.add_signal_handler(signum, self._stop.set)
        server = await asyncio.start_server(
            self._handle_connection, self._host, self._port,
            limit=FRAME_LIMIT,
        )
        port = server.sockets[0].getsockname()[1]
        if self._port_file:
            Path(self._port_file).write_text(f"{port}\n")
        logger.info("listening on %s:%d", self._host, port)
        if announce is not None:
            announce(self._host, port)
        try:
            await self._stop.wait()
        finally:
            server.close()
            for job in self._jobs.all_jobs():
                if job.state in ("queued", "running"):
                    job.cancel()
            self._executor.shutdown(wait=True, cancel_futures=True)
            for job in self._jobs.all_jobs():
                if job.state in ("queued", "running"):
                    job.state = "cancelled"
                    job.finished_at = time.time()
            # End every open connection before the loop closes: a
            # handler waiting for its next request reads end-of-file and
            # returns.  Left to asyncio.run's teardown it would be
            # cancelled mid-read, which Python 3.11 reports as an
            # unhandled error with a traceback.
            for reader in self._connections.values():
                reader.feed_eof()
            await asyncio.gather(*self._connections, return_exceptions=True)
            with contextlib.suppress(Exception):
                await server.wait_closed()
            if self._port_file:
                with contextlib.suppress(OSError):
                    Path(self._port_file).unlink()
            logger.info("service stopped")


def _configure_logging(stream) -> None:
    """Structured per-job logging to the serve command's stderr."""
    root = logging.getLogger("repro.server")
    if any(
        isinstance(h, logging.StreamHandler) and h.stream is stream
        for h in root.handlers
    ):
        return
    handler = logging.StreamHandler(stream)
    handler.setFormatter(logging.Formatter(
        "%(asctime)s %(name)s %(levelname)s %(message)s"
    ))
    root.addHandler(handler)
    root.setLevel(logging.INFO)


def run_server(args, out, err) -> int:
    """Entry point behind ``chameleon serve``; blocks until shutdown."""
    _configure_logging(err)
    service = ChameleonService(
        host=args.host,
        port=args.port,
        max_queue=args.max_queue,
        max_datasets=args.max_datasets,
        job_workers=args.job_workers,
        port_file=args.port_file,
    )

    def announce(host, port):
        print(f"listening on {host}:{port}", file=out, flush=True)

    asyncio.run(service.run(announce=announce))
    return 0
