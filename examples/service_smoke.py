"""End-to-end smoke test of the warm anonymization service.

Starts ``chameleon serve`` as a real subprocess, runs the same
anonymize / check pipeline once through the service and once as
one-shot CLI invocations, and asserts the service's core contract:

1. the served stdout, exit code and output file are byte-identical to
   the one-shot run;
2. a repeated identical request is answered from the result cache
   (no second sigma search) with -- again -- identical bytes;
3. the service shuts down cleanly (exit 0).

Run it directly (CI does)::

    PYTHONPATH=src python examples/service_smoke.py
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cli import _dispatch, build_parser, CommandRuntime  # noqa: E402
from repro.server.client import ServiceClient  # noqa: E402


def wait_for_port(port_file: Path, deadline: float = 30.0) -> int:
    start = time.monotonic()
    while time.monotonic() - start < deadline:
        if port_file.is_file():
            text = port_file.read_text().strip()
            if text:
                return int(text)
        time.sleep(0.05)
    raise RuntimeError("service did not publish its port in time")


def one_shot(argv: list[str]) -> tuple[int, str]:
    """Run a subcommand in-process; returns (exit code, stdout bytes)."""
    out, err = io.StringIO(), io.StringIO()
    args = build_parser().parse_args(argv)
    code = _dispatch(args, out, err, CommandRuntime())
    return code, out.getvalue()


def main() -> int:
    workdir = Path(tempfile.mkdtemp(prefix="repro-smoke-"))
    port_file = workdir / "port"
    graph_file = workdir / "toy.pel"
    served_out = workdir / "served.pel"
    direct_out = workdir / "direct.pel"

    # A deterministic toy dataset, materialized once up front.
    code, __ = one_shot([
        "generate", "ppi", str(graph_file), "--scale", "0.2", "--seed", "7",
    ])
    assert code == 0, "generate failed"

    anonymize_argv = [
        "anonymize", str(graph_file), str(served_out),
        "--method", "me", "--k", "4", "--epsilon", "0.08",
        "--trials", "2", "--seed", "11",
    ]
    check_argv = [
        "check", str(served_out), "--k", "2", "--epsilon", "0.5",
        "--original", str(graph_file),
    ]

    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--port-file", str(port_file), "--job-workers", "2"],
        env={**os.environ, "PYTHONPATH": "src"},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        port = wait_for_port(port_file)
        client = ServiceClient("127.0.0.1", port)

        # 1. Served anonymize vs one-shot: byte-identical stdout, exit
        # code and output file.
        reply = client.request(
            {"op": "submit", "argv": anonymize_argv, "wait": True}
        )
        served = reply["result"]
        assert served["state"] == "done", served
        served_bytes = served_out.read_bytes()

        direct_argv = anonymize_argv.copy()
        direct_argv[2] = str(direct_out)
        direct_code, direct_stdout = one_shot(direct_argv)
        assert served["exit"] == direct_code, (served["exit"], direct_code)
        assert served["stdout"] == direct_stdout, "served stdout diverged"
        assert direct_out.read_bytes() == served_bytes, \
            "served output file diverged"

        # 2. check through the service agrees with the one-shot run too.
        reply = client.request(
            {"op": "submit", "argv": check_argv, "wait": True}
        )
        served_check = reply["result"]
        check_code, check_stdout = one_shot(check_argv)
        assert served_check["exit"] == check_code
        assert served_check["stdout"] == check_stdout

        # 3. The identical anonymize request again: cache hit, same bytes.
        served_out.unlink()
        reply = client.request(
            {"op": "submit", "argv": anonymize_argv, "wait": True}
        )
        repeat = reply["result"]
        assert repeat["cached"], "second identical request missed the cache"
        assert repeat["stdout"] == served["stdout"]
        assert served_out.read_bytes() == served_bytes, \
            "cache replay did not restore the output file"

        stats = client.request({"op": "stats"})["stats"]
        assert stats["cache"]["hits"] >= 1, stats["cache"]
        assert stats["datasets"]["datasets"] >= 1, stats["datasets"]
        print("stats:", json.dumps(stats, indent=2))

        # 4. Clean shutdown.
        client.request({"op": "shutdown"})
    finally:
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
            raise RuntimeError("service did not shut down in time")

    stderr_tail = server.stderr.read()
    assert server.returncode == 0, (server.returncode, stderr_tail)
    print("service smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
