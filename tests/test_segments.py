"""Unified segment registry: file-backed segments and kill hygiene.

:mod:`repro._segments` generalizes the shared-memory manifest into a
registry covering POSIX shm *and* memmapped temp files behind one name
scheme (a ``.mm`` suffix encodes the kind).  These tests pin down the
file-kind lifecycle, the ``.mm`` orphan reaper, and the hard-kill
regression: a worker SIGKILLed mid-run must leave zero files behind
once the parent's janitor runs.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import _segments

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def segment_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SEGMENT_DIR", str(tmp_path))
    return tmp_path


# --------------------------------------------------------------------- #
# File-kind lifecycle
# --------------------------------------------------------------------- #

class TestFileSegments:
    def test_name_encodes_kind(self, segment_dir):
        seg = _segments.create_segment(64, kind="file")
        try:
            assert seg.kind == "file"
            assert seg.name.endswith(_segments.FILE_SUFFIX)
            assert Path(seg.path).parent == segment_dir
            assert _segments._SEGMENT_NAME.match(seg.name)
        finally:
            _segments.release_segment(seg)

    def test_create_write_attach_roundtrip(self, segment_dir):
        seg = _segments.create_segment(32, kind="file")
        try:
            data = np.arange(4, dtype=np.int64)
            np.frombuffer(seg.buf, dtype=np.int64, count=4)[:] = data
            attached = _segments.attach_segment(seg.name)
            try:
                # copy() drops the buffer view so close() can unmap
                got = np.frombuffer(attached.buf, dtype=np.int64,
                                    count=4).copy()
                np.testing.assert_array_equal(got, data)
            finally:
                attached.close()
        finally:
            _segments.release_segment(seg)

    def test_attachment_is_read_only(self, segment_dir):
        seg = _segments.create_segment(16, kind="file")
        try:
            attached = _segments.attach_segment(seg.name)
            try:
                with pytest.raises((TypeError, ValueError)):
                    attached.buf[0] = 1
            finally:
                attached.close()
        finally:
            _segments.release_segment(seg)

    def test_release_unlinks_and_is_idempotent(self, segment_dir):
        seg = _segments.create_segment(16, kind="file")
        path = Path(seg.path)
        assert path.exists()
        _segments.release_segment(seg)
        assert not path.exists()
        assert seg.name not in _segments.active_segments()
        _segments.release_segment(seg)  # second release must not raise
        with pytest.raises(FileNotFoundError):
            _segments.attach_segment(seg.name)

    def test_live_views_survive_release(self, segment_dir):
        """POSIX unlink semantics: releasing a file segment while a NumPy
        view is alive keeps the mapping readable (the world-store clone
        contract)."""
        seg = _segments.create_segment(64, kind="file")
        view = np.frombuffer(seg.buf, dtype=np.float64, count=8)
        view[:] = 7.5
        _segments.release_segment(seg)
        assert not Path(seg.path).exists()
        np.testing.assert_array_equal(view, np.full(8, 7.5))

    def test_publish_kind_env_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_SEGMENT_KIND", raising=False)
        assert _segments.publish_kind() == "shm"
        monkeypatch.setenv("REPRO_SEGMENT_KIND", "file")
        assert _segments.publish_kind() == "file"
        monkeypatch.setenv("REPRO_SEGMENT_KIND", "bogus")
        with pytest.raises(ValueError, match="REPRO_SEGMENT_KIND"):
            _segments.publish_kind()

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="segment kind"):
            _segments.create_segment(16, kind="tape")


# --------------------------------------------------------------------- #
# Orphan reaper over .mm files
# --------------------------------------------------------------------- #

class TestFileOrphanReaper:
    def test_reaps_dead_pid_mm_files_only(self, tmp_path):
        dead_pid = 2 ** 22 + 54321  # beyond any default pid_max
        dead = tmp_path / f"repro-{dead_pid}-0-deadbeef.mm"
        live = tmp_path / f"repro-{os.getpid()}-0-cafecafe.mm"
        foreign = tmp_path / "data.mm"
        for f in (dead, live, foreign):
            f.write_bytes(b"x")
        report = _segments.reap_orphan_segments(str(tmp_path))
        assert report["reaped"] == [dead.name]
        assert not dead.exists()
        assert live.exists()
        assert foreign.exists()

    def test_default_scan_covers_segment_dir(self, segment_dir):
        dead_pid = 2 ** 22 + 99
        orphan = segment_dir / f"repro-{dead_pid}-1-0badf00d.mm"
        orphan.write_bytes(b"x")
        report = _segments.reap_orphan_segments()
        assert orphan.name in report["reaped"]
        assert not orphan.exists()


# --------------------------------------------------------------------- #
# Hard-kill regression
# --------------------------------------------------------------------- #

# The child hands its shm segment to the parent's janitor alone: left
# registered with ``multiprocessing.resource_tracker``, the child's
# tracker outlives the SIGKILL and races the janitor to unlink it, and
# warns whichever way the race goes.
_KILL_SCRIPT = """
import os, sys
from multiprocessing import resource_tracker
import numpy as np
from repro import _segments

seg = _segments.create_segment(1 << 16, kind="file")
shm = _segments.create_segment(1 << 12, kind="shm")
resource_tracker.unregister(shm._shm._name, "shared_memory")
np.frombuffer(seg.buf, dtype=np.uint8)[:] = 1
print(seg.name, shm.name, flush=True)
sys.stdin.readline()  # parent never writes: wait here to be killed
"""


def test_sigkilled_worker_leaves_no_segments(segment_dir):
    """SIGKILL (no atexit, no signal handler) a process holding one file
    segment and one shm segment; after the parent's janitor pass, zero
    leaked files and zero leaked shm segments remain."""
    proc = subprocess.Popen(
        [sys.executable, "-c", _KILL_SCRIPT],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": SRC,
             "REPRO_SEGMENT_DIR": str(segment_dir)},
    )
    try:
        names = proc.stdout.readline().split()
        assert len(names) == 2, "worker did not report its segments"
        file_name, shm_name = names
        assert (segment_dir / file_name).exists()
        proc.kill()
        proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL
        # Kernel teardown of a killed process is asynchronous; give the
        # pid a moment to disappear before the liveness probe.
        deadline = time.monotonic() + 10.0
        while _segments._pid_alive(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        # Nothing but the janitor may remove the dead child's segments.
        assert (segment_dir / file_name).exists()
        assert os.path.exists(os.path.join(_segments._SHM_DIR, shm_name))

        report = _segments.reap_orphan_segments()
        leaked = {file_name, shm_name}
        assert leaked <= set(report["found"])
        assert leaked <= set(report["reaped"])
        assert report["failed"] == []
        assert not (segment_dir / file_name).exists()
        assert not list(segment_dir.glob(f"*{_segments.FILE_SUFFIX}"))
        assert not os.path.exists(os.path.join(_segments._SHM_DIR, shm_name))
        with pytest.raises(FileNotFoundError):
            _segments.attach_segment(file_name)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.stdin.close()
        proc.stdout.close()
        proc.wait(timeout=30)
