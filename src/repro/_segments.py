"""Unified segment hygiene: shared-memory *and* file-backed registry.

The ``ProcessTrialEngine`` ships run-invariant NumPy arrays to its
workers through named out-of-heap segments: POSIX shared memory by
default, or memmapped temp files (``REPRO_SEGMENT_KIND=file``) where
``/dev/shm`` is too small for them.  A segment outlives the Python
objects that reference it -- it is a file under ``/dev/shm`` or the
segment directory -- so a crash between ``create`` and ``release``
leaks kernel memory or disk until reboot.  This module makes that
impossible to do silently, for **both** kinds:

* :func:`create_segment` hands out segments with a recognizable
  ``repro-<pid>-<counter>-<token>`` name (file-backed segments add a
  ``.mm`` suffix, so the *name itself* encodes the kind and doubles as
  the cross-process descriptor) and records them in a process-local
  registry.
* :func:`release_segment` is the one true cleanup path: close + unlink +
  deregister, with failures *logged* rather than swallowed.  Unlinking a
  mapped file is safe on POSIX -- live ``np.ndarray`` views keep
  reading the anonymous mapping; the space is reclaimed on the last
  unmap.
* A sweep runs at interpreter exit (``atexit``) and on ``SIGTERM`` /
  ``SIGINT`` (chaining any previously installed handler), releasing
  every segment this process still owns.  Forked children inherit the
  registry but each entry remembers its creator pid, so a worker's exit
  never unlinks its parent's live segments.
* :func:`reap_orphan_segments` scans the segment directories for
  ``repro-<pid>-...`` names (shm) and ``repro-<pid>-....mm`` files
  whose owning process no longer exists and unlinks them -- the janitor
  :func:`repro.core.execution_environment` runs so long-lived services
  recover memory and disk leaked by killed runs.

The registry lives at the package root, below :mod:`repro.core` and
:mod:`repro.server`, which both use it.
"""

from __future__ import annotations

import atexit
import itertools
import logging
import mmap
import os
import re
import secrets
import signal
import tempfile
import threading
from multiprocessing import shared_memory
from pathlib import Path

__all__ = [
    "SEGMENT_PREFIX",
    "SEGMENT_KINDS",
    "Segment",
    "segment_dir",
    "publish_kind",
    "create_segment",
    "attach_segment",
    "release_segment",
    "active_segments",
    "sweep_segments",
    "reap_orphan_segments",
]

#: Name prefix of every segment this library creates.  The embedded pid
#: is what lets the orphan reaper attribute a leaked segment to a dead
#: process.
SEGMENT_PREFIX = "repro"

#: The two segment kinds the registry covers.
SEGMENT_KINDS = ("shm", "file")

#: Suffix distinguishing file-backed (memmap) segment names from POSIX
#: shared-memory names; a worker told only the *name* knows how to
#: attach.
FILE_SUFFIX = ".mm"

#: Default directory POSIX shared memory appears under.
_SHM_DIR = "/dev/shm"

_SEGMENT_NAME = re.compile(
    rf"^{SEGMENT_PREFIX}-(\d+)-\d+-[0-9a-f]+(\{FILE_SUFFIX})?$"
)

logger = logging.getLogger("repro.shm")

#: name -> (segment, creator pid).  Guarded by ``_lock``; forked workers
#: inherit a snapshot whose entries carry the parent's pid.
_REGISTRY: dict[str, tuple["Segment", int]] = {}
_lock = threading.Lock()
_counter = itertools.count()
_hooks_installed = False


def segment_dir() -> str:
    """Directory file-backed segments live in (``REPRO_SEGMENT_DIR``)."""
    return os.environ.get("REPRO_SEGMENT_DIR") or tempfile.gettempdir()


def publish_kind() -> str:
    """Segment kind multiprocess engines publish with.

    ``REPRO_SEGMENT_KIND=file`` routes worker publication through
    file-backed memmap segments (useful when ``/dev/shm`` is tiny, as in
    some containers); the default is POSIX shared memory.
    """
    kind = os.environ.get("REPRO_SEGMENT_KIND", "shm")
    if kind not in SEGMENT_KINDS:
        raise ValueError(
            f"REPRO_SEGMENT_KIND must be one of {SEGMENT_KINDS}, got {kind!r}"
        )
    return kind


class Segment:
    """One named out-of-heap buffer: POSIX shm or a memmapped temp file.

    Mirrors the parts of :class:`multiprocessing.shared_memory.
    SharedMemory` every call site uses (``name``, ``buf``, ``close``,
    ``unlink``), so the two kinds are interchangeable behind a name
    string.  ``buf`` is writable for created segments and read-only for
    file-backed attachments.
    """

    __slots__ = ("kind", "name", "nbytes", "_shm", "_mmap", "_view", "_path")

    def __init__(self, kind, name, nbytes, shm=None, mm=None, path=None):
        self.kind = kind
        self.name = name
        self.nbytes = nbytes
        self._shm = shm
        self._mmap = mm
        self._view = memoryview(mm) if mm is not None else None
        self._path = path

    @property
    def buf(self):
        if self._shm is not None:
            return self._shm.buf
        return self._view

    @property
    def path(self) -> str | None:
        """Filesystem path (file kind only)."""
        return self._path

    def close(self) -> None:
        """Unmap this handle.  Raises ``BufferError`` while NumPy views
        of ``buf`` are still alive (callers treat that as non-fatal: the
        mapping simply lives until the last view dies)."""
        if self._shm is not None:
            self._shm.close()
            return
        if self._view is not None:
            self._view.release()
            self._view = None
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None

    def unlink(self) -> None:
        """Remove the backing object; live mappings stay readable."""
        if self._shm is not None:
            self._shm.unlink()
        elif self._path is not None:
            os.unlink(self._path)


def _segment_name(kind: str) -> str:
    suffix = FILE_SUFFIX if kind == "file" else ""
    return (
        f"{SEGMENT_PREFIX}-{os.getpid()}-{next(_counter)}-"
        f"{secrets.token_hex(4)}{suffix}"
    )


def create_segment(nbytes: int, kind: str = "shm") -> Segment:
    """Create and register a named segment of at least ``nbytes`` bytes."""
    if kind not in SEGMENT_KINDS:
        raise ValueError(f"segment kind must be one of {SEGMENT_KINDS}, "
                         f"got {kind!r}")
    nbytes = max(1, int(nbytes))
    name = _segment_name(kind)
    if kind == "shm":
        shm = shared_memory.SharedMemory(name=name, create=True, size=nbytes)
        segment = Segment("shm", shm.name, nbytes, shm=shm)
    else:
        path = Path(segment_dir()) / name
        with open(path, "wb") as fh:
            fh.truncate(nbytes)
        with open(path, "r+b") as fh:
            mm = mmap.mmap(fh.fileno(), nbytes, access=mmap.ACCESS_WRITE)
        segment = Segment("file", name, nbytes, mm=mm, path=str(path))
    with _lock:
        _REGISTRY[segment.name] = (segment, os.getpid())
    _install_exit_hooks()
    return segment


def attach_segment(name: str) -> Segment | shared_memory.SharedMemory:
    """Attach to an existing segment (not registered: we don't own it).

    The name alone determines the kind: a ``.mm`` suffix means a
    file-backed segment in :func:`segment_dir` (attached read-only, the
    worker copies its slice out), anything else is POSIX shared memory.
    """
    if not name.endswith(FILE_SUFFIX):
        return shared_memory.SharedMemory(name=name)
    path = Path(segment_dir()) / name
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        mm = mmap.mmap(fh.fileno(), size, access=mmap.ACCESS_READ)
    return Segment("file", name, size, mm=mm, path=str(path))


def release_segment(segment, unlink: bool = True) -> None:
    """Close (and by default unlink) a segment, deregistering it.

    Idempotent; cleanup failures are logged -- never silently dropped --
    because a swallowed unlink error is exactly how segments leak.
    Accepts both :class:`Segment` and raw ``SharedMemory`` handles.
    """
    with _lock:
        _REGISTRY.pop(segment.name, None)
    try:
        segment.close()
    except BufferError:
        # Live ndarray views still export the buffer; the unlink below
        # reclaims the name and the mapping evaporates with the last
        # view.
        logger.debug("segment %s still has live views; deferring unmap",
                     segment.name)
    except (OSError, ValueError) as exc:
        logger.warning("closing segment %s failed: %s", segment.name, exc)
    if not unlink:
        return
    try:
        segment.unlink()
    except FileNotFoundError:
        pass  # already unlinked (idempotent release)
    except OSError as exc:
        logger.warning("unlinking segment %s failed: %s", segment.name, exc)


def active_segments() -> tuple[str, ...]:
    """Names of registered segments created by *this* process."""
    pid = os.getpid()
    with _lock:
        return tuple(
            name for name, (__, owner) in _REGISTRY.items() if owner == pid
        )


def sweep_segments(reason: str = "atexit") -> int:
    """Release every segment this process still owns; returns the count.

    Runs from ``atexit`` and the signal handlers; safe to call directly
    (e.g. from tests or a server's shutdown path).
    """
    pid = os.getpid()
    with _lock:
        owned = [seg for seg, owner in _REGISTRY.values() if owner == pid]
    if owned:
        logger.warning(
            "sweeping %d leaked segment(s) at %s: %s",
            len(owned), reason, [s.name for s in owned],
        )
    for seg in owned:
        release_segment(seg)
    return len(owned)


def _chained_handler(sig, frame, previous) -> None:
    """Sweep segments, then honor whatever disposition ``sig`` had.

    A callable previous handler is invoked (it decides whether to die).
    ``SIG_IGN`` is *not* callable but still a deliberate choice -- a
    process that ignores SIGINT/SIGTERM must keep ignoring them after
    the sweep, not be re-killed with the default action.  Only when the
    previous disposition was the default (or unknown) is the signal
    re-raised under ``SIG_DFL`` so the process dies with the right
    wait-status.
    """
    sweep_segments(f"signal {sig}")
    if callable(previous):
        previous(sig, frame)
    elif previous is signal.SIG_IGN:
        return  # deliberately ignored before us; stay ignored
    else:
        signal.signal(sig, signal.SIG_DFL)
        signal.raise_signal(sig)


def _install_exit_hooks() -> None:
    """Register the atexit sweep and chain SIGTERM/SIGINT (once)."""
    global _hooks_installed
    with _lock:
        if _hooks_installed:
            return
        _hooks_installed = True
    atexit.register(sweep_segments, "atexit")
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous = signal.getsignal(signum)

            def _handler(sig, frame, _previous=previous):
                _chained_handler(sig, frame, _previous)

            signal.signal(signum, _handler)
        except (ValueError, OSError):
            # Not the main thread (or an exotic platform): the atexit
            # sweep still covers normal interpreter shutdown.
            pass


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    return True


def _reap_directory(directory, found, reaped, failed) -> None:
    try:
        entries = os.listdir(directory)
    except OSError:
        return
    for entry in entries:
        match = _SEGMENT_NAME.match(entry)
        if match is None:
            continue
        if _pid_alive(int(match.group(1))):
            continue
        found.append(entry)
        try:
            os.unlink(os.path.join(directory, entry))
        except FileNotFoundError:
            reaped.append(entry)  # raced another reaper: gone either way
        except OSError as exc:
            failed.append(entry)
            logger.warning("could not reap orphan segment %s: %s", entry, exc)
        else:
            reaped.append(entry)


def reap_orphan_segments(directory: str | None = None) -> dict:
    """Unlink ``repro-<pid>-...`` segments whose owner process is dead.

    With no ``directory``, both standard locations are scanned: the shm
    mount (``/dev/shm``) and the file-segment directory.  Returns
    ``{"found": [...], "reaped": [...], "failed": [...]}`` of segment
    names.  Live processes' segments (including this one's) are never
    touched, so concurrent runs on the same host are safe.
    """
    found: list[str] = []
    reaped: list[str] = []
    failed: list[str] = []
    if directory is not None:
        directories = [directory]
    else:
        directories = [_SHM_DIR]
        if segment_dir() != _SHM_DIR:
            directories.append(segment_dir())
    for one in directories:
        _reap_directory(one, found, reaped, failed)
    if reaped:
        logger.warning(
            "reaped %d orphaned segment(s): %s", len(reaped), reaped
        )
    return {"found": found, "reaped": reaped, "failed": failed}
