"""Shared-memory segment registry for the process executor's data plane.

The process pool moves A-shard CSR arrays and the B/C operand panels
through POSIX shared memory (:mod:`multiprocessing.shared_memory`), so
the hot path never pickles an ndarray.  Shared-memory segments are a
system-global resource: a segment that is created but never unlinked
outlives the interpreter (visible under ``/dev/shm`` on Linux), so every
segment the executor creates goes through the :class:`SegmentRegistry`
below, which guarantees close-and-unlink on :meth:`SegmentRegistry.close`
-- and, as a safety net, at interpreter exit.

Worker processes only ever *attach* to segments the parent created, and
they share the parent's ``multiprocessing.resource_tracker``
(:func:`share_resource_tracker` starts it before the workers fork).  The
parent's create registers each segment once and its unlink unregisters
it once; a worker's attach adds nothing the tracker does not already
hold, so it never unregisters.  Unregistering from the worker removed the
parent's entry, and the parent's unlink then made the tracker print a
``KeyError`` traceback per segment.
"""

from __future__ import annotations

import atexit
import os
import secrets
import sys
import threading
from multiprocessing import shared_memory
from typing import Dict, List, Optional

import numpy as np

__all__ = [
    "SegmentRegistry",
    "attach_segment",
    "ndarray_view",
    "leaked_segments",
    "share_resource_tracker",
]

#: name prefix of every segment this package creates (leak tests and the
#: benchmark scan for it)
SEGMENT_PREFIX = "repro-shm"

#: live registries, unlinked by the atexit hook if close() never ran
_LIVE_REGISTRIES: "set[SegmentRegistry]" = set()
_LIVE_LOCK = threading.Lock()


def _cleanup_at_exit() -> None:
    """Unlink whatever close() did not (crash / KeyboardInterrupt path)."""
    with _LIVE_LOCK:
        registries = list(_LIVE_REGISTRIES)
    for registry in registries:
        registry.close()


atexit.register(_cleanup_at_exit)


class SegmentRegistry:
    """Owns every shared-memory segment one executor creates.

    ``create`` hands out named segments; :meth:`close` (idempotent,
    thread-safe) closes **and unlinks** all of them.  Only the creating
    process may unlink: a forked worker inherits this object, so both
    :meth:`close` and the atexit hook check ``os.getpid()`` against the
    creator before touching the kernel objects.
    """

    def __init__(self) -> None:
        self._pid = os.getpid()
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._lock = threading.Lock()
        self._counter = 0
        self._closed = False
        with _LIVE_LOCK:
            _LIVE_REGISTRIES.add(self)

    def create(self, nbytes: int, *, tag: str = "seg") -> shared_memory.SharedMemory:
        """A new named segment of at least ``nbytes`` bytes."""
        if self._closed:
            raise RuntimeError("SegmentRegistry is closed")
        with self._lock:
            self._counter += 1
            name = (
                f"{SEGMENT_PREFIX}-{self._pid}-{self._counter}"
                f"-{tag}-{secrets.token_hex(3)}"
            )
            shm = shared_memory.SharedMemory(name=name, create=True, size=max(1, nbytes))
            self._segments[shm.name] = shm
            return shm

    def release(self, name: str) -> None:
        """Close and unlink one segment early (e.g. a resized B panel)."""
        with self._lock:
            shm = self._segments.pop(name, None)
        if shm is not None and os.getpid() == self._pid:
            _destroy(shm)

    @property
    def active_names(self) -> List[str]:
        """Names of the segments currently alive (telemetry / tests)."""
        with self._lock:
            return sorted(self._segments)

    @property
    def total_bytes(self) -> int:
        """Bytes currently held in shared memory by this registry."""
        with self._lock:
            return sum(shm.size for shm in self._segments.values())

    def close(self) -> None:
        """Close and unlink every segment.  Idempotent; fork-safe."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            segments = list(self._segments.values())
            self._segments.clear()
        with _LIVE_LOCK:
            _LIVE_REGISTRIES.discard(self)
        if os.getpid() != self._pid:
            return  # forked child: the parent owns the kernel objects
        for shm in segments:
            _destroy(shm)

    def __enter__(self) -> "SegmentRegistry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _destroy(shm: shared_memory.SharedMemory) -> None:
    """close() + unlink(), swallowing already-gone errors.

    ``BufferError`` means a live ndarray still views the mapping; the
    unlink below still removes the name (the kernel frees the storage
    once the last mapping drops), which is the leak guarantee we need.
    """
    try:
        shm.close()
    except (OSError, BufferError):  # pragma: no cover - view still alive
        pass
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - racing cleanup
        pass


def share_resource_tracker() -> None:
    """Start this process's ``resource_tracker`` before workers start.

    Forked workers inherit a running tracker (spawned ones are always
    handed the parent's).  A pool forked before the tracker ran would
    give each worker a private one, which unlinks every segment the
    worker attached to when the worker exits.
    """
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to a parent-created segment from a worker process.

    The worker shares the parent's tracker, which already holds the
    segment: before Python 3.13 the attach re-registers it (a no-op in
    the tracker's set), from 3.13 ``track=False`` skips that.  Only the
    parent's :class:`SegmentRegistry` unlinks and unregisters.
    """
    if sys.version_info >= (3, 13):
        return shared_memory.SharedMemory(name=name, track=False)
    return shared_memory.SharedMemory(name=name)


def ndarray_view(
    shm: shared_memory.SharedMemory,
    dtype: str,
    count: int,
    offset: int = 0,
) -> np.ndarray:
    """A zero-copy ndarray over ``count`` items of ``dtype`` at ``offset``."""
    return np.frombuffer(shm.buf, dtype=np.dtype(dtype), count=count, offset=offset)


def leaked_segments(prefix: str = SEGMENT_PREFIX, pid: Optional[int] = None) -> List[str]:
    """Orphaned segments visible under ``/dev/shm`` (Linux introspection).

    Lists system-wide segments carrying this package's name prefix --
    the leak tests and ``bench_multiprocess`` assert this comes back
    empty after executors shut down.  ``pid`` narrows the scan to
    segments created by one process.  Returns ``[]`` on platforms
    without a ``/dev/shm`` view.
    """
    root = "/dev/shm"
    if not os.path.isdir(root):  # pragma: no cover - non-Linux
        return []
    if pid is not None:
        prefix = f"{prefix}-{pid}-"
    try:
        return sorted(n for n in os.listdir(root) if n.startswith(prefix))
    except OSError:  # pragma: no cover - scan raced an unlink
        return []
