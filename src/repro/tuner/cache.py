"""Fingerprint-keyed persistent cache of tuning results.

A tuning search costs several preprocessing passes; its *result* is a few
dozen bytes of configuration.  This cache persists that result as JSON on
disk so the search is paid once per (matrix, tuning context) across
processes, engine instances, and sessions -- the disk-backed sibling of
the in-memory :class:`~repro.engine.cache.PlanCache`, with the same
semantics: keyed by content fingerprint, hit/miss counters, and safe for
concurrent use.

Entries are keyed by the matrix fingerprint
(:func:`~repro.core.plan.matrix_fingerprint`) plus a *tuning signature*
covering everything that changes the search outcome: precision, kernel
variant, architecture, operand width, and the searched space.  Writes are
atomic (temp file + ``os.replace``) and merge with whatever another
process wrote in the meantime, so concurrent tuners cannot clobber each
other's results.

Each instance keeps the parsed entries in memory, plus each entry's
serialised text, and the file's identity ``(st_ino, st_size,
st_mtime_ns)`` from its last read or write.  A call re-reads the file only
when that identity has changed, and a store writes the file by joining
the kept texts, so neither costs a parse of the whole file.
"""

from __future__ import annotations

import contextlib
import copy
import json
import os
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

try:  # POSIX advisory locking; absent on some platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

__all__ = ["TuningCache", "TuningCacheStats", "default_cache_path"]

#: environment variable overriding the default on-disk location
CACHE_PATH_ENV = "REPRO_TUNING_CACHE"
_SCHEMA_VERSION = 1


def _identity(st: os.stat_result) -> Tuple[int, int, int]:
    """What tells one version of the cache file from another."""
    return (st.st_ino, st.st_size, st.st_mtime_ns)


def default_cache_path() -> Path:
    """Default location of the tuning cache file.

    ``$REPRO_TUNING_CACHE`` wins when set; otherwise the file lives under
    the user cache directory (``$XDG_CACHE_HOME`` or ``~/.cache``).
    """
    env = os.environ.get(CACHE_PATH_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-smat" / "tuning_cache.json"


@dataclass
class TuningCacheStats:
    """Hit/miss/store counters of one :class:`TuningCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    size: int = 0


class TuningCache:
    """JSON-file-backed mapping of tuning keys to winning configurations.

    Parameters
    ----------
    path:
        Cache file location (created on first store).  ``None`` selects
        :func:`default_cache_path`.
    """

    def __init__(self, path: Optional[os.PathLike] = None):
        self.path = Path(path) if path is not None else default_cache_path()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._stores = 0
        #: the file's entries as of its last read or write, each entry's
        #: ``"key": {...}`` text in the file, and that file's identity
        #: (``None``: no readable file, so no entries)
        self._entries: Dict[str, dict] = {}
        self._texts: Dict[str, str] = {}
        self._seen: Optional[Tuple[int, int, int]] = None

    # -- persistence ----------------------------------------------------------
    @contextlib.contextmanager
    def _file_lock(self) -> Iterator[None]:
        """Cross-process exclusive lock around read-merge-write updates.

        The thread lock alone cannot stop two *processes* interleaving
        load -> merge -> replace and losing one writer's entry, so writes
        also take an advisory ``flock`` on a ``.lock`` sidecar (never on
        the data file itself: ``os.replace`` swaps that inode out).  On
        platforms without ``fcntl`` the thread lock is all there is --
        same behaviour as before this fix.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        lock_path = self.path.with_name(self.path.name + ".lock")
        fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)  # closing drops the flock

    def _refresh(self) -> None:
        """Bring the in-memory entries up to date with the file, reading it
        only when its identity differs from the last read or write (a
        missing, unreadable or corrupt file holds no entries)."""
        try:
            identity = _identity(os.stat(self.path))
        except OSError:
            identity = None
        if identity == self._seen:
            return
        payload = None
        if identity is not None:
            try:
                with open(self.path, encoding="utf-8") as fh:
                    identity = _identity(os.fstat(fh.fileno()))
                    payload = json.load(fh)
            except (OSError, ValueError):
                pass
        entries = None
        if isinstance(payload, dict) and payload.get("version") == _SCHEMA_VERSION:
            entries = payload.get("entries")
        self._entries = entries if isinstance(entries, dict) else {}
        self._texts = {}
        self._seen = identity

    def _dump(self) -> None:
        """Write the in-memory entries as the whole file (atomically).

        The document is ``json.dumps({"version": 1, "entries": ...},
        sort_keys=True)``, assembled from the kept entry texts; only
        entries read from the file since the last write are serialised.
        """
        for key in self._entries.keys() - self._texts.keys():
            self._texts[key] = (
                f"{json.dumps(key)}: {json.dumps(self._entries[key], sort_keys=True)}"
            )
        text = '{"entries": {%s}, "version": %d}' % (
            ", ".join(self._texts[key] for key in sorted(self._texts)),
            _SCHEMA_VERSION,
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            prefix=self.path.name + ".", dir=str(self.path.parent)
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
                fh.flush()
                identity = _identity(os.fstat(fh.fileno()))
            os.replace(tmp, self.path)
        except BaseException:
            # the entries in memory are not the file's: re-read it next time
            self._seen = ()
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._seen = identity

    # -- mapping API ----------------------------------------------------------
    def get(self, key: str) -> Optional[dict]:
        """Return a copy of the stored entry for ``key``, or ``None``.

        The file is re-read only when it changed since this instance last
        read or wrote it, so results written by other processes (or other
        engine instances) are seen by the next call.
        """
        with self._lock:
            self._refresh()
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._hits += 1
            return copy.deepcopy(entry)

    def put(self, key: str, entry: dict) -> None:
        """Store ``entry`` under ``key``.

        Read-merge-write under both the instance's thread lock and a
        cross-process file lock, then an atomic rename -- concurrent
        writers (threads or processes) each land their own entry without
        clobbering anyone else's.  The merge re-reads the file only when
        another writer changed it.
        """
        text = json.dumps(entry, sort_keys=True)
        with self._lock, self._file_lock():
            self._refresh()
            # kept as a reader of the file would see it (tuples as lists)
            self._entries[key] = json.loads(text)
            self._texts[key] = f"{json.dumps(key)}: {text}"
            self._dump()
            self._stores += 1

    def clear(self) -> None:
        """Delete every entry (the file itself is removed)."""
        with self._lock:
            try:
                os.unlink(self.path)
            except FileNotFoundError:
                pass
            self._entries, self._texts, self._seen = {}, {}, None

    def __contains__(self, key: str) -> bool:
        with self._lock:
            self._refresh()
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            self._refresh()
            return len(self._entries)

    @property
    def stats(self) -> TuningCacheStats:
        """Snapshot of the cache's hit/miss/store counters."""
        with self._lock:
            self._refresh()
            return TuningCacheStats(
                hits=self._hits,
                misses=self._misses,
                stores=self._stores,
                size=len(self._entries),
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats
        return (
            f"<TuningCache path={str(self.path)!r} size={s.size} "
            f"hits={s.hits} misses={s.misses}>"
        )
