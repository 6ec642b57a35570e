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
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Optional

try:  # POSIX advisory locking; absent on some platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

__all__ = ["TuningCache", "TuningCacheStats", "default_cache_path"]

#: environment variable overriding the default on-disk location
CACHE_PATH_ENV = "REPRO_TUNING_CACHE"
_SCHEMA_VERSION = 1


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

    def _load(self) -> Dict[str, dict]:
        try:
            with open(self.path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except (FileNotFoundError, json.JSONDecodeError, OSError):
            return {}
        if not isinstance(payload, dict) or payload.get("version") != _SCHEMA_VERSION:
            return {}
        entries = payload.get("entries", {})
        return entries if isinstance(entries, dict) else {}

    def _dump(self, entries: Dict[str, dict]) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"version": _SCHEMA_VERSION, "entries": entries}
        # ``json.dumps`` without ``indent`` runs json's C encoder; streaming
        # ``json.dump`` (or any ``indent``) runs the pure-Python one, ~4x
        # slower per put on a file of a few hundred entries
        text = json.dumps(payload, sort_keys=True)
        fd, tmp = tempfile.mkstemp(
            prefix=self.path.name + ".", dir=str(self.path.parent)
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- mapping API ----------------------------------------------------------
    def get(self, key: str) -> Optional[dict]:
        """Return the stored entry for ``key`` or ``None``.  Always reads
        the file, so results written by other processes (or other engine
        instances) are visible immediately."""
        with self._lock:
            entry = self._load().get(key)
            if entry is None:
                self._misses += 1
            else:
                self._hits += 1
            return entry

    def put(self, key: str, entry: dict) -> None:
        """Store ``entry`` under ``key``.

        Read-merge-write under both the instance's thread lock and a
        cross-process file lock, then an atomic rename -- concurrent
        writers (threads or processes) each land their own entry without
        clobbering anyone else's.
        """
        with self._lock, self._file_lock():
            entries = self._load()
            entries[key] = entry
            self._dump(entries)
            self._stores += 1

    def clear(self) -> None:
        """Delete every entry (the file itself is removed)."""
        with self._lock:
            try:
                os.unlink(self.path)
            except FileNotFoundError:
                pass

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._load()

    def __len__(self) -> int:
        with self._lock:
            return len(self._load())

    @property
    def stats(self) -> TuningCacheStats:
        """Snapshot of the cache's hit/miss/store counters."""
        with self._lock:
            return TuningCacheStats(
                hits=self._hits,
                misses=self._misses,
                stores=self._stores,
                size=len(self._load()),
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats
        return (
            f"<TuningCache path={str(self.path)!r} size={s.size} "
            f"hits={s.hits} misses={s.misses}>"
        )
