"""Benchmark-side tracing: wrappers around the public functions of each layer.

Nothing here touches ``src/repro``'s code.  :meth:`Instrumentation.install`
replaces each listed function or method with a wrapper that records one span
(name, layer, start, end, parent, thread) into an in-memory
:class:`SpanStore`, and :meth:`Instrumentation.uninstall` puts the originals
back, so the untraced phase of a run
executes the program exactly as shipped.

Nesting is tracked per thread.  A span opened on a thread with an empty
stack (an HTTP handler thread of the in-process server) is parented to the
innermost open span of the calling thread (the client call waiting for
it), so one op's spans form one tree even across threads.  A layer's self
time is a span's duration minus the part of it covered by its child spans
(see :func:`self_times`).
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: layer of the benchmark's own op span (the root of every op tree)
BENCH_LAYER = "bench"


@dataclass
class Span:
    """One recorded call."""

    sid: int
    parent: Optional[int]
    name: str
    layer: str
    start: float
    end: float
    caller_thread: bool
    op: int
    extra: Optional[dict]

    @property
    def duration(self) -> float:
        """Wall seconds between entry and exit."""
        return self.end - self.start


class SpanStore:
    """Spans of one traced run, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._caller = threading.get_ident()
        #: the caller thread's span stack; a span opened on another thread
        #: with an empty stack becomes a child of its innermost open span
        self._caller_stack: List[int] = []
        #: index of the op being traced; -1 while setting up
        self.op = -1

    def _stack(self) -> list:
        if threading.get_ident() == self._caller:
            return self._caller_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, layer: str, fn: Callable, args, kwargs, on_result):
        """Run ``fn`` inside a span and return its result."""
        stack = self._stack()
        on_caller = stack is self._caller_stack
        if stack:
            parent = stack[-1]
        else:
            caller = self._caller_stack
            parent = caller[-1] if caller and not on_caller else None
        sid = next(self._ids)
        stack.append(sid)
        op = self.op
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            extra = on_result(result) if on_result is not None and result is not None else None
            self.spans.append(Span(sid, parent, name, layer, start, end, on_caller, op, extra))

    def open_op(self, op: int) -> Tuple[int, float]:
        """Open the benchmark's root span for op ``op``."""
        sid = next(self._ids)
        self.op = op
        self._caller_stack.append(sid)
        return sid, time.perf_counter()

    def close_op(self, token: Tuple[int, float]) -> None:
        """Close the root span opened by :meth:`open_op`."""
        sid, start = token
        end = time.perf_counter()
        self._caller_stack.pop()
        self.spans.append(Span(sid, None, "bench.op", BENCH_LAYER, start, end, True, self.op, None))
        self.op = -1


def dump_spans(spans: List[Span]) -> list:
    """JSON-ready rows: ``[id, parent, name, layer, start_us, end_us,
    caller_thread, op]``, times relative to the first span."""
    t0 = min((s.start for s in spans), default=0.0)
    return [
        [
            s.sid,
            s.parent,
            s.name,
            s.layer,
            round(1e6 * (s.start - t0), 1),
            round(1e6 * (s.end - t0), 1),
            s.caller_thread,
            s.op,
        ]
        for s in spans
    ]


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self seconds per span id: duration minus the union of the
    intervals its children cover (clipped to the parent)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    by_id = {s.sid: s for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in by_id:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.sid] = s.duration - covered
    return out


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``owner.attr`` (a class or a module)."""

    owner: object
    attr: str
    name: str
    layer: str
    on_result: Optional[Callable] = None


class Instrumentation:
    """Installs and removes the wrappers of a list of :class:`Target`\\ s."""

    def __init__(self, store: SpanStore, targets: List[Target]):
        self.store = store
        self.targets = targets
        self._saved: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every target; a missing target is an error, so a renamed
        public function cannot silently drop out of the trace."""
        if self._saved:
            return
        for t in self.targets:
            if isinstance(t.owner, type):
                self._wrap_method(t)
            else:
                self._wrap_function(t)

    def uninstall(self) -> None:
        """Restore every original, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrapper(self, fn: Callable, t: Target) -> Callable:
        store = self.store

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return store.call(t.name, t.layer, fn, args, kwargs, t.on_result)

        return traced

    def _wrap_method(self, t: Target) -> None:
        if t.attr not in t.owner.__dict__:
            raise AttributeError(f"{t.owner.__name__}.{t.attr} is not defined on the class")
        raw = t.owner.__dict__[t.attr]
        if isinstance(raw, classmethod):
            new = classmethod(self._wrapper(raw.__func__, t))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self._wrapper(raw.__func__, t))
        else:
            new = self._wrapper(raw, t)
        self._saved.append((t.owner, t.attr, raw))
        setattr(t.owner, t.attr, new)

    def _wrap_function(self, t: Target) -> None:
        original = getattr(t.owner, t.attr)
        wrapped = self._wrapper(original, t)
        # modules that imported the function by name hold their own
        # reference: rebind it wherever the original object is bound
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
