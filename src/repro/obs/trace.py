"""Span-based tracing: nested wall/CPU-timed spans linked across threads.

The model is deliberately small:

* A :class:`Span` is one timed operation — name, trace/span/parent ids,
  wall + CPU time, a status (``ok``/``error``) and structured attributes.
* A :class:`Tracer` hands out spans as context managers, keeps per-thread
  nesting on a thread-local stack, samples at trace roots with a
  deterministic stride, and buffers finished spans (bounded deque).
* A :class:`SpanContext` is the ``(trace_id, span_id)`` pair used to link
  spans recorded on pool threads to the span that submitted the work.

A disabled tracer is a **provable no-op**: ``span()`` returns one shared,
stateless context manager object (no allocation, no locking), and every
instrumented call site costs a single ``if`` check.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from collections import deque
from typing import Any, Dict, List, Optional, Tuple, Union

from .config import ObservabilityConfig

__all__ = ["NULL_TRACER", "Span", "SpanContext", "Tracer"]


class SpanContext(Tuple[str, str]):
    """Picklable ``(trace_id, span_id)`` pair identifying a live span."""

    __slots__ = ()

    def __new__(cls, trace_id: str, span_id: str) -> "SpanContext":
        """Build a context from a trace id and a span id."""
        return tuple.__new__(cls, (trace_id, span_id))

    @property
    def trace_id(self) -> str:
        """Identifier shared by every span of one trace."""
        return self[0]

    @property
    def span_id(self) -> str:
        """Identifier of the span that children should name as parent."""
        return self[1]

    def __getnewargs__(self) -> Tuple[str, str]:
        """Pickle support: ``__new__`` takes the two ids, not one tuple."""
        return (self[0], self[1])


def _new_id(nbytes: int) -> str:
    """Return ``nbytes`` of randomness as a lowercase hex string."""
    return uuid.uuid4().hex[: nbytes * 2]


class Span:
    """One timed operation inside a trace.

    Spans are created by :meth:`Tracer.span` (never directly), carry a
    monotonic wall clock and a per-thread CPU clock, and become immutable
    facts once finished.  ``attrs`` holds structured context (matrix
    fingerprint, backend, shard index, …) set via :meth:`set`.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "pid",
        "tid",
        "status",
        "error",
        "attrs",
        "start_s",
        "wall_ms",
        "cpu_ms",
        "_perf0",
        "_cpu0",
    )

    #: Real spans record; the shared null span advertises ``False``.
    recording = True

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        attrs: Dict[str, Any],
    ) -> None:
        """Stamp identity and start clocks; called by the tracer only."""
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.pid = os.getpid()
        self.tid = threading.get_ident()
        self.status = "ok"
        self.error: Optional[str] = None
        self.attrs: Dict[str, Any] = dict(attrs)
        self.start_s = time.time()
        self.wall_ms = 0.0
        self.cpu_ms = 0.0
        self._perf0 = time.perf_counter()
        self._cpu0 = time.thread_time()

    @property
    def context(self) -> SpanContext:
        """The picklable handle children use to name this span as parent."""
        return SpanContext(self.trace_id, self.span_id)

    def set(self, **attrs: Any) -> None:
        """Merge structured attributes into the span."""
        self.attrs.update(attrs)

    def mark_error(self, message: str) -> None:
        """Flip the span to ``error`` status with a human-readable cause."""
        self.status = "error"
        self.error = str(message)

    def _close(self) -> None:
        """Stop both clocks; called exactly once by the tracer."""
        self.wall_ms = (time.perf_counter() - self._perf0) * 1e3
        self.cpu_ms = (time.thread_time() - self._cpu0) * 1e3

    def __repr__(self) -> str:
        """Compact debugging representation."""
        return (
            f"Span({self.name!r}, trace={self.trace_id}, id={self.span_id}, "
            f"parent={self.parent_id}, status={self.status}, "
            f"wall_ms={self.wall_ms:.3f})"
        )


class _NullSpan:
    """Shared do-nothing span returned on every non-recording path."""

    __slots__ = ()

    recording = False
    name = ""
    status = "ok"
    error = None
    parent_id = None

    @property
    def context(self) -> None:
        """Null spans have no linkable context."""
        return None

    def set(self, **attrs: Any) -> None:
        """Discard attributes."""

    def mark_error(self, message: str) -> None:
        """Discard the error."""


#: The single null span shared by every disabled/unsampled code path.
NULL_SPAN = _NullSpan()


class _NoopSpanHandle:
    """Stateless context manager returned by a disabled tracer.

    One shared instance serves every call site concurrently — it holds no
    state, so re-entrancy and thread-safety are free.
    """

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        """Yield the shared null span."""
        return NULL_SPAN

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        """Propagate any exception unchanged."""
        return False


_NOOP_HANDLE = _NoopSpanHandle()

#: Anything accepted as a ``parent=`` argument.
ParentLike = Union[Span, _NullSpan, SpanContext, Tuple[str, str], None]


class _SpanHandle:
    """Context manager that opens a span on entry and finishes it on exit."""

    __slots__ = ("_tracer", "_name", "_parent", "_attrs", "_span")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        parent: ParentLike,
        attrs: Dict[str, Any],
    ) -> None:
        """Capture the pending span's identity; nothing starts yet."""
        self._tracer = tracer
        self._name = name
        self._parent = parent
        self._attrs = attrs
        self._span: Union[Span, _NullSpan] = NULL_SPAN

    def __enter__(self) -> Union[Span, _NullSpan]:
        """Start the span (or the null span if unsampled) and push it."""
        span = self._tracer._start(self._name, self._parent, self._attrs)
        self._tracer._stack().append(span)
        self._span = span
        return span

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        """Pop the span, mark errors from in-flight exceptions, finish it."""
        stack = self._tracer._stack()
        if stack:
            stack.pop()
        span = self._span
        if span.recording:
            if exc_type is not None and span.status != "error":
                span.mark_error(f"{exc_type.__name__}: {exc}")
            self._tracer._finish(span)  # type: ignore[arg-type]
        return False


class Tracer:
    """Factory and buffer for spans; thread-safe, sampling at trace roots.

    Nesting is implicit per thread: a span opened while another is open on
    the same thread becomes its child.  Work crossing threads passes an
    explicit ``parent=`` (a :class:`SpanContext` captured via
    :meth:`current_context`).  Sampling is a deterministic stride over root
    spans — unsampled roots push a null marker so their whole subtree skips
    recording without re-deciding.
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        sample_rate: float = 1.0,
        max_spans: int = 4096,
    ) -> None:
        """Create a tracer; ``enabled=False`` builds the shared-no-op kind."""
        if not (0.0 < float(sample_rate) <= 1.0):
            raise ValueError(f"sample_rate must be in (0, 1], got {sample_rate!r}")
        if int(max_spans) < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans!r}")
        self.enabled = bool(enabled)
        self.sample_rate = float(sample_rate)
        self._stride = max(1, int(round(1.0 / float(sample_rate))))
        self._finished: "deque[Span]" = deque(maxlen=int(max_spans))
        self._open: Dict[str, Span] = {}
        self._seq = 0
        self._dropped = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    @classmethod
    def from_config(cls, config: Optional[ObservabilityConfig]) -> "Tracer":
        """Build a tracer from a policy's ``obs`` field (``None`` → no-op)."""
        if config is None or not config.tracing:
            return cls(enabled=False)
        return cls(
            enabled=True,
            sample_rate=config.sample_rate,
            max_spans=config.max_spans,
        )

    # -- span lifecycle -------------------------------------------------

    def span(self, name: str, parent: ParentLike = None, **attrs: Any) -> Any:
        """Return a context manager yielding a new child span of ``parent``.

        With no explicit ``parent`` the innermost open span on this thread
        is used; with none open a new trace root is started (and sampled).
        Disabled tracers return one shared no-op handle.
        """
        if not self.enabled:
            return _NOOP_HANDLE
        return _SpanHandle(self, name, parent, attrs)

    def _stack(self) -> List[Union[Span, _NullSpan]]:
        """Return this thread's span stack, creating it lazily."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _start(
        self, name: str, parent: ParentLike, attrs: Dict[str, Any]
    ) -> Union[Span, _NullSpan]:
        """Resolve parentage + sampling and open a span (or the null span)."""
        if parent is None:
            stack = self._stack()
            if stack:
                parent = stack[-1]
        if parent is None:
            # Trace root: deterministic stride sampling.
            with self._lock:
                seq = self._seq
                self._seq += 1
            if seq % self._stride != 0:
                return NULL_SPAN
            trace_id = _new_id(8)
            parent_id: Optional[str] = None
        elif isinstance(parent, (_NullSpan,)) or (
            isinstance(parent, Span) and not parent.recording
        ):
            return NULL_SPAN
        elif isinstance(parent, Span):
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            # SpanContext or a plain (trace_id, span_id) tuple.
            trace_id, parent_id = str(parent[0]), str(parent[1])
        span = Span(name, trace_id, _new_id(4), parent_id, attrs)
        with self._lock:
            self._open[span.span_id] = span
        return span

    def _finish(self, span: Span) -> None:
        """Close the span's clocks and move it to the finished buffer."""
        span._close()
        with self._lock:
            self._open.pop(span.span_id, None)
            if len(self._finished) == self._finished.maxlen:
                self._dropped += 1
            self._finished.append(span)

    # -- introspection --------------------------------------------------

    def current_context(self) -> Optional[SpanContext]:
        """Context of this thread's innermost recording span, else ``None``.

        This is what callers capture before handing work to another thread
        so the far side can link child spans back.
        """
        if not self.enabled:
            return None
        stack = getattr(self._local, "stack", None)
        if not stack:
            return None
        top = stack[-1]
        return top.context if top.recording else None

    def snapshot(self) -> List[Span]:
        """Finished spans, oldest first, without consuming them."""
        with self._lock:
            return list(self._finished)

    def drain(self) -> List[Span]:
        """Remove and return all finished spans, oldest first."""
        with self._lock:
            spans = list(self._finished)
            self._finished.clear()
            return spans

    @property
    def open_count(self) -> int:
        """Number of currently open (started, unfinished) spans."""
        with self._lock:
            return len(self._open)

    @property
    def dropped(self) -> int:
        """Finished spans evicted because the buffer was full."""
        with self._lock:
            return self._dropped

    def __repr__(self) -> str:
        """Compact debugging representation."""
        state = "on" if self.enabled else "off"
        return (
            f"Tracer({state}, sample_rate={self.sample_rate}, "
            f"finished={len(self._finished)}, open={len(self._open)})"
        )


#: Shared disabled tracer used as the default by instrumented modules.
NULL_TRACER = Tracer(enabled=False)
