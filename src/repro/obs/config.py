"""Observability configuration that rides on :class:`~repro.core.policy.ExecutionPolicy`.

``ObservabilityConfig`` is a frozen, hashable, picklable value object so it
can live on the (also frozen) execution policy.  Tracing is **off by default**: a policy without
an explicit ``obs`` field costs one attribute check per instrumented seam.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ObservabilityConfig"]


@dataclass(frozen=True)
class ObservabilityConfig:
    """Switches for the tracing/metrics subsystem.

    Attributes:
        tracing: master switch.  ``False`` (the default) keeps the tracer on
            its no-op fast path — instrumented code returns a shared no-op
            context manager without allocating anything.
        sample_rate: fraction of *root* spans that are recorded, in
            ``(0, 1]``.  Sampling is decided once per trace (deterministic
            stride, not RNG) and inherited by every child span, so a trace
            is always either complete or absent.
        max_spans: bound on the finished-span buffer held in memory; the
            oldest spans are dropped (and counted) beyond this.
    """

    tracing: bool = False
    sample_rate: float = 1.0
    max_spans: int = field(default=4096)

    def __post_init__(self) -> None:
        """Validate field ranges at construction time."""
        if not isinstance(self.tracing, bool):
            raise TypeError(f"tracing must be a bool, got {self.tracing!r}")
        if not (0.0 < float(self.sample_rate) <= 1.0):
            raise ValueError(
                f"sample_rate must be in (0, 1], got {self.sample_rate!r}"
            )
        if int(self.max_spans) < 1:
            raise ValueError(f"max_spans must be >= 1, got {self.max_spans!r}")
