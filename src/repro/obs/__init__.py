"""Observability: span tracing, unified metrics, Prometheus + Chrome export.

This package is a stdlib-only leaf — it imports nothing from the rest of
``repro`` so every layer (core, engine, shard, serve, CLI) can depend
on it without cycles.  See ``docs/observability.md`` for the guided tour.
"""

from .config import ObservabilityConfig
from .export import chrome_trace, span_tree, validate_chrome_trace, write_chrome_trace
from .metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exponential_buckets,
    parse_prometheus,
)
from .trace import NULL_TRACER, Span, SpanContext, Tracer

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_MS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "ObservabilityConfig",
    "Span",
    "SpanContext",
    "Tracer",
    "chrome_trace",
    "exponential_buckets",
    "parse_prometheus",
    "span_tree",
    "validate_chrome_trace",
    "write_chrome_trace",
]
