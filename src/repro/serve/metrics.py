"""Serving metrics: counters and latency percentiles for ``GET /metrics``.

Everything the daemon knows about its own behaviour is published as one
JSON document: request counts (total, per endpoint, per tenant, per
status class), rejection counts by reason (auth / quota / overload /
payload), bytes ingested, admission-queue depth, request-latency
percentiles over a bounded recent window, and the pass-through snapshots
of the engine (:meth:`~repro.engine.SpMMEngine.telemetry`) and its plan
cache.  All counters are monotonic since process start -- scrape twice
and diff, exactly like any other counter-based metrics endpoint.

Since the observability PR the numbers live in one
:class:`repro.obs.MetricsRegistry` (labelled counters + one exponential
histogram) instead of three ad-hoc implementations; the JSON document is
a *view* over that registry with its historical shape intact, and
``/metrics?format=prometheus`` renders the same registry as text
exposition via :meth:`ServerMetrics.prometheus`.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from ..obs import MetricsRegistry

__all__ = ["ServerMetrics"]


class ServerMetrics:
    """Thread-safe counters behind the ``/metrics`` endpoint."""

    def __init__(self, latency_window: int = 2048):
        """Create the registry and all request-path series at zero."""
        self._started = time.time()
        self.registry = MetricsRegistry()
        self._requests = self.registry.counter(
            "repro_http_requests_total",
            "HTTP requests by endpoint, tenant and status",
            labels=("endpoint", "tenant", "status"),
        )
        self._rejected = self.registry.counter(
            "repro_http_rejected_total",
            "Requests rejected, by reason (auth/quota/overload/payload)",
            labels=("reason",),
        )
        self._bytes_in = self.registry.counter(
            "repro_http_bytes_in_total", "Request payload bytes ingested"
        )
        self._streamed = self.registry.counter(
            "repro_http_results_streamed_total",
            "Results yielded by streaming responses",
        )
        self._latency = self.registry.histogram(
            "repro_http_request_wall_ms",
            "Wall time of successful requests (ms)",
            window=latency_window,
        )

    def record_request(
        self,
        *,
        endpoint: str,
        tenant: Optional[str],
        status: int,
        wall_ms: float,
        bytes_in: int = 0,
        rejected: Optional[str] = None,
    ) -> None:
        """Account one finished request (any status)."""
        self._requests.inc(
            endpoint=endpoint, tenant=tenant or "", status=str(status)
        )
        if bytes_in:
            self._bytes_in.inc(int(bytes_in))
        if rejected:
            self._rejected.inc(reason=rejected)
        if status < 400:
            self._latency.observe(float(wall_ms))

    def record_streamed(self, n_results: int) -> None:
        """Account results yielded by streaming responses."""
        self._streamed.inc(int(n_results))

    @property
    def requests_total(self) -> int:
        """Requests accounted so far (any endpoint, any status)."""
        return int(self._requests.total())

    def _latency_snapshot(self) -> Dict[str, float]:
        """Request latency: count plus mean/p50/p99 over the window."""
        count = self._latency.count
        if count == 0:
            return {"count": 0, "mean_ms": 0.0, "p50_ms": 0.0, "p99_ms": 0.0}
        return {
            "count": count,
            "mean_ms": float(self._latency.mean()),
            "p50_ms": float(self._latency.percentile(50)),
            "p99_ms": float(self._latency.percentile(99)),
        }

    @staticmethod
    def _int_dict(values: Dict[str, float]) -> Dict[str, int]:
        """Counter aggregations as the historical ``str -> int`` JSON maps."""
        return {k: int(v) for k, v in values.items()}

    def snapshot(self, *, engine=None, registry=None, admission=None) -> Dict[str, object]:
        """The full ``/metrics`` JSON document.

        ``engine``/``registry``/``admission`` add their live gauges
        (plan-cache counters, engine telemetry, matrices registered,
        queue depth) when provided.
        """
        by_tenant = self._int_dict(self._requests.sum_by("tenant"))
        by_tenant.pop("", None)  # anonymous requests were never per-tenant
        doc: Dict[str, object] = {
            "uptime_s": time.time() - self._started,
            "requests_total": int(self._requests.total()),
            "requests_by_endpoint": self._int_dict(self._requests.sum_by("endpoint")),
            "requests_by_tenant": by_tenant,
            "responses_by_status": self._int_dict(self._requests.sum_by("status")),
            "rejected": self._int_dict(self._rejected.sum_by("reason")),
            "bytes_in": int(self._bytes_in.total()),
            "results_streamed": int(self._streamed.total()),
        }
        doc["latency_ms"] = self._latency_snapshot()
        if admission is not None:
            doc["admission"] = {
                "inflight": admission.inflight,
                "queued": admission.queued,
                "queue_depth": admission.depth,
                "rejected": admission.rejected,
                "max_inflight": admission.max_inflight,
                "max_queue": admission.max_queue,
            }
        if engine is not None:
            stats = engine.cache_stats
            doc["plan_cache"] = {
                "hits": stats.hits,
                "misses": stats.misses,
                "evictions": stats.evictions,
                "size": stats.size,
                "maxsize": stats.maxsize,
                "hit_rate": stats.hit_rate,
            }
            telemetry = engine.telemetry()
            doc["engine"] = {
                "completed": telemetry.completed,
                "queue_depth": telemetry.queue_depth,
                "mean_ms": telemetry.mean_ms,
                "p50_ms": telemetry.p50_ms,
                "p99_ms": telemetry.p99_ms,
            }
            online = telemetry.online
            if online is not None:
                doc["engine"]["online"] = {
                    "observations": online.observations,
                    "keys": online.keys,
                    "pending": online.pending,
                    "drift": dict(online.drift),
                    "model_scales": dict(online.model_scales),
                    "recalibrations": online.recalibrations,
                    "retunes": online.retunes,
                    "retunes_failed": online.retunes_failed,
                    "plan_swaps": online.plan_swaps,
                    "explored": online.explored,
                    "exploration_share": online.exploration_share,
                    "promotions": online.promotions,
                    "errors": online.errors,
                    "worker_alive": online.worker_alive,
                }
            executor = telemetry.executor
            if executor is not None:
                doc["engine"]["executor"] = {
                    "kind": executor.kind,
                    "workers": executor.workers,
                    "sessions": executor.sessions,
                    "shards_executed": executor.shards_executed,
                    # JSON object keys are strings; keep worker ids readable
                    "per_worker_shards": {
                        str(k): v for k, v in sorted(executor.per_worker_shards.items())
                    },
                    "placement_imbalance": executor.placement_imbalance,
                    "segment_bytes": executor.segment_bytes,
                    "warmup_hits": executor.warmup_hits,
                }
        if registry is not None:
            doc["matrices_registered"] = registry.count()
        return doc

    def prometheus(self, *, engine=None, registry=None, admission=None) -> str:
        """``/metrics?format=prometheus``: text exposition of the registry.

        Live gauges (uptime, admission queue, plan cache, engine telemetry,
        matrix registry size) are refreshed into the registry first, then
        everything — including the engine's own per-item latency histogram —
        is rendered in one pass.
        """
        self.registry.gauge(
            "repro_http_uptime_seconds", "Seconds since server start"
        ).set(time.time() - self._started)
        if admission is not None:
            gauge = self.registry.gauge(
                "repro_admission", "Admission controller state", labels=("state",)
            )
            gauge.set(admission.inflight, state="inflight")
            gauge.set(admission.queued, state="queued")
            gauge.set(admission.depth, state="queue_depth")
            gauge.set(admission.rejected, state="rejected")
        if registry is not None:
            self.registry.gauge(
                "repro_matrices_registered", "Matrices in the registry"
            ).set(registry.count())
        parts = []
        if engine is not None:
            stats = engine.cache_stats
            cache_gauge = self.registry.gauge(
                "repro_plan_cache", "Plan cache counters", labels=("event",)
            )
            cache_gauge.set(stats.hits, event="hits")
            cache_gauge.set(stats.misses, event="misses")
            cache_gauge.set(stats.evictions, event="evictions")
            cache_gauge.set(stats.size, event="size")
            telemetry = engine.telemetry()
            self.registry.gauge(
                "repro_engine_completed_items", "Items the engine completed"
            ).set(telemetry.completed)
            self.registry.gauge(
                "repro_engine_queue_depth", "Async jobs not yet collected"
            ).set(telemetry.queue_depth)
            engine_registry = getattr(engine, "metrics", None)
            if engine_registry is not None:
                parts.append(engine_registry.render_prometheus())
        parts.insert(0, self.registry.render_prometheus())
        return "".join(parts)
