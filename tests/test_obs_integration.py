"""End-to-end observability: spans through every layer, metrics on the wire.

A traced sharded run must produce one trace covering engine entry,
partition, plan preparation and per-shard execution; ``/metrics`` keeps
its JSON shape and gains a Prometheus rendering; error paths (kernel
fallback, admission shed) close every span they opened.
"""

import json
import time

import numpy as np
import pytest

from repro.core import SMaTConfig
from repro.core.policy import ExecutionPolicy
from repro.engine import SpMMEngine
from repro.gpu import A100_SXM4_40GB
from repro.matrices import uniform_random
from repro.obs import ObservabilityConfig, parse_prometheus
from repro.serve import ServeClientError, SpMMClient, SpMMServer

TRACED = ObservabilityConfig(tracing=True)


@pytest.fixture
def problem(rng):
    A = uniform_random(512, 512, density=0.02, rng=rng)
    B = rng.normal(size=(512, 8)).astype(np.float32)
    return A, B


def _names(spans):
    return {s.name for s in spans}


class TestEngineSpans:
    def test_multiply_cold_then_warm(self, problem):
        A, B = problem
        with SpMMEngine(policy=ExecutionPolicy(obs=TRACED, max_workers=1)) as engine:
            engine.multiply(A, B)
            engine.multiply(A, B)
            spans = engine.tracer.snapshot()
        assert {"engine.multiply", "plan.lookup", "plan.build", "kernel.build"} <= (
            _names(spans)
        )
        lookups = [s for s in spans if s.name == "plan.lookup"]
        assert [s.attrs["cache_hit"] for s in lookups] == [False, True]
        # the warm call built nothing
        assert sum(1 for s in spans if s.name == "plan.build") == 1
        assert engine.tracer.open_count == 0

    def test_disabled_by_default(self, problem):
        A, B = problem
        with SpMMEngine(policy=ExecutionPolicy(max_workers=1)) as engine:
            engine.multiply(A, B)
            assert engine.tracer.enabled is False
            assert engine.tracer.snapshot() == []

    def test_tuned_engine_records_tuner_spans(self, problem):
        A, B = problem
        policy = ExecutionPolicy(obs=TRACED, tune=True, max_workers=1)
        with SpMMEngine(policy=policy) as engine:
            engine.tuner.cache = None  # force a fresh search
            engine.multiply(A, B)
            spans = engine.tracer.snapshot()
        assert {"tuner.resolve", "tuner.search"} <= _names(spans)
        search = next(s for s in spans if s.name == "tuner.search")
        assert search.attrs["candidates"] > 0

    def test_batch_spans_cross_pool_threads(self, problem):
        A, B = problem
        with SpMMEngine(policy=ExecutionPolicy(obs=TRACED, max_workers=2)) as engine:
            engine.multiply_many(A, [B, B, B])
            spans = engine.tracer.snapshot()
        batch = next(s for s in spans if s.name == "engine.multiply_batch")
        items = [s for s in spans if s.name == "engine.execute"]
        assert len(items) == 3
        # items ran on pool threads but stitch to the batch span's trace
        assert all(s.trace_id == batch.trace_id for s in items)
        assert all(s.parent_id == batch.span_id for s in items)


class TestShardedSpans:
    def test_thread_sharded_trace(self, problem):
        A, B = problem
        policy = ExecutionPolicy(
            obs=TRACED, sharded=True, grid="2x2", max_workers=2
        )
        with SpMMEngine(policy=policy) as engine:
            engine.multiply(A, B)
            spans = engine.tracer.snapshot()
        assert {
            "engine.multiply_sharded",
            "shard.partition",
            "shard.prepare",
            "shard.execute",
            "shard.run",
        } <= _names(spans)
        root = next(s for s in spans if s.name == "engine.multiply_sharded")
        runs = [s for s in spans if s.name == "shard.run"]
        assert len(runs) == 4
        assert all(s.trace_id == root.trace_id for s in runs)


class TestErrorPathSpans:
    def test_kernel_fallback_closes_spans_with_error(self, problem):
        A, B = problem
        tiny = A100_SXM4_40GB.with_overrides(hbm_capacity_gib=0.0001)
        with SpMMEngine(policy=ExecutionPolicy(obs=TRACED, max_workers=1)) as engine:
            _, report = engine.multiply(
                A,
                B,
                config=SMaTConfig(kernel="magicube", arch=tiny),
                return_report=True,
            )
            spans = engine.tracer.snapshot()
            assert engine.tracer.open_count == 0
        assert report.preprocessing.fallback_from == "magicube"
        build = next(s for s in spans if s.name == "kernel.build")
        assert build.status == "error"
        assert "Magicube" in build.error
        fallback = next(s for s in spans if s.name == "kernel.fallback")
        assert fallback.status == "ok"
        assert fallback.attrs["requested"] == "magicube"


class TestServingObservability:
    @staticmethod
    def _wait(predicate, timeout_s=5.0):
        """Poll until ``predicate()`` is true: the request span/log/counter
        lands in the handler's ``finally`` *after* the response is sent."""
        deadline = time.time() + timeout_s
        while not predicate() and time.time() < deadline:
            time.sleep(0.005)
        assert predicate()

    def _register(self, client, rng):
        A = uniform_random(64, 64, density=0.05, rng=rng)
        return A, client.register(A)

    def test_http_span_wraps_engine_spans(self, rng):
        policy = ExecutionPolicy(obs=TRACED, max_workers=1)
        with SpMMServer(policy=policy) as server:
            client = SpMMClient(server.url)
            A, fp = self._register(client, rng)
            client.multiply(fp, np.ones((64, 2), dtype=np.float32))
            self._wait(
                lambda: any(
                    s.attrs.get("endpoint") == "POST /multiply"
                    for s in server.engine.tracer.snapshot()
                    if s.name == "http.request"
                )
            )
            spans = server.engine.tracer.snapshot()
            assert server.engine.tracer.open_count == 0
        http = [s for s in spans if s.name == "http.request"]
        multiply = next(
            s for s in http if s.attrs.get("endpoint") == "POST /multiply"
        )
        assert multiply.status == "ok" and multiply.attrs["status"] == 200
        engine_spans = [
            s for s in spans if s.name == "engine.execute" and s.trace_id == multiply.trace_id
        ]
        assert engine_spans, "engine spans must nest under the HTTP request span"

    def test_request_log_carries_trace_ids(self, rng, tmp_path):
        log_path = tmp_path / "requests.log"
        policy = ExecutionPolicy(obs=TRACED, max_workers=1)
        with open(log_path, "w") as stream:
            with SpMMServer(policy=policy, log_stream=stream) as server:
                client = SpMMClient(server.url)
                A, fp = self._register(client, rng)
                client.multiply(fp, np.ones((64, 2), dtype=np.float32))
                self._wait(
                    lambda: any(
                        s.attrs.get("path") == "/multiply"
                        for s in server.engine.tracer.snapshot()
                        if s.name == "http.request"
                    )
                )
                spans = server.engine.tracer.snapshot()
        records = [json.loads(line) for line in log_path.read_text().splitlines()]
        request_lines = [r for r in records if r["event"] == "request"]
        assert request_lines
        multiply_line = next(r for r in request_lines if r["path"] == "/multiply")
        for key in ("ts", "request_id", "method", "tenant", "status", "wall_ms",
                    "bytes_in", "trace_id", "span_id"):
            assert key in multiply_line
        span = next(
            s
            for s in spans
            if s.name == "http.request" and s.attrs.get("path") == "/multiply"
        )
        assert multiply_line["trace_id"] == span.trace_id
        assert multiply_line["span_id"] == span.span_id

    def test_untraced_log_lines_have_null_ids(self, rng, tmp_path):
        log_path = tmp_path / "requests.log"
        with open(log_path, "w") as stream:
            with SpMMServer(policy=ExecutionPolicy(max_workers=1), log_stream=stream) as server:
                SpMMClient(server.url).health()
                self._wait(lambda: server.metrics.requests_total >= 1)
        record = json.loads(log_path.read_text().splitlines()[-1])
        assert record["trace_id"] is None and record["span_id"] is None

    def test_metrics_json_shape_is_pinned(self, rng):
        """Satellite regression: the consolidated histogram must keep the
        historical /metrics JSON keys byte-compatible."""
        with SpMMServer(policy=ExecutionPolicy(max_workers=1)) as server:
            client = SpMMClient(server.url)
            A, fp = self._register(client, rng)
            client.multiply(fp, np.ones((64, 2), dtype=np.float32))
            self._wait(lambda: server.metrics.requests_total >= 2)
            doc = client.metrics()
        assert set(doc["latency_ms"]) == {"count", "mean_ms", "p50_ms", "p99_ms"}
        assert doc["latency_ms"]["count"] >= 1
        assert isinstance(doc["requests_total"], int)
        assert doc["responses_by_status"]
        assert "admission" in doc and "plan_cache" in doc and "engine" in doc

    def test_metrics_prometheus_format_parses(self, rng):
        with SpMMServer(policy=ExecutionPolicy(max_workers=1)) as server:
            client = SpMMClient(server.url)
            A, fp = self._register(client, rng)
            client.multiply(fp, np.ones((64, 2), dtype=np.float32))
            self._wait(lambda: server.metrics.requests_total >= 2)
            import urllib.request

            with urllib.request.urlopen(
                server.url + "/metrics?format=prometheus"
            ) as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"].startswith("text/plain")
                text = resp.read().decode("utf-8")
        samples = parse_prometheus(text)  # the strict line checker
        names = {name for name, _, _ in samples}
        assert {
            "repro_http_requests_total",
            "repro_http_request_wall_ms_bucket",
            "repro_http_request_wall_ms_count",
            "repro_engine_item_wall_ms_bucket",
            "repro_http_uptime_seconds",
        } <= names
        by_endpoint = [
            labels
            for name, labels, _ in samples
            if name == "repro_http_requests_total"
        ]
        assert any(lbl.get("endpoint") == "POST /multiply" for lbl in by_endpoint)

    def test_admission_shed_closes_span_with_error(self, rng):
        policy = ExecutionPolicy(obs=TRACED, max_workers=1)
        with SpMMServer(policy=policy, max_pending_jobs=0) as server:
            client = SpMMClient(server.url)
            A, fp = self._register(client, rng)
            with pytest.raises(ServeClientError) as err:
                client.submit(fp, np.ones((64, 2), dtype=np.float32))
            assert err.value.status == 429
            self._wait(
                lambda: any(
                    s.attrs.get("endpoint") == "POST /jobs"
                    for s in server.engine.tracer.snapshot()
                    if s.name == "http.request"
                )
            )
            spans = server.engine.tracer.snapshot()
            assert server.engine.tracer.open_count == 0
        shed = next(
            s
            for s in spans
            if s.name == "http.request" and s.attrs.get("endpoint") == "POST /jobs"
        )
        assert shed.status == "error"
        assert shed.attrs["status"] == 429


class TestEngineTelemetryParity:
    def test_telemetry_served_by_obs_histogram(self, problem):
        """Satellite: engine telemetry (completed/mean/p50/p99) is now a
        view over the obs histogram, same values as the old deque."""
        A, B = problem
        with SpMMEngine(policy=ExecutionPolicy(max_workers=1)) as engine:
            engine.multiply_many(A, [B] * 5)
            tel = engine.telemetry()
        assert tel.completed == 5
        assert tel.p50_ms <= tel.p99_ms
        hist = engine.metrics.get("repro_engine_item_wall_ms")
        assert hist.count == 5
        assert tel.p50_ms == pytest.approx(hist.percentile(50))
