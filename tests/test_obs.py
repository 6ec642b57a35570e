"""Unit tests of the observability package (``repro.obs``).

Covers the tracer lifecycle (nesting, sampling, the disabled no-op fast
path, cross-process ingest), the metrics registry (counters, gauges,
histograms with numpy-exact percentiles), the Prometheus text renderer
and its strict parser, and the Chrome trace-event exporter.
"""

import json
import pickle
import threading

import numpy as np
import pytest

from repro.core.policy import ExecutionPolicy
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Histogram,
    MetricsRegistry,
    ObservabilityConfig,
    SpanContext,
    Tracer,
    chrome_trace,
    exponential_buckets,
    parse_prometheus,
    span_tree,
    validate_chrome_trace,
    write_chrome_trace,
)


class TestTracer:
    def test_nesting_and_parentage(self):
        t = Tracer()
        with t.span("outer") as outer:
            with t.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
        spans = t.snapshot()
        assert [s.name for s in spans] == ["inner", "outer"]
        assert t.open_count == 0

    def test_attrs_status_and_timing(self):
        t = Tracer()
        with t.span("work", a=1) as h:
            h.set(b="two")
        (span,) = t.snapshot()
        assert span.attrs == {"a": 1, "b": "two"}
        assert span.status == "ok"
        assert span.wall_ms >= 0.0 and span.cpu_ms >= 0.0

    def test_exception_marks_error_and_closes(self):
        t = Tracer()
        with pytest.raises(RuntimeError):
            with t.span("bad"):
                raise RuntimeError("boom")
        (span,) = t.snapshot()
        assert span.status == "error"
        assert "boom" in span.error
        assert t.open_count == 0

    def test_disabled_tracer_is_a_shared_noop(self):
        t = Tracer(enabled=False)
        # provable no-op fast path: every span() call returns the SAME
        # stateless handle object -- no allocation, no bookkeeping
        assert t.span("a") is t.span("b")
        with t.span("a") as h:
            h.set(x=1)
            h.mark_error("ignored")
        assert t.snapshot() == []
        assert t.current_context() is None

    def test_from_config(self):
        assert Tracer.from_config(None).enabled is False
        assert Tracer.from_config(ObservabilityConfig()).enabled is False
        t = Tracer.from_config(ObservabilityConfig(tracing=True, sample_rate=0.5))
        assert t.enabled is True and t.sample_rate == 0.5

    def test_sampling_decides_per_root(self):
        t = Tracer(sample_rate=0.5)
        for _ in range(4):
            with t.span("root"):
                with t.span("child"):
                    pass
        spans = t.snapshot()
        # stride 2: every other root recorded, children follow the root
        assert sum(1 for s in spans if s.name == "root") == 2
        assert sum(1 for s in spans if s.name == "child") == 2

    def test_explicit_parent_tuple_links_across_threads(self):
        t = Tracer()
        captured = {}

        def worker(parent):
            with t.span("child", parent=parent) as h:
                captured["ctx"] = h.trace_id

        with t.span("root") as root:
            ctx = t.current_context()
            th = threading.Thread(target=worker, args=(tuple(ctx),))
            th.start()
            th.join()
            assert captured["ctx"] == root.trace_id

    def test_span_context_pickles(self):
        ctx = SpanContext("a" * 16, "b" * 8)
        clone = pickle.loads(pickle.dumps(ctx))
        assert clone == ctx
        assert clone.trace_id == "a" * 16 and clone.span_id == "b" * 8

    def test_max_spans_bounds_memory_and_counts_drops(self):
        t = Tracer(max_spans=2)
        for i in range(5):
            with t.span(f"s{i}"):
                pass
        assert len(t.snapshot()) == 2
        assert t.dropped == 3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ObservabilityConfig(tracing=True, sample_rate=0.0)
        with pytest.raises(ValueError):
            ObservabilityConfig(tracing=True, sample_rate=1.5)
        with pytest.raises(ValueError):
            ObservabilityConfig(max_spans=0)
        with pytest.raises(TypeError):
            ObservabilityConfig(tracing="yes")

    def test_policy_carries_obs_and_stays_hashable(self):
        policy = ExecutionPolicy(obs=ObservabilityConfig(tracing=True))
        assert policy.obs.tracing is True
        hash(policy)
        assert pickle.loads(pickle.dumps(policy)).obs == policy.obs
        with pytest.raises(TypeError):
            ExecutionPolicy(obs="tracing")


class TestMetrics:
    def test_counter_labels_and_validation(self):
        reg = MetricsRegistry()
        c = reg.counter("reqs_total", "requests", labels=("endpoint",))
        c.inc(endpoint="GET /x")
        c.inc(2, endpoint="GET /x")
        assert c.value(endpoint="GET /x") == 3
        assert c.total() == 3
        with pytest.raises(ValueError):
            c.inc(-1, endpoint="GET /x")
        with pytest.raises(ValueError):
            c.inc(route="GET /x")  # wrong label set

    def test_registry_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("m")

    def test_histogram_percentiles_match_numpy(self):
        rng = np.random.default_rng(7)
        samples = rng.exponential(scale=5.0, size=500)
        h = Histogram("lat_ms", window=1024)
        for v in samples:
            h.observe(v)
        for q in (50, 90, 99):
            assert h.percentile(q) == pytest.approx(
                float(np.percentile(samples, q)), abs=1e-9
            )
        assert h.mean() == pytest.approx(float(samples.mean()))
        assert h.count == 500

    def test_histogram_window_vs_lifetime(self):
        h = Histogram("lat_ms", window=4)
        for v in (1, 2, 3, 4, 100, 200, 300, 400):
            h.observe(v)
        assert h.count == 8  # lifetime
        assert h.percentile(50) == pytest.approx(250.0)  # window only

    def test_exponential_buckets(self):
        b = exponential_buckets(1.0, 2.0, 4)
        assert b == (1.0, 2.0, 4.0, 8.0)
        assert len(DEFAULT_LATENCY_BUCKETS_MS) == 18

    def test_prometheus_render_parses_and_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("hits_total", "cache hits", labels=("tier",)).inc(tier="l1")
        reg.gauge("depth", "queue depth").set(3)
        h = reg.histogram("wall_ms", "latency", buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(5.0)
        text = reg.render_prometheus()
        samples = parse_prometheus(text)
        by_name = {}
        for name, labels, value in samples:
            by_name.setdefault(name, []).append((labels, value))
        assert by_name["hits_total"] == [({"tier": "l1"}, 1.0)]
        assert by_name["depth"] == [({}, 3.0)]
        buckets = dict(
            (labels["le"], value) for labels, value in by_name["wall_ms_bucket"]
        )
        assert buckets == {"1": 1.0, "10": 2.0, "+Inf": 2.0}
        assert by_name["wall_ms_count"] == [({}, 2.0)]

    def test_prometheus_parser_rejects_malformed(self):
        for bad in (
            "metric{le=1} 2",  # unquoted label value
            "1metric 2",  # bad metric name
            "metric",  # missing value
            "metric nan-ish",  # bad value
            "# BOGUS metric help",  # bad comment kind
        ):
            with pytest.raises(ValueError):
                parse_prometheus(bad)

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c_total", labels=("path",)).inc(path='we"ird\\pa\nth')
        samples = parse_prometheus(reg.render_prometheus())
        (entry,) = [s for s in samples if s[0] == "c_total"]
        assert entry[1]["path"] == 'we"ird\\pa\nth'


class TestExport:
    def _spans(self):
        t = Tracer()
        with t.span("root", phase="demo"):
            with t.span("leaf"):
                pass
        return t.snapshot()

    def test_chrome_trace_validates(self):
        doc = chrome_trace(self._spans())
        assert validate_chrome_trace(doc) == 2
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in events} == {"root", "leaf"}

    def test_validate_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "X"}]})
        with pytest.raises(ValueError):
            validate_chrome_trace([])

    def test_write_chrome_trace(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(self._spans(), str(path))
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == 2

    def test_span_tree_renders_nesting(self):
        text = span_tree(self._spans())
        lines = text.splitlines()
        assert any(line.startswith("root") for line in lines)
        assert any(line.startswith("  leaf") for line in lines)
        assert span_tree([]) == "(no spans recorded)"
