"""Serving daemon: warm cached-plan requests measured over real HTTP.

The serving layer's promise is that the network API inherits the
engine's amortisation: the first ``POST /multiply`` against a registered
matrix pays reordering + BCSR plan construction, every later request
reuses the cached plan -- so a warm request is dominated by wire codec +
HTTP overhead, not preprocessing.  This benchmark drives a real
in-process :class:`~repro.serve.SpMMServer` on an ephemeral port through
the stdlib client and gates:

* **warm >= 3x cold** -- the cold first request (plan-cache miss) must
  be at least 3x slower than the warm median (in practice 10-50x);
* **sustained throughput** -- a burst of warm requests must hold a
  minimum requests/second with a bounded p99 (the `/metrics` endpoint's
  own percentiles are cross-checked against the client-side view).
"""

import time

import numpy as np
import pytest

from repro import ExecutionPolicy, SMaT
from repro.matrices import suitesparse
from repro.serve import SpMMClient, SpMMServer

from common import print_figure

MATRIX = "cant"
N_COLS = 8
BURST = 40


@pytest.mark.benchmark(group="serving")
def test_warm_vs_cold_request_latency(benchmark, bench_scale, bench_rng):
    """A warm cached-plan request must be >= 3x faster than the cold
    first request, end to end over HTTP."""
    A = suitesparse.load(MATRIX, scale=bench_scale)
    B = bench_rng.normal(size=(A.ncols, N_COLS)).astype(np.float32)

    with SpMMServer(policy=ExecutionPolicy(max_workers=2)) as server:
        client = SpMMClient(server.url)
        fp = client.register(A)

        start = time.perf_counter()
        C_cold, info_cold = client.multiply(fp, B)
        cold_ms = 1e3 * (time.perf_counter() - start)
        assert not info_cold["cache_hit"], "first request must build the plan"

        warm_samples = []
        for _ in range(10):
            start = time.perf_counter()
            _, info = client.multiply(fp, B)
            warm_samples.append(1e3 * (time.perf_counter() - start))
            assert info["cache_hit"], "later requests must reuse the cached plan"
        warm_ms = float(np.median(warm_samples))

        # the benchmark timer sees one steady-state warm request
        benchmark(lambda: client.multiply(fp, B))

        np.testing.assert_allclose(C_cold, SMaT(A).multiply(B), rtol=1e-4, atol=1e-5)

    speedup = cold_ms / warm_ms if warm_ms > 0 else float("inf")
    print_figure(
        f"serving latency on {MATRIX} over HTTP (scale={bench_scale})",
        [
            {"phase": "cold first request (plan build)", "ms": cold_ms},
            {"phase": "warm request (cached plan, median)", "ms": warm_ms},
            {"phase": "warm speedup", "ms": speedup},
        ],
    )
    benchmark.extra_info["cold_ms"] = cold_ms
    benchmark.extra_info["warm_ms"] = warm_ms
    benchmark.extra_info["warm_speedup"] = speedup

    # acceptance gate: the cached plan must dominate the request cost
    assert speedup >= 3.0, f"warm request only {speedup:.1f}x faster than cold"


@pytest.mark.benchmark(group="serving")
def test_sustained_warm_throughput(benchmark, bench_scale, bench_rng):
    """A burst of warm requests must sustain a minimum req/s with a
    bounded p99, and the server's own `/metrics` must agree."""
    A = suitesparse.load(MATRIX, scale=bench_scale)
    B = bench_rng.normal(size=(A.ncols, N_COLS)).astype(np.float32)

    with SpMMServer(policy=ExecutionPolicy(max_workers=2)) as server:
        client = SpMMClient(server.url)
        fp = client.register(A)
        client.multiply(fp, B)  # pay the plan build outside the burst

        laps = []
        burst_start = time.perf_counter()
        for _ in range(BURST):
            start = time.perf_counter()
            client.multiply(fp, B)
            laps.append(1e3 * (time.perf_counter() - start))
        elapsed_s = time.perf_counter() - burst_start

        warm_rps = BURST / elapsed_s
        p50_ms = float(np.percentile(laps, 50))
        p99_ms = float(np.percentile(laps, 99))

        metrics = client.metrics()
        assert metrics["plan_cache"]["hits"] >= BURST
        assert metrics["engine"]["completed"] >= BURST + 1
        # the server's own window spans every request so far, including
        # the cold plan build -- its p50 is the warm steady state
        server_p50 = metrics["latency_ms"]["p50_ms"]

        benchmark(lambda: client.multiply(fp, B))

    print_figure(
        f"sustained warm serving throughput on {MATRIX} "
        f"({BURST} requests, scale={bench_scale})",
        [
            {"metric": "requests/s", "value": warm_rps},
            {"metric": "p50 ms (client-side)", "value": p50_ms},
            {"metric": "p99 ms (client-side)", "value": p99_ms},
            {"metric": "p50 ms (server /metrics)", "value": server_p50},
        ],
    )
    benchmark.extra_info["warm_rps"] = warm_rps
    benchmark.extra_info["p50_ms"] = p50_ms
    benchmark.extra_info["p99_ms"] = p99_ms

    # acceptance gates: sustained throughput and bounded tail latency;
    # thresholds sit far below typical measurements because CI is noisy
    assert warm_rps >= 20.0, f"sustained warm throughput {warm_rps:.0f} req/s below floor"
    assert p99_ms <= 250.0, f"warm p99 {p99_ms:.1f} ms above bound"
    # server-side steady state (excludes network time) must be inside
    # the client-side view, not somewhere else entirely
    assert 0.0 < server_p50 <= p99_ms + 1.0
