"""Engine: plan-cache amortisation and batched throughput.

The paper's pipeline pays one expensive preprocessing pass (reordering +
BCSR blocking) and amortises it over many SpMM executions (Figure 1).
The :class:`~repro.engine.SpMMEngine` serving layer makes that
amortisation measurable end to end:

* **plan-cache hit speedup** -- a repeated query against a cached plan
  must be at least 5x faster than a cold query that runs preprocessing
  (in practice the gap is one to two orders of magnitude, matching the
  paper's preprocessing-vs-execution cost split);
* **batched vs sequential throughput** -- a batch of operands pushed
  through the engine's thread pool must produce bit-identical results and
  stay within a loose wall-clock envelope of the sequential loop (the
  per-item kernels already saturate cores via threaded BLAS, so the pool
  buys latency hiding and a queue API rather than raw FLOP throughput).
"""

import time

import numpy as np
import pytest

from repro import ExecutionPolicy, SMaT, SMaTConfig
from repro.engine import SpMMEngine
from repro.matrices import suitesparse

from common import dense_rhs, print_figure

MATRIX = "cant"
BATCH = 16
N_COLS = 8


@pytest.fixture(scope="module")
def problem(bench_scale):
    A = suitesparse.load(MATRIX, scale=bench_scale)
    Bs = [dense_rhs(A.ncols, N_COLS, seed=s) for s in range(BATCH)]
    return A, Bs


def _time(fn):
    start = time.perf_counter()
    out = fn()
    return out, 1e3 * (time.perf_counter() - start)


@pytest.mark.benchmark(group="engine_batching")
def test_plan_cache_hit_speedup(benchmark, problem):
    """Repeated queries on a cached plan skip preprocessing entirely."""
    A, Bs = problem
    B = Bs[0]

    with SpMMEngine(SMaTConfig(), cache_size=4, policy=ExecutionPolicy(max_workers=1)) as engine:
        _, cold_ms = _time(lambda: engine.multiply(A, B))
        _, warm_ms = _time(lambda: engine.multiply(A, B))
        # steady-state cached latency is what the benchmark timer measures
        benchmark(lambda: engine.multiply(A, B))
        stats = engine.cache_stats

    speedup = cold_ms / warm_ms if warm_ms > 0 else float("inf")
    rows = [
        {"query": "cold (preprocess + execute)", "wall_ms": cold_ms},
        {"query": "warm (cached plan)", "wall_ms": warm_ms},
        {"query": "speedup", "wall_ms": speedup},
    ]
    print_figure(
        f"plan-cache amortisation on {MATRIX}: one preprocessing pass, "
        "then cache hits only",
        rows,
    )
    benchmark.extra_info["cold_ms"] = cold_ms
    benchmark.extra_info["warm_ms"] = warm_ms
    benchmark.extra_info["speedup"] = speedup

    assert stats.misses == 1, "exactly one plan build expected"
    assert stats.hits >= 1
    # acceptance criterion: cached-plan queries are >= 5x faster than cold
    assert speedup >= 5.0, f"cache hit speedup {speedup:.1f}x below the 5x target"


@pytest.mark.benchmark(group="engine_batching")
def test_batched_vs_sequential_throughput(benchmark, problem):
    """Thread-pooled batches match sequential results bit for bit and do
    not lose throughput."""
    A, Bs = problem

    smat = SMaT(A, SMaTConfig())  # preprocessing paid up front for both paths
    _, seq_ms = _time(lambda: [smat.multiply(B) for B in Bs])

    with SpMMEngine(SMaTConfig(), cache_size=4, policy=ExecutionPolicy(max_workers=4)) as engine:
        engine.plan_for(A)  # warm the cache so only execution is compared
        outcome, batch_ms = _time(lambda: engine.multiply_many(A, Bs))
        benchmark(lambda: engine.multiply_many(A, Bs))

    C_seq = [smat.multiply(B) for B in Bs]
    for result, expected in zip(outcome, C_seq):
        np.testing.assert_array_equal(result.C, expected)

    rows = [
        {
            "path": "sequential SMaT.multiply",
            "wall_ms": seq_ms,
            "items/s": 1e3 * len(Bs) / seq_ms,
        },
        {
            "path": "engine batch (4 workers)",
            "wall_ms": batch_ms,
            "items/s": outcome.summary.items_per_second,
        },
    ]
    print_figure(
        f"batched vs sequential throughput on {MATRIX} "
        f"(batch={BATCH}, N={N_COLS})",
        rows,
    )
    benchmark.extra_info["sequential_ms"] = seq_ms
    benchmark.extra_info["batched_ms"] = batch_ms
    benchmark.extra_info["simulated_gflops"] = outcome.summary.simulated_gflops

    assert len(outcome) == len(Bs)
    assert outcome.summary.cache.misses == 1
    # wall-clock parity, not speedup: the per-item kernels already use
    # threaded BLAS, so pool workers compete with it for cores.  The gate
    # only catches pathological engine overhead (lock contention, plan
    # rebuilds), not scheduler noise.
    assert batch_ms <= 5.0 * seq_ms
