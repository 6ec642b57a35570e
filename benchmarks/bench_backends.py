"""Backends: the tuner's automatic library choice vs fixed SMaT.

The paper's central comparative result is that the winning SpMM library
varies with matrix structure (Figures 8-10): SMaT dominates most of the
SuiteSparse set, while cuBLAS overtakes it once the matrix is dense
enough (Figure 9).  With the backend-pluggable stack, ``kernel="auto"``
turns that finding into something the per-matrix auto-tuner discovers on
its own.  This benchmark gates two properties:

* **auto never loses to fixed SMaT** -- on every Table-I stand-in, the
  backend-aware search's winner is at least as fast (measured simulated
  time) as the paper's fixed-SMaT default, which the search always
  measures.  On a dense band stand-in (Figure 9's regime) the winner must
  actually be a *non-SMaT* backend -- the tuner must rediscover the
  crossover;
* **plan caching pays for every backend** -- a non-SMaT backend
  (Magicube, whose SR-BCRS conversion is the most expensive baseline
  preparation) must see a >= 3x cached-plan speedup through the engine,
  i.e. the amortisation argument of Figure 1 is not SMaT-specific.

The per-matrix auto-vs-SMaT ratios and the cached-plan speedup land in
``extra_info`` for the CI perf-regression gate
(``repro.analysis.regression``).
"""

import time

import numpy as np
import pytest

from repro import ExecutionPolicy, SMaTConfig
from repro.analysis import geometric_mean
from repro.engine import SpMMEngine
from repro.matrices import band_matrix, suitesparse
from repro.tuner import Tuner

from common import dense_rhs, print_figure

MATRICES = suitesparse.TABLE1_NAMES
N_COLS = 8
BUDGET = 6
#: the Figure-9 dense regime: a band covering most of the matrix
DENSE_BAND_FRACTION = 0.9


@pytest.mark.benchmark(group="backends")
def test_auto_backend_vs_fixed_smat(benchmark, bench_scale):
    """kernel="auto" >= fixed-SMaT on every stand-in; non-SMaT must win
    the dense band."""
    config = SMaTConfig(kernel="auto")
    tuner = Tuner(cache=False, n_cols=N_COLS, max_measure=BUDGET)

    problems = {name: suitesparse.load(name, scale=bench_scale) for name in MATRICES}
    band_dim = max(512, int(4096 * bench_scale))
    problems["dense_band"] = band_matrix(
        band_dim, max(2, int(band_dim * DENSE_BAND_FRACTION)), rng=np.random.default_rng(7)
    )

    rows = []
    results = {}
    for name, A in problems.items():
        result = tuner.tune(A, config)
        results[name] = result
        rows.append(
            {
                "matrix": name,
                "winner": result.best.candidate.label,
                "backend": result.best.candidate.kernel,
                "smat_default_ms": result.default.simulated_ms,
                "auto_ms": result.best.simulated_ms,
                "auto_vs_smat": result.tuned_vs_default,
                "measured": result.n_measured,
                "pruned": result.n_pruned,
                "candidates": len(result.outcomes),
            }
        )

    print_figure(
        "Auto backend selection vs the paper's fixed-SMaT default",
        rows,
    )

    # the benchmark timer measures one backend-aware search on the
    # smallest stand-in (the recurring cost per new matrix before the
    # tuning cache absorbs it)
    A_small = suitesparse.load("dc2", scale=bench_scale)
    benchmark(lambda: tuner.tune(A_small, config))

    ratios = {name: results[name].tuned_vs_default for name in problems}
    benchmark.extra_info["auto_vs_smat_geomean"] = geometric_mean(list(ratios.values()))
    benchmark.extra_info["auto_vs_smat_min"] = min(ratios.values())
    benchmark.extra_info["dense_band_auto_vs_smat"] = ratios["dense_band"]
    for name, ratio in ratios.items():
        benchmark.extra_info[f"ratio_{name}"] = ratio

    for name, result in results.items():
        # acceptance gate: the backend-aware winner is never worse than
        # the fixed-SMaT default (which the search always measures)
        assert result.best.simulated_ms <= result.default.simulated_ms + 1e-12, (
            f"{name}: auto winner {result.best.candidate.label} "
            f"({result.best.simulated_ms:.4f} ms) lost to fixed SMaT "
            f"({result.default.simulated_ms:.4f} ms)"
        )
        # the per-library cost models must keep pruning effective
        assert result.n_measured <= BUDGET
        assert result.n_measured < len(result.outcomes), (
            f"{name}: pruning measured the whole space"
        )

    # Figure 9's crossover, rediscovered: the dense band's winner is not SMaT
    dense_winner = results["dense_band"].best.candidate
    assert dense_winner.kernel != "smat", (
        f"dense band winner should be a non-SMaT backend, got {dense_winner.label}"
    )
    assert results["dense_band"].tuned_vs_default > 1.0


@pytest.mark.benchmark(group="backends")
def test_non_smat_cached_plan_speedup(benchmark, bench_scale):
    """The plan cache amortises non-SMaT preparation too (Magicube's
    SR-BCRS conversion is the priciest baseline preprocessing)."""
    A = suitesparse.load("cant", scale=bench_scale)
    B = dense_rhs(A.ncols, N_COLS)
    config = SMaTConfig(kernel="magicube")

    with SpMMEngine(config, cache_size=4, policy=ExecutionPolicy(max_workers=1)) as engine:
        start = time.perf_counter()
        C_cold = engine.multiply(A, B)
        cold_ms = 1e3 * (time.perf_counter() - start)

        warm_ms = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            C_warm = engine.multiply(A, B)
            warm_ms = min(warm_ms, 1e3 * (time.perf_counter() - start))

        benchmark(lambda: engine.multiply(A, B))
        stats = engine.cache_stats

    np.testing.assert_allclose(C_cold, C_warm)
    np.testing.assert_allclose(C_cold, A.spmm(B), rtol=1e-4, atol=1e-4)
    speedup = cold_ms / warm_ms if warm_ms > 0 else float("inf")

    print_figure(
        "Cached-plan speedup for a non-SMaT backend (Magicube on cant)",
        [
            {
                "backend": "magicube",
                "cold_ms": cold_ms,
                "warm_ms": warm_ms,
                "speedup": speedup,
                "cache_hits": stats.hits,
                "cache_misses": stats.misses,
            }
        ],
    )
    benchmark.extra_info["nonsmat_cache_speedup"] = speedup
    assert stats.misses == 1, "one plan build expected"
    assert speedup >= 3.0, (
        f"cached Magicube plan should be >= 3x faster than cold "
        f"(preparation + execute), got {speedup:.1f}x"
    )
