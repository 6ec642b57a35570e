"""Host numerics: every backend's warm execute against scipy.

The reproduction has two performance currencies.  Simulated device time
comes from the GPU cost model; *host wall time* is what a caller of
``SpMMEngine`` waits for.  A warm cached plan of any backend serves ``C``
with one scipy CSR product of ``A`` in its original order (no ``B``
permute, no ``C`` un-permute) and prices its layout from memoised
counters.  This benchmark measures that against the obvious host
reference, scipy's CSR ``A @ B`` on the same matrix and operand:

* for every backend (cuBLAS included), every Table-I stand-in at scale
  0.05 and ``N`` in {8, 32}, the ratio of the warm
  ``SpMMEngine.execute_one`` wall ms (plan built beforehand: lookup,
  numerics, cost simulation, report) to the scipy ms, each the minimum
  over interleaved rounds in one process, so box noise hits both sides
  alike;
* the geometric mean of those ratios per backend is gated at <= 1.3.
  The table prints the SMaT plan's BCSR ``fill_in_ratio`` next to the
  ratios: the fill-in is priced on the simulated device, but no longer
  multiplied on the host.

Plans that fall back to SMaT (the Magicube and cuBLAS memory gates) are
reported as unsupported and left out of their backend's geometric mean.
"""

import time

import numpy as np
import pytest

from repro import ExecutionPolicy, SMaTConfig
from repro.analysis import geometric_mean
from repro.engine import SpMMEngine
from repro.matrices import suitesparse

from common import dense_rhs, print_figure

MATRICES = suitesparse.TABLE1_NAMES
#: the gate's ceilings were measured at this scale, whatever REPRO_BENCH_SCALE says
SCALE = 0.05
WIDTHS = (8, 32)
#: geometric-mean ceiling of warm host ms over scipy ms, per backend
CEILINGS = {"smat": 1.3, "cusparse": 1.3, "dasp": 1.3, "magicube": 1.3, "cublas": 1.3}
#: interleaved measurement rounds; every op class keeps its minimum
ROUNDS = 15


def _ms(fn, *args, **kwargs) -> float:
    start = time.perf_counter()
    fn(*args, **kwargs)
    return 1e3 * (time.perf_counter() - start)


@pytest.mark.benchmark(group="host_kernels")
def test_host_vs_scipy(benchmark):
    """Warm host execute per backend within its ceiling of scipy CSR."""
    mats = {name: suitesparse.load(name, scale=SCALE) for name in MATRICES}
    configs = {k: SMaTConfig(kernel=k) for k in CEILINGS}
    problems = [
        (name, N, A, A.to_scipy(), dense_rhs(A.ncols, N))
        for name, A in mats.items()
        for N in WIDTHS
    ]
    with SpMMEngine(policy=ExecutionPolicy(max_workers=1), cache_size=64) as engine:
        supported = {}
        fill = {}
        for name, N, A, S, B in problems:
            reference = S @ B
            for k, cfg in configs.items():  # plan build + first-hit warm-up
                res = engine.execute_one(A, B, config=cfg)
                np.testing.assert_allclose(res.C, reference, rtol=1e-3, atol=1e-3)
                supported[name, k] = res.report.backend == k
                if k == "smat":
                    fill[name] = res.report.kernel_meta["fill_in_ratio"]

        best = {}
        for _ in range(ROUNDS):
            for name, N, A, S, B in problems:
                timings = {"scipy": _ms(S.dot, B)}
                for k, cfg in configs.items():
                    timings[k] = _ms(engine.execute_one, A, B, config=cfg)
                for k, ms in timings.items():
                    best[name, N, k] = min(best.get((name, N, k), np.inf), ms)

        A0, B0 = problems[0][2], problems[0][4]
        benchmark(lambda: engine.execute_one(A0, B0, config=configs["smat"]))

    ratios = {k: [] for k in CEILINGS}
    rows = []
    for name, N, *_ in problems:
        scipy_ms = best[name, N, "scipy"]
        row = {"matrix": name, "N": N, "fill_in_ratio": fill[name], "scipy_ms": scipy_ms}
        for k in CEILINGS:
            if supported[name, k]:
                ratio = best[name, N, k] / scipy_ms
                ratios[k].append(ratio)
                row[k] = ratio
            else:
                row[k] = "unsupported"
        rows.append(row)
    geomeans = {k: geometric_mean(v) for k, v in ratios.items()}
    rows.append({"matrix": "geomean", **geomeans})
    print_figure(
        f"warm host execute_one ms over scipy CSR A @ B ms (scale {SCALE}, "
        f"min of {ROUNDS} interleaved rounds)",
        rows,
    )
    for k, g in geomeans.items():
        benchmark.extra_info[f"{k}_geomean"] = g
        benchmark.extra_info[f"{k}_max"] = max(ratios[k])

    for k, ceiling in CEILINGS.items():
        assert geomeans[k] <= ceiling, (
            f"{k}: warm host execute at {geomeans[k]:.2f}x scipy (geomean), ceiling {ceiling}"
        )
