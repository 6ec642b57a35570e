"""Property-based tests: every kernel computes the correct product and the
cost model produces physically sensible timings for arbitrary inputs."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.kernels import (
    CublasDenseKernel,
    CusparseCSRKernel,
    DASPKernel,
    MagicubeKernel,
    SMaTKernel,
)
from repro.matrices import uniform_random

KERNELS = [SMaTKernel, CusparseCSRKernel, DASPKernel, MagicubeKernel, CublasDenseKernel]


matrix_params = st.tuples(
    st.integers(min_value=8, max_value=200),   # rows
    st.integers(min_value=8, max_value=200),   # cols
    st.floats(min_value=0.0, max_value=0.2),   # density
    st.integers(min_value=1, max_value=20),    # N
    st.integers(min_value=0, max_value=2**31 - 1),
)


@given(params=matrix_params)
@settings(max_examples=25, deadline=None)
def test_all_kernels_compute_correct_product(params):
    rows, cols, density, n, seed = params
    rng = np.random.default_rng(seed)
    A = uniform_random(rows, cols, density=density, rng=rng)
    B = rng.normal(size=(cols, n)).astype(np.float32)
    # independent oracle: the backends' own numerics run A.spmm
    reference = A.to_scipy().astype(np.float64) @ B.astype(np.float64)
    for cls in KERNELS:
        result = cls().multiply(A, B)
        np.testing.assert_allclose(
            result.C, reference, rtol=1e-3, atol=1e-3,
            err_msg=f"{cls.__name__} produced a wrong result",
        )


@given(params=matrix_params)
@settings(max_examples=25, deadline=None)
def test_all_kernels_produce_sane_timings(params):
    rows, cols, density, n, seed = params
    rng = np.random.default_rng(seed)
    A = uniform_random(rows, cols, density=density, rng=rng)
    B = rng.normal(size=(cols, n)).astype(np.float32)
    for cls in KERNELS:
        result = cls().multiply(A, B)
        # timing must be positive, finite, and at least the launch overhead
        assert np.isfinite(result.timing.time_s)
        assert result.timing.time_s >= 1e-6
        # GFLOP/s never exceeds the INT8 tensor-core peak of the device
        assert result.gflops <= 624_000
        # counters are non-negative
        assert result.counters.bytes_global >= 0
        assert result.counters.useful_flops >= 0


@given(
    n=st.integers(min_value=32, max_value=256),
    density=st.floats(min_value=0.001, max_value=0.1),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=20, deadline=None)
def test_smat_timing_monotone_in_matrix_size(n, density, seed):
    """More work (a second copy of the matrix's nnz) never makes the
    simulated kernel faster."""
    rng = np.random.default_rng(seed)
    A_small = uniform_random(n, n, density=density, rng=rng)
    A_large = uniform_random(2 * n, 2 * n, density=density, rng=rng)
    B_small = rng.normal(size=(n, 8)).astype(np.float32)
    B_large = rng.normal(size=(2 * n, 8)).astype(np.float32)
    t_small = SMaTKernel().multiply(A_small, B_small).timing.time_s
    t_large = SMaTKernel().multiply(A_large, B_large).timing.time_s
    assert t_large >= t_small * 0.8
