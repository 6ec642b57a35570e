"""Tests for the baseline kernels (cuSPARSE, DASP, Magicube, cuBLAS)."""

import tracemalloc

import numpy as np
import pytest

from repro.formats import CSRMatrix
from repro.gpu import A100_SXM4_40GB
from repro.kernels import (
    CublasDenseKernel,
    CusparseCSRKernel,
    DASPKernel,
    KernelUnsupportedError,
    MagicubeKernel,
    SMaTKernel,
    available_kernels,
    get_kernel,
)
from repro.matrices import band_matrix, uniform_random

BASELINES = [CusparseCSRKernel, DASPKernel, MagicubeKernel, CublasDenseKernel]


@pytest.fixture
def A(rng):
    return uniform_random(640, 640, density=0.01, rng=rng)


@pytest.fixture
def B(A, rng):
    return rng.normal(size=(A.ncols, 8)).astype(np.float32)


class TestRegistry:
    def test_all_libraries_available(self):
        assert set(available_kernels()) == {"smat", "cusparse", "dasp", "magicube", "cublas"}

    def test_get_kernel(self):
        assert isinstance(get_kernel("smat"), SMaTKernel)
        assert isinstance(get_kernel("cusparse"), CusparseCSRKernel)
        with pytest.raises(ValueError):
            get_kernel("rocsparse")


class TestNumericalCorrectness:
    @pytest.mark.parametrize("cls", BASELINES)
    def test_matches_reference(self, cls, A, B):
        result = cls().multiply(A, B)
        np.testing.assert_allclose(result.C, A.spmm(B), rtol=1e-3, atol=1e-3)

    @pytest.mark.parametrize("cls", BASELINES)
    def test_spmv(self, cls, A, rng):
        x = rng.normal(size=(A.ncols, 1)).astype(np.float32)
        result = cls().multiply(A, x)
        np.testing.assert_allclose(result.C.ravel(), A.spmv(x.ravel()), rtol=1e-3, atol=1e-3)

    @pytest.mark.parametrize("cls", BASELINES)
    def test_positive_timing(self, cls, A, B):
        result = cls().multiply(A, B)
        assert result.time_ms > 0
        assert result.gflops > 0


class TestCuSPARSE:
    def test_row_imbalance_increases_time(self, rng):
        from repro.matrices import row_skewed_random

        n, nnz = 2048, 40_000
        balanced = uniform_random(n, n, nnz=nnz, rng=rng)
        skewed = row_skewed_random(n, n, nnz=nnz, alpha=2.0, rng=rng)
        B = rng.normal(size=(n, 8)).astype(np.float32)
        t_b = CusparseCSRKernel().multiply(balanced, B).time_ms
        t_s = CusparseCSRKernel().multiply(skewed, B).time_ms
        assert t_s > t_b * 0.9  # never meaningfully faster on the skewed input

    def test_time_grows_with_n(self, A, rng):
        B8 = rng.normal(size=(A.ncols, 8)).astype(np.float32)
        B64 = rng.normal(size=(A.ncols, 64)).astype(np.float32)
        t8 = CusparseCSRKernel().multiply(A, B8).time_ms
        t64 = CusparseCSRKernel().multiply(A, B64).time_ms
        assert t64 > t8


class TestDASP:
    def test_one_launch_per_column(self, A, rng):
        result = DASPKernel().multiply(A, rng.normal(size=(A.ncols, 8)).astype(np.float32))
        assert result.meta["launches"] == 8
        assert result.counters.extra["launches"] == 8

    def test_time_scales_with_columns(self, A, rng):
        k = DASPKernel()
        t1 = k.multiply(A, rng.normal(size=(A.ncols, 1)).astype(np.float32)).time_ms
        t16 = k.multiply(A, rng.normal(size=(A.ncols, 16)).astype(np.float32)).time_ms
        # batched SpMV: cost is ~linear in the number of columns
        assert 8.0 <= t16 / t1 <= 24.0

    def test_fastest_at_spmv(self, rng):
        """Figure 10: DASP remains the fastest library for N=1 (SpMV).
        Uses a cop20k_A-like stand-in, the matrix Figure 10 evaluates."""
        from repro.matrices import suitesparse

        A = suitesparse.load("cop20k_A", scale=0.1)
        x = rng.normal(size=(A.ncols, 1)).astype(np.float32)
        t_dasp = DASPKernel().multiply(A, x).time_ms
        t_smat = SMaTKernel().multiply(A, x).time_ms
        t_cusparse = CusparseCSRKernel().multiply(A, x).time_ms
        assert t_dasp <= t_smat
        assert t_dasp <= t_cusparse


class TestMagicube:
    def test_vector_format_metadata(self, A, B):
        result = MagicubeKernel().multiply(A, B)
        assert result.meta["format"] == "sr-bcrs"
        assert result.meta["n_vectors"] > 0

    def test_out_of_memory_for_huge_matrices(self):
        """Section V-D: Magicube's preprocessing runs out of memory for large
        matrices.  A matrix whose SR-BCRS expansion exceeds 40 GiB must be
        rejected."""
        kernel = MagicubeKernel()
        # ~40k x 40k with ~0.5% density scattered entries: ~8M nnz ->
        # ~8M vectors * 8 * 2 bytes * expansion factor > 40 GiB is not quite
        # reachable cheaply, so shrink the simulated device instead.
        small_gpu = A100_SXM4_40GB.with_overrides(hbm_capacity_gib=0.001)
        kernel_small = MagicubeKernel(small_gpu)
        A = uniform_random(2048, 2048, density=0.01, rng=np.random.default_rng(0))
        with pytest.raises(KernelUnsupportedError, match="GiB"):
            kernel_small.prepare(A)
        # the normal device accepts it
        kernel.prepare(A)

    def test_padding_vectors_tracked(self, A, B):
        result = MagicubeKernel().multiply(A, B)
        assert result.counters.extra["n_padding_vectors"] >= 0


class TestCuBLAS:
    def test_effective_vs_dense_gflops(self, A, B):
        result = CublasDenseKernel().multiply(A, B)
        # dense GFLOP/s (all M*K*N work) must exceed the effective GFLOP/s
        # (useful work only) for a sparse matrix
        assert result.meta["dense_gflops"] > result.gflops
        assert result.meta["effective_fraction"] == pytest.approx(
            A.nnz / (A.nrows * A.ncols), rel=1e-6
        )

    def test_rejects_matrices_larger_than_device_memory(self):
        small_gpu = A100_SXM4_40GB.with_overrides(hbm_capacity_gib=0.0001)
        kernel = CublasDenseKernel(small_gpu)
        A = uniform_random(1024, 1024, density=0.01, rng=np.random.default_rng(0))
        with pytest.raises(KernelUnsupportedError):
            kernel.prepare(A)

    def test_prepare_keeps_no_dense_operand(self):
        """The counters need only the shape and nnz: preparing neither
        allocates nor keeps an ``M x K`` array."""
        A = uniform_random(1500, 1200, density=0.002, rng=np.random.default_rng(3))
        kernel = CublasDenseKernel()
        tracemalloc.start()
        try:
            kernel.prepare(A)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < A.nrows * A.ncols  # under one byte per dense element
        assert not any(isinstance(v, np.ndarray) for v in vars(kernel).values())
        B = np.ones((A.ncols, 4), dtype=np.float32)
        np.testing.assert_allclose(kernel.run(B).C, A.spmm(B), rtol=1e-6)

    def test_oversized_shape_still_rejected_by_default_device(self):
        A = CSRMatrix.empty((400_000, 400_000))  # 320 GB once densified
        with pytest.raises(KernelUnsupportedError):
            CublasDenseKernel().prepare(A)

    def test_dense_gemm_near_memory_or_compute_bound(self, rng):
        A = band_matrix(2048, 2047, rng=rng)  # fully dense
        B = rng.normal(size=(2048, 8)).astype(np.float32)
        result = CublasDenseKernel().multiply(A, B)
        assert result.timing.bound in ("memory", "compute")

    def test_time_insensitive_to_sparsity(self, rng):
        """cuBLAS processes explicit zeros: its runtime depends only on the
        dimensions, so sparse and dense inputs of the same size cost the
        same (this is the padding waste the paper quantifies)."""
        n = 1024
        sparse = uniform_random(n, n, density=0.001, rng=rng)
        dense = band_matrix(n, n - 1, rng=rng)
        B = rng.normal(size=(n, 8)).astype(np.float32)
        t_sparse = CublasDenseKernel().multiply(sparse, B).time_ms
        t_dense = CublasDenseKernel().multiply(dense, B).time_ms
        assert t_sparse == pytest.approx(t_dense, rel=0.05)
