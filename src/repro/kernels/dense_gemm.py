"""cuBLAS-like dense GEMM baseline.

Section VI-C of the paper compares SMaT against cuBLAS: the sparse matrix
is explicitly padded with zeros and multiplied as a dense matrix on the
Tensor Cores.  cuBLAS is extremely efficient -- the question the paper
asks is *at what sparsity a sparse Tensor-Core library overtakes it* (the
answer: 78% for ``N = 8`` and 96% for ``N = 128``, far below the ~99%
conventional wisdom).

Model: a dense ``M x K x N`` GEMM is either Tensor-Core-bound (large
``N``) or DRAM-bound (tall-and-skinny ``N``); cuBLAS reaches a high
fraction of both peaks.  The *effective* GFLOP/s reported by the
benchmarks divides the *useful* work (``2 * nnz * N``) by this time, which
is how the paper scales cuBLAS performance by the fraction of non-zeros.
"""

from __future__ import annotations

from typing import Tuple

from ..formats import CSRMatrix
from ..gpu import AccessPattern, KernelCounters, KernelEfficiency
from .base import KernelUnsupportedError, SpMMKernel

__all__ = ["CublasDenseKernel"]

# -- calibration constants -----------------------------------------------------------------
#: fraction of Tensor-Core peak cuBLAS reaches on large GEMMs
TC_EFFICIENCY = 0.80
#: fraction of HBM bandwidth cuBLAS reaches on tall-and-skinny GEMMs
MEMORY_EFFICIENCY = 0.85


class CublasDenseKernel(SpMMKernel):
    """Simulated cuBLAS HGEMM applied to the explicitly densified matrix."""

    name = "cuBLAS"
    input_format = "dense"
    cost_notes = (
        "dense GEMM roofline on the zero-padded operand: time follows M x K "
        "(not nnz), so it wins once the matrix is dense enough (Figure 9)"
    )

    def __init__(self, arch=None, precision="fp16"):
        if arch is None:
            from ..gpu import A100_SXM4_40GB as _default_arch

            arch = _default_arch
        super().__init__(arch, precision)
        self._shape: Tuple[int, int] = (0, 0)
        self._nnz_logical: int = 0

    # -- preparation ----------------------------------------------------------------
    def prepare(self, A: CSRMatrix) -> None:
        """Check that the densified ``A`` (explicit zero padding) fits in
        device memory, which is exactly the practical limit of the "store
        it densely" approach.  Only the shape and nnz are kept: the
        counters need nothing else, and :meth:`run` multiplies the CSR
        input (the dense product is the same ``A @ B``)."""
        dense_bytes = float(A.nrows) * A.ncols * self.precision.itemsize
        if not self.cost_model.memory.fits_in_device_memory(dense_bytes * 1.05):
            raise KernelUnsupportedError(
                f"dense operand of {dense_bytes / 2**30:.1f} GiB does not fit on "
                f"{self.arch.name}"
            )
        self._shape = A.shape
        self._nnz_logical = A.nnz
        self._mark_prepared(A)

    def tuning_work(self, A: CSRMatrix) -> float:
        """cuBLAS pays for the densified operand: ``M x K`` elements,
        independent of the sparsity."""
        return float(A.nrows) * float(A.ncols)

    # -- model ----------------------------------------------------------------------------
    def _counters(self, n_cols: int) -> KernelCounters:
        M, K = self._shape
        item = self.precision.itemsize
        dense_flops = 2.0 * M * K * n_cols
        mma_flops_per_inst = self.precision.mma_shape.flops
        return KernelCounters(
            useful_flops=self.useful_flops(self._nnz_logical, n_cols),
            mma_instructions=dense_flops / mma_flops_per_inst,
            mma_flops=dense_flops,
            bytes_global_read=float(M) * K * item + float(K) * n_cols * item,
            bytes_global_write=float(M) * n_cols * item,
            extra={"dense_flops": dense_flops},
        )

    def _efficiency(self, counters: KernelCounters) -> KernelEfficiency:
        return KernelEfficiency(
            tensor_core=TC_EFFICIENCY,
            cuda_core=0.7,
            memory=AccessPattern(
                coalescing=MEMORY_EFFICIENCY, bank_conflict_factor=1.0, l2_hit_rate=0.3
            ),
            scalar_ipc=4.0,
        )

    def _meta(self, counters, timing):
        dense_flops = counters.extra["dense_flops"]
        return {
            "format": self.input_format,
            "dense_gflops": dense_flops / timing.time_s / 1e9,
            "effective_fraction": counters.useful_flops / dense_flops if dense_flops else 0.0,
        }

    run = SpMMKernel.run  # on the class itself: see SpMMKernel.run
