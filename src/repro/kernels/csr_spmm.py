"""cuSPARSE-like CSR SpMM baseline.

NVIDIA's cuSPARSE executes general SpMM from the CSR format on the CUDA
cores (not the Tensor Cores): one warp processes one sparse row, gathers
the matching rows of ``B`` per non-zero and accumulates ``N`` partial sums
(the ``csrmm``/``SpMM_CSR`` algorithm family).  The paper uses it as the
vendor baseline and reports that it underperforms both on the SuiteSparse
set (Figure 7/8) and -- dramatically -- on denser matrices (Figure 9).

Model: the per-row cost is dominated by the latency-bound gathers of
``B[col, 0:N]``; rows map to warps, so the heavy rows of power-law
matrices serialise, and very long rows (the dense band case) degrade
further because a single warp owns the entire row.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..formats import CSRMatrix
from ..gpu import AccessPattern, KernelCounters, KernelEfficiency
from .base import SpMMKernel

__all__ = ["CusparseCSRKernel"]

# -- calibration constants (cycles) ----------------------------------------------------
#: fixed per-row cost: reading row pointers, predicate setup, final reduction
ROW_OVERHEAD_CYCLES = 350.0
#: per-non-zero base cost (index decode + value load, latency partly hidden)
CYCLES_PER_NNZ_BASE = 4.0
#: per-non-zero, per-output-column cost (B gather + FMA on CUDA cores)
CYCLES_PER_NNZ_PER_COL = 0.9
#: extra serialisation for very long rows (per 32-non-zero chunk beyond the
#: first; models the intra-warp reduction and shrinking cache locality)
LONG_ROW_CHUNK_CYCLES = 24.0
#: rows longer than this are split across multiple warps (cuSPARSE's
#: adaptive CSR algorithms re-balance long rows, so a single hub row does
#: not serialise the whole kernel)
ROW_SPLIT_NNZ = 512
#: distance of the implementation from the idealised issue model
#: (calibrated against the 10-70 GFLOP/s band of Figure 7)
COMPUTE_EFFICIENCY = 0.12


class CusparseCSRKernel(SpMMKernel):
    """Simulated cuSPARSE ``SpMM_CSR`` (CUDA-core) kernel."""

    name = "cuSPARSE"
    input_format = "csr"
    cost_notes = (
        "CUDA-core row-gather model: latency-bound B gathers per non-zero, "
        "long rows split across warps; time linear in nnz"
    )

    def __init__(self, arch=None, precision="fp16"):
        if arch is None:
            from ..gpu import A100_SXM4_40GB as _default_arch

            arch = _default_arch
        super().__init__(arch, precision)
        self.csr: Optional[CSRMatrix] = None

    # -- preparation -------------------------------------------------------------
    def prepare(self, A: CSRMatrix) -> None:
        """cuSPARSE consumes CSR directly; no preprocessing is performed."""
        self.csr = A
        self._mark_prepared(A)

    # -- model -------------------------------------------------------------------------
    def _warp_work_cycles(self, n_cols: int) -> np.ndarray:
        assert self.csr is not None
        row_nnz = self.csr.row_nnz().astype(np.float64)
        # adaptive row splitting: each row contributes ceil(nnz/ROW_SPLIT_NNZ)
        # warp work items of at most ROW_SPLIT_NNZ non-zeros each
        n_pieces = np.maximum(np.ceil(row_nnz / ROW_SPLIT_NNZ), 1.0).astype(np.int64)
        piece_nnz = np.repeat(row_nnz / n_pieces, n_pieces)
        per_nnz = CYCLES_PER_NNZ_BASE + CYCLES_PER_NNZ_PER_COL * n_cols
        chunks = np.ceil(piece_nnz / self.arch.warp_size)
        return (
            ROW_OVERHEAD_CYCLES
            + piece_nnz * per_nnz
            + np.maximum(chunks - 1.0, 0.0) * LONG_ROW_CHUNK_CYCLES
        )

    def _counters(self, n_cols: int) -> KernelCounters:
        assert self.csr is not None
        nnz = self.csr.nnz
        # CSR storage: 4-byte column index + value per nnz, plus row pointers
        bytes_A = nnz * (4 + self.precision.itemsize) + (self.csr.nrows + 1) * 4
        # each non-zero gathers an N-wide slice of B; gathers are scattered,
        # so each touches a full 32-byte sector regardless of N
        bytes_B = float(nnz) * max(32.0, n_cols * 4.0)
        bytes_C = float(self.csr.nrows) * n_cols * 4.0
        return KernelCounters(
            useful_flops=self.useful_flops(nnz, n_cols),
            cuda_core_flops=self.useful_flops(nnz, n_cols),
            bytes_global_read=bytes_A + bytes_B,
            bytes_global_write=bytes_C,
            scalar_instructions=float(nnz) * 4.0,
            warp_work_cycles=self._warp_work_cycles(n_cols),
            extra={"n_rows": float(self.csr.nrows)},
        )

    def _efficiency(self, counters: KernelCounters) -> KernelEfficiency:
        return KernelEfficiency(
            tensor_core=COMPUTE_EFFICIENCY,  # scales the warp-cycle makespan
            cuda_core=0.25,
            memory=AccessPattern(coalescing=0.35, bank_conflict_factor=1.0, l2_hit_rate=0.6),
            scalar_ipc=2.0,
        )

    run = SpMMKernel.run  # on the class itself: see SpMMKernel.run
