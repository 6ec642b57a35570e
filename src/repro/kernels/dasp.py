"""DASP-like baseline: SpMM as a batched SpMV.

DASP (Lu & Liu, SC'23) is a state-of-the-art SpMV library that maps sparse
matrix--*vector* products onto the dense MMA units by packing rows into
small dense tiles.  It does not provide an SpMM; the paper therefore
evaluates it by "iteratively performing SpMV" -- one kernel launch per
column of ``B`` (Section V-A).  This is competitive for very small ``N``
(DASP is the fastest library at ``N = 1``, Figure 10) but scales linearly
with ``N`` while true SpMM kernels reuse ``A`` across columns.

Model: a single DASP SpMV is bandwidth-bound (it must stream the whole
matrix once per launch) with a well-balanced schedule (DASP's row packing
removes most load imbalance -- which is why it wins on ``dc2``); the SpMM
cost is ``N`` times the SpMV cost plus ``N`` kernel-launch overheads.
"""

from __future__ import annotations

from typing import Optional

from ..formats import CSRMatrix
from ..gpu import AccessPattern, KernelCounters, KernelEfficiency
from .base import SpMMKernel

__all__ = ["DASPKernel"]

# -- calibration constants ---------------------------------------------------------------
#: fraction of HBM bandwidth a single DASP SpMV sustains (its kernels are
#: heavily optimised; calibrated against the 100-300 GFLOP/s band of Fig. 5)
MEMORY_EFFICIENCY = 0.55
#: per-launch overhead in microseconds (kernel launch + format metadata)
LAUNCH_OVERHEAD_US = 5.0
#: Tensor-Core efficiency of DASP's small-tile MMA formulation for SpMV
TC_EFFICIENCY = 0.08


class DASPKernel(SpMMKernel):
    """Simulated DASP batched-SpMV kernel (one launch per column of B)."""

    name = "DASP"
    input_format = "csr (row-packed)"
    launch_overhead_us = LAUNCH_OVERHEAD_US
    cost_notes = (
        "bandwidth-bound SpMV repeated N times (one launch per column of B); "
        "time linear in nnz x N -- strongest at very small N"
    )

    def __init__(self, arch=None, precision="fp16"):
        if arch is None:
            from ..gpu import A100_SXM4_40GB as _default_arch

            arch = _default_arch
        super().__init__(arch, precision)
        self.csr: Optional[CSRMatrix] = None

    # -- preparation ------------------------------------------------------------------
    def prepare(self, A: CSRMatrix) -> None:
        """DASP preprocesses CSR into its row-packed tile format; the packing
        is cheap and fully balanced, so we keep the CSR and model the
        balanced execution directly."""
        self.csr = A
        self._mark_prepared(A)

    # -- model -------------------------------------------------------------------------------
    def _counters(self, n_cols: int) -> KernelCounters:
        """Counters of ``n_cols`` SpMV launches (one per column of ``B``)."""
        assert self.csr is not None
        nnz = self.csr.nnz
        # streamed once per launch: values + column indices + x + y
        bytes_A = nnz * (self.precision.itemsize + 4) + (self.csr.nrows + 1) * 4
        bytes_x = self.csr.ncols * 4.0
        bytes_y = self.csr.nrows * 4.0
        # DASP packs rows into m8n4k4-style tiles; roughly one MMA per 32 nnz
        mma_instructions = nnz / 32.0
        spmv = KernelCounters(
            useful_flops=self.useful_flops(nnz, 1),
            mma_instructions=mma_instructions,
            mma_flops=mma_instructions * self.precision.mma_shape.flops,
            bytes_global_read=bytes_A + bytes_x,
            bytes_global_write=bytes_y,
            scalar_instructions=float(nnz),
            extra={"launches": 1.0},
        )
        counters = spmv.scaled(float(n_cols))  # extra["launches"] becomes N
        counters.useful_flops = self.useful_flops(nnz, n_cols)
        return counters

    def _efficiency(self, counters: KernelCounters) -> KernelEfficiency:
        return KernelEfficiency(
            tensor_core=TC_EFFICIENCY,
            cuda_core=0.3,
            memory=AccessPattern(
                coalescing=MEMORY_EFFICIENCY, bank_conflict_factor=1.0, l2_hit_rate=0.1
            ),
            scalar_ipc=4.0,
        )

    def _meta(self, counters, timing):
        return {"format": self.input_format, "launches": int(counters.extra["launches"])}

    run = SpMMKernel.run  # on the class itself: see SpMMKernel.run
