"""Magicube-like baseline: SR-BCRS SpMM on Tensor Cores.

Magicube (Li, Osawa, Hoefler, SC'22) targets the structured sparsity of
pruned deep-learning models: the matrix is stored in the Strided Row-major
BCRS format (column vectors grouped into strides, Section IV-B of the SMaT
paper) and multiplied on the Tensor Cores with low-precision integers.
The SMaT paper evaluates its mixed-precision int16 configuration, whose TC
throughput equals FP16 (Section V-A).

Characteristics the model reproduces:

* Tensor-Core execution with a vector-granular format: every stored column
  vector costs an MMA-fragment's worth of work even when mostly padding,
* a large memory footprint (vector padding to the stride plus
  double-buffered index metadata), which makes Magicube run out of device
  memory for large matrices -- the reason only 9 of the 21 DASP matrices
  could be evaluated (Section V-D),
* good scaling with ``N`` (like SMaT it reuses ``A`` across columns) but a
  lower achieved fraction of TC peak than SMaT's block-dense kernel.
"""

from __future__ import annotations

import numpy as np

from ..formats import CSRMatrix
from ..formats.base import index_dtype_for
from ..gpu import AccessPattern, KernelCounters, KernelEfficiency
from ..reorder.metrics import blocks_per_block_row
from .base import KernelUnsupportedError, SpMMKernel

__all__ = ["MagicubeKernel"]

# -- calibration constants -----------------------------------------------------------------
#: per-vector, per-output-tile warp cycles (vector decode + fragment MMA share)
CYCLES_PER_VECTOR_PER_TILE = 16.0
#: fixed per-panel (warp) cost
PANEL_OVERHEAD_CYCLES = 120.0
#: fraction of the idealised issue model Magicube reaches
COMPUTE_EFFICIENCY = 0.25
#: working-set expansion factor of Magicube's preprocessing (device copies
#: of the reordered operand, stride metadata, double buffers)
MEMORY_FOOTPRINT_FACTOR = 6.0


class MagicubeKernel(SpMMKernel):
    """Simulated Magicube SR-BCRS Tensor-Core kernel (int16 mixed precision).

    Parameters
    ----------
    vector_length:
        Column-vector height of the SR-BCRS format (default 8).
    stride:
        Vector-count granularity per row panel (default 4); panels are
        padded with zero vectors up to a multiple of this value.
    """

    name = "Magicube"
    input_format = "sr-bcrs"
    cost_notes = (
        "per-vector Tensor-Core cycles on the SR-BCRS format; ~linear in nnz "
        "but a 6x memory-footprint gate (raises unsupported on large matrices)"
    )

    def __init__(self, arch=None, precision="fp16", *, vector_length: int = 8, stride: int = 4):
        if arch is None:
            from ..gpu import A100_SXM4_40GB as _default_arch

            arch = _default_arch
        super().__init__(arch, precision)
        self.vector_length = int(vector_length)
        self.stride = int(stride)

    # -- preparation -----------------------------------------------------------------
    def prepare(self, A: CSRMatrix) -> None:
        """Count each row panel's SR-BCRS vectors -- non-zero ``(v, 1)``
        blocks, padded up to a multiple of the stride -- and check the
        device-memory footprint of that layout, without building it."""
        v, s = self.vector_length, self.stride
        counts = blocks_per_block_row(A, (v, 1))
        vectors_per_panel = -(-counts // s) * s  # empty panels stay empty
        n_vectors = int(vectors_per_panel.sum())
        # SRBCRSMatrix.memory_footprint_bytes: panel_ptr, int64 vec_col, vectors
        idx_bytes = index_dtype_for(A.nrows, A.ncols, n_vectors).itemsize
        self.layout_bytes = (counts.size + 1) * idx_bytes + n_vectors * (8 + v * A.dtype.itemsize)
        footprint = self.layout_bytes * MEMORY_FOOTPRINT_FACTOR
        if not self.cost_model.memory.fits_in_device_memory(footprint):
            raise KernelUnsupportedError(
                f"Magicube preprocessing needs ~{footprint / 2**30:.1f} GiB, which "
                f"exceeds the {self.arch.hbm_capacity_gib:.0f} GiB of {self.arch.name}"
            )
        self.vectors_per_panel = vectors_per_panel
        self.n_vectors = n_vectors
        self.n_padding_vectors = n_vectors - int(counts.sum())
        self._mark_prepared(A)

    # -- model -------------------------------------------------------------------------------
    def _warp_work_cycles(self, n_cols: int) -> np.ndarray:
        mma_n = self.precision.mma_shape.n
        n_tiles = -(-max(1, n_cols) // mma_n)
        vectors_per_panel = self.vectors_per_panel.astype(np.float64)
        per_panel = PANEL_OVERHEAD_CYCLES + vectors_per_panel * CYCLES_PER_VECTOR_PER_TILE
        # one warp per (panel, output tile)
        return np.repeat(per_panel, n_tiles)

    def _counters(self, n_cols: int) -> KernelCounters:
        A = self._prepared_for
        v = self.vector_length
        item = 2  # int16
        n_vec = self.n_vectors
        mma_n = self.precision.mma_shape.n
        # roughly one MMA per (mma_k / 1)-vector group per output tile
        mma_per_tile = n_vec / max(1, self.precision.mma_shape.k // 1) * 1.0
        n_tiles = -(-max(1, n_cols) // mma_n)
        mma_instructions = mma_per_tile * n_tiles

        bytes_A = n_vec * (v * item + 4) + (self.vectors_per_panel.size + 1) * 4
        bytes_B = float(n_vec) * n_cols * item
        bytes_C = float(A.nrows) * n_cols * item
        return KernelCounters(
            useful_flops=self.useful_flops(A.nnz, n_cols),
            mma_instructions=mma_instructions,
            mma_flops=mma_instructions * self.precision.mma_shape.flops,
            bytes_global_read=bytes_A + bytes_B,
            bytes_global_write=bytes_C,
            scalar_instructions=float(n_vec) * 6.0,
            warp_work_cycles=self._warp_work_cycles(n_cols),
            extra={
                "n_vectors": float(n_vec),
                "n_padding_vectors": float(self.n_padding_vectors),
            },
        )

    def _efficiency(self, counters: KernelCounters) -> KernelEfficiency:
        return KernelEfficiency(
            tensor_core=COMPUTE_EFFICIENCY,
            cuda_core=0.4,
            memory=AccessPattern(coalescing=0.45, bank_conflict_factor=1.0, l2_hit_rate=0.2),
            scalar_ipc=2.0,
        )

    def _meta(self, counters, timing):
        return {
            "format": self.input_format,
            "vector_length": self.vector_length,
            "stride": self.stride,
            "n_vectors": self.n_vectors,
        }

    run = SpMMKernel.run  # on the class itself: see SpMMKernel.run
