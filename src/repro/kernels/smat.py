"""SMaT: BCSR SpMM on Tensor Cores (the paper's contribution).

The kernel mirrors Algorithm 1 of the paper:

* the output matrix ``C`` is tiled into Tensor-Core-sized tiles
  (``h x mma_n``); each tile is owned by one warp ("bottom-up 2D
  parallelism", Figure 1),
* a warp walks the non-zero BCSR blocks of its block row sequentially,
  loading the A block and the matching B tile into shared memory with
  ``cuda::memcpy_async``, moving them to registers with ``ldmatrix``, and
  issuing one ``mma.sync`` per block fragment (Listings 1-3),
* double buffering overlaps the next block's loads with the current
  block's MMAs (Section IV-E).

The optimisation ladder of Figure 2 is reproduced through
:class:`SMaTVariant`: ``naive`` -> ``B`` (skip empty blocks using the BCSR
pointer structure) -> ``T`` (Tensor-Core MMA instead of scalar FMA) ->
``BT`` -> ``CBT`` (asynchronous cooperative loads).  Each variant changes
the per-warp cycle count and the achievable DRAM efficiency; the shared
cost model then adds the memory-traffic roofline and the static-schedule
load imbalance.

Calibration
-----------
The cycle constants below are calibrated against the anchor points the
paper reports (Figure 2 ladder ratios, the "2.3x slower than cuBLAS in the
dense case" point of Figure 9a, the ~15x gap at N=128 of Figure 9b) --
see EXPERIMENTS.md for the paper-vs-model comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional

import numpy as np

from ..formats import BCSRMatrix, CSRMatrix
from ..gpu import AccessPattern, KernelCounters, KernelEfficiency
from ..gpu.tensorcore import LDMATRIX_X2_CYCLES, LDMATRIX_X4_CYCLES
from ..reorder.metrics import BlockingStats, blocks_per_block_row, count_blocks
from .base import SpMMKernel

__all__ = ["SMaTVariant", "SMaTKernel"]

# -- calibration constants (cycles) --------------------------------------------------
#: scalar (CUDA-core) multiply-accumulate cost per matrix element when the
#: element is fetched straight from global memory (naive kernel, no staging)
SCALAR_MAC_CYCLES_GLOBAL = 60.0
#: scalar multiply-accumulate cost per element when operands are staged in
#: shared memory by the cooperative asynchronous loads ("C" without "T")
SCALAR_MAC_CYCLES_SHARED = 12.0
#: cost of testing whether a block is non-zero when the BCSR pointer
#: structure is not used (the "B" optimisation removes this)
EMPTY_BLOCK_CHECK_CYCLES = 8.0
#: extra per-block cost of synchronous global->register->shared staging
#: (removed by the "C" optimisation, cuda::memcpy_async)
SYNC_LOAD_EXTRA_CYCLES = 40.0
#: fixed per-warp cost: reading block-row pointers, computing tile
#: addresses, writing the C tile back to global memory
WARP_PROLOGUE_CYCLES = 60.0
#: number of in-flight warps needed to saturate HBM bandwidth; below this
#: the kernel is occupancy-limited (tall-and-skinny N=8 grids)
HBM_SATURATION_WARPS = 600.0


@dataclass(frozen=True)
class SMaTVariant:
    """Set of low-level optimisations enabled in the kernel (Figure 2)."""

    use_bcsr_pointers: bool = True  # "B"
    use_tensor_cores: bool = True   # "T"
    use_async_copy: bool = True     # "C"

    @classmethod
    def from_string(cls, spec: str) -> "SMaTVariant":
        """Parse a Figure-2 style variant name: ``"naive"``, ``"B"``,
        ``"T"``, ``"BT"``, ``"CT"``, ``"CBT"`` (order-insensitive)."""
        s = spec.strip().upper()
        if s in ("NAIVE", ""):
            return cls(False, False, False)
        allowed: FrozenSet[str] = frozenset("BTC")
        letters = frozenset(s)
        if not letters <= allowed:
            raise ValueError(
                f"unknown SMaT variant {spec!r}; use combinations of B, T, C or 'naive'"
            )
        return cls("B" in letters, "T" in letters, "C" in letters)

    @property
    def label(self) -> str:
        if not (self.use_bcsr_pointers or self.use_tensor_cores or self.use_async_copy):
            return "naive"
        return (
            ("C" if self.use_async_copy else "")
            + ("B" if self.use_bcsr_pointers else "")
            + ("T" if self.use_tensor_cores else "")
        )


class SMaTKernel(SpMMKernel):
    """Simulated SMaT BCSR Tensor-Core SpMM kernel.

    Parameters
    ----------
    arch, precision:
        See :class:`~repro.kernels.base.SpMMKernel`.
    variant:
        Optimisation set, as a :class:`SMaTVariant` or a Figure-2 string
        (``"CBT"`` -- the full kernel -- by default).
    block_shape:
        BCSR block shape; defaults to the precision's MMA-matched shape
        (16 x 8 for FP16, Section IV-B).
    """

    name = "SMaT"
    input_format = "bcsr"
    wants_reordering = True
    cost_notes = (
        "Eq. 1: linear in the BCSR block count -- per-block warp MMA cycles "
        "plus the DRAM roofline; block-minimising reordering pays off here"
    )

    def __init__(
        self,
        arch=None,
        precision="fp16",
        *,
        variant="CBT",
        block_shape: Optional[tuple[int, int]] = None,
    ):
        if arch is None:
            from ..gpu import A100_SXM4_40GB as _default_arch

            arch = _default_arch
        super().__init__(arch, precision)
        self.variant = (
            variant if isinstance(variant, SMaTVariant) else SMaTVariant.from_string(variant)
        )
        self.block_shape = tuple(block_shape) if block_shape else self.precision.block_shape
        self._bcsr: Optional[BCSRMatrix] = None

    # -- preparation ------------------------------------------------------------
    def prepare(
        self, A: CSRMatrix, *, row_perm=None, col_perm=None, blocks_per_row=None
    ) -> None:
        """Summarise the BCSR blocking of ``A`` under the optional
        permutations: the non-zero blocks per block row (counted here unless
        the caller passes them, as a plan passes its reorder's
        ``blocks_per_row``) and their ``BlockingStats``.  Keeps no layout
        and no permutation."""
        if blocks_per_row is None:
            blocks_per_row = blocks_per_block_row(
                A, self.block_shape, row_perm=row_perm, col_perm=col_perm
            )
        self.blocks_per_row = blocks_per_row
        self.stats = BlockingStats.from_counts(blocks_per_row, A.nnz, self.block_shape)
        self.n_block_cols = -(-A.ncols // self.block_shape[1])
        self._bcsr = None
        self._mark_prepared(A, permuted=row_perm is not None or col_perm is not None)

    @property
    def bcsr(self) -> Optional[BCSRMatrix]:
        """The BCSR layout of the prepared matrix, built on first access
        (``None`` before :meth:`prepare`).  A kernel prepared under a
        permutation has none; a plan's permuted layout is
        :attr:`repro.core.plan.ExecutionPlan.bcsr`."""
        if self._permuted:
            raise RuntimeError("a kernel prepared under a permutation keeps no layout")
        if self._bcsr is None and self._prepared_for is not None:
            self._bcsr = BCSRMatrix.from_csr(self._prepared_for, self.block_shape)
        return self._bcsr

    def tuning_work(self, A: CSRMatrix) -> float:
        """SMaT's Eq. 1 work measure: the non-zero BCSR block count at the
        kernel's block shape (a memoised O(nnz) counting pass)."""
        return float(count_blocks(A, self.block_shape))

    # -- per-block cycle model ------------------------------------------------------
    def _per_block_cycles(self, n_tile_cols: int) -> float:
        """Warp cycles to process one stored BCSR block against one
        ``n_tile_cols``-wide tile of ``B``."""
        h, w = self.block_shape
        tc = self.cost_model.tensor_cores

        # shared-memory feed cost of the block's operands (A block + B tile)
        block_bytes = (h * w + w * n_tile_cols) * self.precision.itemsize
        shared_bytes_per_cycle_per_warp = (
            self.arch.shared_mem_banks
            * self.arch.shared_mem_bank_bytes_per_clock
            / self.arch.warp_schedulers_per_sm
        )
        shared_feed = block_bytes / shared_bytes_per_cycle_per_warp

        if self.variant.use_tensor_cores:
            mma_per_block = self.precision.mma_count_for_block(self.block_shape, n_tile_cols)
            compute = mma_per_block * tc.warp_mma_issue_cycles + (
                LDMATRIX_X4_CYCLES + LDMATRIX_X2_CYCLES
            )
            if self.variant.use_async_copy:
                # double buffering: loads overlap with MMAs
                return max(compute, shared_feed)
            return compute + shared_feed + SYNC_LOAD_EXTRA_CYCLES

        # scalar (CUDA-core) path
        macs_per_lane = h * w * n_tile_cols / self.arch.warp_size
        if self.variant.use_async_copy:
            return macs_per_lane * SCALAR_MAC_CYCLES_SHARED + shared_feed
        return macs_per_lane * SCALAR_MAC_CYCLES_GLOBAL

    def _warp_work_cycles(self, n_cols: int) -> np.ndarray:
        """Per-warp cycle counts of the static 2-D grid (one warp per
        ``h x mma_n`` output tile), in launch order."""
        mma_n = self.precision.mma_shape.n
        n_tiles = -(-max(1, n_cols) // mma_n)
        last_tile_cols = max(1, n_cols) - (n_tiles - 1) * mma_n

        blocks_per_row = self.blocks_per_row.astype(np.float64)
        warp_cycles = np.empty(self.stats.n_block_rows * n_tiles, dtype=np.float64)
        for tile in range(n_tiles):
            cols = mma_n if tile < n_tiles - 1 else last_tile_cols
            per_block = self._per_block_cycles(cols)
            cycles = WARP_PROLOGUE_CYCLES + blocks_per_row * per_block
            if not self.variant.use_bcsr_pointers:
                cycles = cycles + self.n_block_cols * EMPTY_BLOCK_CHECK_CYCLES
            # warps of tile `t` interleave with other tiles in launch order
            # (grid x = block row, grid y = tile)
            warp_cycles[tile::n_tiles] = cycles
        return warp_cycles

    # -- counters ----------------------------------------------------------------------
    def _counters(self, n_cols: int) -> KernelCounters:
        h, w = self.block_shape
        item = self.precision.itemsize
        A, stats = self._prepared_for, self.stats
        n_blocks = stats.n_blocks
        mma_n = self.precision.mma_shape.n
        n_tiles = -(-max(1, n_cols) // mma_n)

        mma_per_block = self.precision.mma_count_for_block(self.block_shape, n_cols)
        mma_instructions = float(n_blocks) * mma_per_block if self.variant.use_tensor_cores else 0.0
        mma_flops = mma_instructions * self.precision.mma_shape.flops
        cuda_flops = 0.0 if self.variant.use_tensor_cores else 2.0 * n_blocks * h * w * n_cols

        bytes_A = n_blocks * (h * w * item + 4) + (stats.n_block_rows + 1) * 4
        bytes_B = float(n_blocks) * w * n_cols * item
        bytes_C = float(A.nrows) * n_cols * item
        bytes_shared = float(n_blocks) * (h * w + w * mma_n) * item * n_tiles

        return KernelCounters(
            useful_flops=self.useful_flops(A.nnz, n_cols),
            mma_instructions=mma_instructions,
            mma_flops=mma_flops,
            cuda_core_flops=cuda_flops,
            bytes_global_read=bytes_A + bytes_B,
            bytes_global_write=bytes_C,
            bytes_shared=bytes_shared,
            scalar_instructions=float(n_blocks) * 4.0,
            warp_work_cycles=self._warp_work_cycles(n_cols),
            extra={
                "n_blocks": float(n_blocks),
                "padding_zeros": float(stats.padding_zeros),
                "n_warps": float(stats.n_block_rows * n_tiles),
            },
        )

    def _efficiency(self, counters: KernelCounters) -> KernelEfficiency:
        # DRAM efficiency: the variant's access quality scaled by how much
        # of the device the (possibly small) grid can keep busy.
        n_warps = int(counters.extra["n_warps"])
        if self.variant.use_async_copy:
            base_coalescing = 0.75
        elif self.variant.use_tensor_cores or self.variant.use_bcsr_pointers:
            base_coalescing = 0.5
        else:
            base_coalescing = 0.25
        occupancy = min(1.0, n_warps / HBM_SATURATION_WARPS)
        coalescing = max(0.02, base_coalescing * occupancy)
        tc_eff = 0.85 if self.variant.use_async_copy else 0.75
        return KernelEfficiency(
            tensor_core=tc_eff,
            cuda_core=0.5,
            memory=AccessPattern(coalescing=coalescing, bank_conflict_factor=1.0, l2_hit_rate=0.1),
            scalar_ipc=2.0,
        )

    def _meta(self, counters, timing):
        return {
            "variant": self.variant.label,
            "n_blocks": self.stats.n_blocks,
            "block_shape": self.block_shape,
            "fill_in_ratio": self.stats.fill_in_ratio,
        }

    run = SpMMKernel.run  # on the class itself: see SpMMKernel.run
