"""Blocked CSR (BCSR) -- SMaT's internal execution format.

A matrix of shape ``(M, K)`` is tiled into blocks of fixed size ``h x w``
(paper Section II-B3).  Block ``(I, J)`` covers entries ``A[k, l]`` with
``k // h == I`` and ``l // w == J``.  Only blocks containing at least one
non-zero are stored; such a block is stored *densely*, i.e. all ``h * w``
values are materialised and missing entries become explicit zeros
("padding").

Storage mirrors CSR at block granularity:

* ``brow_ptr`` -- length ``n_block_rows + 1``; block row ``I`` owns the
  blocks ``brow_ptr[I]:brow_ptr[I+1]``,
* ``bcol``     -- block-column index of each stored block,
* ``blocks``   -- array of shape ``(n_blocks, h, w)`` with the dense block
  contents (the ``val`` array of Figure 1 in the paper, reshaped).

The number of stored blocks ``n_e = n_blocks`` is the count of elementary
Tensor-Core computations in the paper's performance model (Eq. 1); the
bounds of Eq. 2 are exposed via :meth:`block_count_bounds`.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .base import (
    DEFAULT_VALUE_DTYPE,
    SparseFormat,
    check_dense_operand,
    check_shape,
    index_dtype_for,
)

__all__ = ["BCSRMatrix"]

#: stored blocks per chunk of :meth:`BCSRMatrix.spmm`.  It bounds the
#: ``(chunk, h, N)`` product temporary.  Small chunks are also faster: the
#: temporaries are still in cache when the block-row sum reads them, and
#: they stay below the allocator's mmap threshold, so they do not
#: page-fault on every call.  Measured with
#: ``benchmarks/bench_host_kernels.py`` on a 2-core x86 box, SMaT's warm
#: host execute over scipy (geomean) reads 2.4 at 512 blocks, 2.3-2.5 at
#: 1024, and 2.8 at 2048 and unchunked.
CHUNK_BLOCKS = 512


def _check_block_shape(block_shape: Tuple[int, int]) -> Tuple[int, int]:
    h, w = int(block_shape[0]), int(block_shape[1])
    if h <= 0 or w <= 0:
        raise ValueError(f"block dimensions must be positive, got {(h, w)}")
    return h, w


class BCSRMatrix(SparseFormat):
    """Blocked-CSR sparse matrix with dense ``h x w`` blocks.

    Parameters
    ----------
    brow_ptr, bcol, blocks:
        Block-level CSR arrays as described in the module docstring.
    shape:
        Logical (element-level) shape of the matrix.  It does not need to
        be a multiple of the block size: trailing partial blocks are
        zero-padded up to ``h x w``.
    block_shape:
        ``(h, w)`` dimensions of each block.  For the paper's FP16
        configuration this is ``(16, 8)`` (the ``m16n8k16`` MMA tile of
        the output/operand fragments).
    nnz_logical:
        Number of *logical* non-zeros (before padding).  If omitted it is
        recomputed by counting non-zero entries of ``blocks``.
    """

    format_name = "bcsr"

    def __init__(
        self,
        brow_ptr,
        bcol,
        blocks,
        shape: Tuple[int, int],
        block_shape: Tuple[int, int],
        *,
        nnz_logical: int | None = None,
        check: bool = True,
    ):
        shape = check_shape(shape)
        h, w = _check_block_shape(block_shape)
        blocks = np.asarray(blocks)
        dtype = blocks.dtype if blocks.dtype.kind in "fiu" else DEFAULT_VALUE_DTYPE
        super().__init__(shape, dtype=dtype)

        self.block_shape = (h, w)
        self.n_block_rows = -(-shape[0] // h) if shape[0] else 0
        self.n_block_cols = -(-shape[1] // w) if shape[1] else 0

        brow_ptr = np.asarray(brow_ptr)
        bcol = np.asarray(bcol)
        if blocks.ndim != 3 or blocks.shape[1:] != (h, w):
            raise ValueError(
                f"blocks must have shape (n_blocks, {h}, {w}), got {blocks.shape}"
            )
        if brow_ptr.ndim != 1 or brow_ptr.size != self.n_block_rows + 1:
            raise ValueError(
                f"brow_ptr must have length n_block_rows+1 = {self.n_block_rows + 1}"
            )
        if bcol.ndim != 1 or bcol.size != blocks.shape[0]:
            raise ValueError("bcol must have one entry per stored block")
        if check:
            if brow_ptr[0] != 0 or brow_ptr[-1] != blocks.shape[0]:
                raise ValueError("brow_ptr must start at 0 and end at n_blocks")
            if np.any(np.diff(brow_ptr) < 0):
                raise ValueError("brow_ptr must be non-decreasing")
            if bcol.size and (bcol.min() < 0 or bcol.max() >= self.n_block_cols):
                raise ValueError("block column indices out of bounds")

        idx_dtype = index_dtype_for(self.n_block_rows, self.n_block_cols, blocks.shape[0])
        self.brow_ptr = brow_ptr.astype(idx_dtype, copy=False)
        self.bcol = bcol.astype(idx_dtype, copy=False)
        self.blocks = blocks.astype(dtype, copy=False)
        if nnz_logical is None:
            nnz_logical = int(np.count_nonzero(self.blocks))
        self._nnz_logical = int(nnz_logical)
        self._block_row_sums = None

    # -- construction -------------------------------------------------------------
    @classmethod
    def from_csr(cls, csr, block_shape: Tuple[int, int]) -> "BCSRMatrix":
        """Convert a :class:`~repro.formats.csr.CSRMatrix` into BCSR.

        The conversion is fully vectorised: each non-zero is assigned to a
        block via integer division of its coordinates, unique blocks are
        found with a lexicographic sort, and values are scattered into
        block-local positions.
        """
        h, w = _check_block_shape(block_shape)
        M, K = csr.shape
        n_block_rows = -(-M // h) if M else 0
        n_block_cols = -(-K // w) if K else 0

        if csr.nnz == 0:
            idx_dtype = index_dtype_for(n_block_rows, n_block_cols, 0)
            return cls(
                np.zeros(n_block_rows + 1, dtype=idx_dtype),
                np.empty(0, dtype=idx_dtype),
                np.empty((0, h, w), dtype=csr.dtype),
                (M, K),
                (h, w),
                nnz_logical=0,
                check=False,
            )

        rows = np.repeat(np.arange(M, dtype=np.int64), np.diff(csr.rowptr))
        cols = csr.col.astype(np.int64, copy=False)
        vals = csr.val

        brow = rows // h
        bcol = cols // w
        in_r = rows - brow * h
        in_c = cols - bcol * w

        # linear block id, then find unique blocks preserving (brow, bcol) order
        block_id = brow * n_block_cols + bcol
        order = np.argsort(block_id, kind="stable")
        block_id_sorted = block_id[order]
        unique_ids, first_pos = np.unique(block_id_sorted, return_index=True)
        n_blocks = unique_ids.size
        # index of the owning stored block for each nnz (in sorted order)
        owner_sorted = np.searchsorted(unique_ids, block_id_sorted)

        blocks = np.zeros((n_blocks, h, w), dtype=vals.dtype)
        blocks[owner_sorted, in_r[order], in_c[order]] = vals[order]

        u_brow = (unique_ids // n_block_cols).astype(np.int64)
        u_bcol = (unique_ids - u_brow * n_block_cols).astype(np.int64)

        idx_dtype = index_dtype_for(n_block_rows, n_block_cols, n_blocks)
        counts = np.bincount(u_brow, minlength=n_block_rows).astype(idx_dtype)
        brow_ptr = np.zeros(n_block_rows + 1, dtype=idx_dtype)
        np.cumsum(counts, out=brow_ptr[1:])

        return cls(
            brow_ptr,
            u_bcol.astype(idx_dtype),
            blocks,
            (M, K),
            (h, w),
            nnz_logical=csr.nnz,
            check=False,
        )

    @classmethod
    def from_dense(cls, dense: np.ndarray, block_shape: Tuple[int, int]) -> "BCSRMatrix":
        from .csr import CSRMatrix

        return cls.from_csr(CSRMatrix.from_dense(dense), block_shape)

    # -- SparseFormat API -----------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of *logical* non-zeros (padding zeros are not counted)."""
        return self._nnz_logical

    @property
    def n_blocks(self) -> int:
        """Number of stored (non-zero) blocks -- ``n_e`` of the paper's Eq. 1."""
        return int(self.blocks.shape[0])

    @property
    def stored_values(self) -> int:
        """Number of explicitly stored values including padding zeros."""
        h, w = self.block_shape
        return self.n_blocks * h * w

    @property
    def padding_zeros(self) -> int:
        """Explicitly stored zeros (paper Figure 1: "# zeros stored")."""
        return self.stored_values - self.nnz

    @property
    def fill_in_ratio(self) -> float:
        """Stored values per logical non-zero (1.0 = perfectly packed)."""
        return self.stored_values / self.nnz if self.nnz else 0.0

    def to_dense(self) -> np.ndarray:
        h, w = self.block_shape
        out = np.zeros((self.n_block_rows * h, self.n_block_cols * w), dtype=self.dtype)
        brow = np.repeat(np.arange(self.n_block_rows), np.diff(self.brow_ptr))
        # one scatter of every block: on the (I, r, J, c) view, indexing
        # [brow, :, bcol, :] addresses exactly the (n_blocks, h, w) tiles
        tiles = out.reshape(self.n_block_rows, h, self.n_block_cols, w)
        tiles[brow, :, self.bcol, :] = self.blocks
        return out[: self.nrows, : self.ncols]

    def to_coo(self):
        from .coo import COOMatrix

        h, w = self.block_shape
        if self.n_blocks == 0:
            return COOMatrix.empty(self.shape, dtype=self.dtype)
        brow = np.repeat(np.arange(self.n_block_rows), np.diff(self.brow_ptr))
        bi, bj = np.nonzero(self.blocks.reshape(self.n_blocks, h * w))
        in_r, in_c = np.divmod(bj, w)
        rows = brow[bi] * h + in_r
        cols = self.bcol[bi] * w + in_c
        vals = self.blocks.reshape(self.n_blocks, h * w)[bi, bj]
        return COOMatrix(rows, cols, vals, self.shape)

    def to_csr(self):
        from .csr import CSRMatrix

        return CSRMatrix.from_coo(self.to_coo())

    def block_row_sums(self) -> List[Tuple[int, int, int, int, object]]:
        """The block-row reduction of :meth:`spmm`, as chunks of stored blocks.

        The whole reduction is the 0/1 ``scipy.sparse.csr_matrix``
        ``S`` of shape ``(n_block_rows, n_blocks)`` with
        ``indptr=brow_ptr`` and ``indices=arange(n_blocks)``: row ``I``
        adds up the products of the blocks ``brow_ptr[I]:brow_ptr[I+1]``.
        For each chunk ``lo:hi`` of at most :data:`CHUNK_BLOCKS` blocks
        this returns ``(lo, hi, first, last, S[first:last, lo:hi])``,
        where ``first:last`` are the block rows the chunk overlaps.  Built
        on the first call and reused by every later one; its values are
        float32 ones, exact in every product dtype, so one operator serves
        every dtype of ``B``.
        """
        if self._block_row_sums is None:
            import scipy.sparse as sp

            n = self.n_blocks
            ones = np.ones(n, dtype=np.float32)
            block_ids = np.arange(n, dtype=self.bcol.dtype)
            S = sp.csr_matrix((ones, block_ids, self.brow_ptr), shape=(self.n_block_rows, n))
            chunks = []
            for lo in range(0, n, CHUNK_BLOCKS):
                hi = min(lo + CHUNK_BLOCKS, n)
                first = int(np.searchsorted(self.brow_ptr, lo, side="right")) - 1
                last = int(np.searchsorted(self.brow_ptr, hi, side="left"))
                chunks.append((lo, hi, first, last, S[first:last, lo:hi]))
            self._block_row_sums = chunks
        return self._block_row_sums

    def spmm(self, B: np.ndarray) -> np.ndarray:
        """Block-wise SpMM with the dataflow of the SMaT kernel: every
        stored block ``A_IJ`` is multiplied by its B tile
        ``B[J*w:(J+1)*w]`` in a batched ``matmul``, then
        :meth:`block_row_sums` adds each block row's products into the
        output tile ``C[I*h:(I+1)*h]``.  No cost modelling.  The result
        dtype is ``np.result_type(A.dtype, B.dtype, np.float32)``."""
        B = check_dense_operand(B, self.ncols)
        h, w = self.block_shape
        N = B.shape[1]
        out_dtype = np.result_type(self.dtype, B.dtype, np.float32)
        # pad B to a multiple of w rows so block slices are uniform
        Kp = self.n_block_cols * w
        if Kp != B.shape[0]:
            Bp = np.zeros((Kp, N), dtype=out_dtype)
            Bp[: B.shape[0]] = B
        else:
            Bp = B.astype(out_dtype, copy=False)
        B_panels = Bp.reshape(self.n_block_cols, w, N)
        blocks = self.blocks.astype(out_dtype, copy=False)
        C = np.zeros((self.n_block_rows, h * N), dtype=out_dtype)
        for lo, hi, first, last, S in self.block_row_sums():
            contrib = np.matmul(blocks[lo:hi], B_panels[self.bcol[lo:hi]])
            C[first:last] += S @ contrib.reshape(hi - lo, h * N)
        return C.reshape(self.n_block_rows * h, N)[: self.nrows]

    # -- statistics ---------------------------------------------------------------------
    def blocks_per_row(self) -> np.ndarray:
        """Number of stored blocks in each block row (Figure 3 of the paper)."""
        return np.diff(self.brow_ptr)

    def block_count_bounds(self) -> Tuple[int, int]:
        """Lower/upper bounds on the number of stored blocks (paper Eq. 2).

        ``nnz / (h*w) <= n_e <= min(N_blocks_total, nnz)`` where
        ``N_blocks_total = n_block_rows * n_block_cols``.
        """
        h, w = self.block_shape
        lower = -(-self.nnz // (h * w)) if self.nnz else 0
        upper = min(self.n_block_rows * self.n_block_cols, self.nnz)
        return int(lower), int(upper)

    def block_density(self) -> np.ndarray:
        """Per-block fraction of non-zero entries (1.0 = fully dense block)."""
        h, w = self.block_shape
        if self.n_blocks == 0:
            return np.empty(0, dtype=np.float64)
        counts = np.count_nonzero(self.blocks.reshape(self.n_blocks, h * w), axis=1)
        return counts / float(h * w)

    def row_block_stats(self) -> dict:
        """Summary statistics of the blocks-per-row distribution used in the
        paper's load-balance discussion (mean, std, max, coefficient of
        variation)."""
        bpr = self.blocks_per_row().astype(np.float64)
        mean = float(bpr.mean()) if bpr.size else 0.0
        std = float(bpr.std()) if bpr.size else 0.0
        return {
            "mean": mean,
            "std": std,
            "max": float(bpr.max()) if bpr.size else 0.0,
            "cv": (std / mean) if mean else 0.0,
            "n_blocks": self.n_blocks,
        }

    def _storage_arrays(self):
        return (self.brow_ptr, self.bcol, self.blocks)
