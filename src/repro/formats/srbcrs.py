"""Strided Row-major Blocked CRS (SR-BCRS) -- Magicube's storage format.

The Magicube baseline (Li, Osawa, Hoefler, SC'22) stores the sparse matrix
as *column vectors*: the matrix is cut into row panels of height ``v``
(the vector length); inside a panel, every column that contains at least
one non-zero is stored as a dense length-``v`` vector.  Vectors of a panel
are stored contiguously ("row-major" over panels) and padded with zero
vectors so the vector count of every panel is a multiple of the
``stride`` (the paper: "If the number of dense vectors in the row is not a
multiple-of-stride, zero vectors are padded for the last stride").

This padding is the reason Magicube's memory footprint grows quickly for
large unstructured matrices -- which the paper reports as out-of-memory
failures for most SuiteSparse matrices.  The :meth:`memory_footprint_bytes`
of this class is therefore used by the Magicube kernel model to reproduce
that behaviour.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .base import (
    DEFAULT_VALUE_DTYPE,
    SparseFormat,
    check_dense_operand,
    check_shape,
    index_dtype_for,
    run_starts,
)

__all__ = ["SRBCRSMatrix"]


class SRBCRSMatrix(SparseFormat):
    """Sparse matrix stored as strided row-major column vectors.

    Parameters
    ----------
    panel_ptr:
        Length ``n_panels + 1``; panel ``p`` owns vectors
        ``panel_ptr[p]:panel_ptr[p+1]`` (including padding vectors).
    vec_col:
        Column index of each stored vector; padding vectors use ``-1``.
    vectors:
        Array of shape ``(n_vectors, v)`` with the dense vector contents.
    shape:
        Logical matrix shape.
    vector_length:
        Height ``v`` of each column vector (the row-panel height).
    stride:
        Vector-count granularity; every panel's vector count is padded up
        to a multiple of this value.
    """

    format_name = "srbcrs"

    def __init__(
        self,
        panel_ptr,
        vec_col,
        vectors,
        shape: Tuple[int, int],
        *,
        vector_length: int,
        stride: int,
        nnz_logical: int | None = None,
    ):
        shape = check_shape(shape)
        vectors = np.asarray(vectors)
        dtype = vectors.dtype if vectors.dtype.kind in "fiu" else DEFAULT_VALUE_DTYPE
        super().__init__(shape, dtype=dtype)

        v = int(vector_length)
        s = int(stride)
        if v <= 0 or s <= 0:
            raise ValueError("vector_length and stride must be positive")
        self.vector_length = v
        self.stride = s
        self.n_panels = -(-shape[0] // v) if shape[0] else 0

        panel_ptr = np.asarray(panel_ptr)
        vec_col = np.asarray(vec_col)
        if vectors.ndim != 2 or vectors.shape[1] != v:
            raise ValueError(f"vectors must have shape (n_vectors, {v})")
        if panel_ptr.size != self.n_panels + 1:
            raise ValueError(f"panel_ptr must have length {self.n_panels + 1}")
        if vec_col.size != vectors.shape[0]:
            raise ValueError("vec_col must have one entry per stored vector")

        idx_dtype = index_dtype_for(shape[0], shape[1], vectors.shape[0])
        self.panel_ptr = panel_ptr.astype(idx_dtype, copy=False)
        self.vec_col = vec_col.astype(np.int64, copy=False)
        self.vectors = vectors.astype(dtype, copy=False)
        if nnz_logical is None:
            nnz_logical = int(np.count_nonzero(self.vectors))
        self._nnz_logical = int(nnz_logical)
        #: element-level CSR of the stored non-zeros, the operator of :meth:`spmm`
        self._elements = None

    # -- construction -------------------------------------------------------------
    @classmethod
    def from_csr(cls, csr, *, vector_length: int = 8, stride: int = 4) -> "SRBCRSMatrix":
        """Convert a CSR matrix into SR-BCRS with the given vector length and
        stride."""
        v = int(vector_length)
        s = int(stride)
        if v <= 0 or s <= 0:
            raise ValueError("vector_length and stride must be positive")
        M, K = csr.shape
        n_panels = -(-M // v) if M else 0

        if csr.nnz == 0:
            idx = index_dtype_for(M, K, 0)
            return cls(
                np.zeros(n_panels + 1, dtype=idx),
                np.empty(0, dtype=np.int64),
                np.empty((0, v), dtype=csr.dtype),
                (M, K),
                vector_length=v,
                stride=s,
                nnz_logical=0,
            )

        rows = np.repeat(np.arange(M, dtype=np.int64), np.diff(csr.rowptr))
        cols = csr.col.astype(np.int64, copy=False)
        vals = csr.val
        panel = rows // v
        in_r = rows - panel * v

        # unique (panel, col) pairs define the stored vectors
        key = panel * K + cols
        order = np.argsort(key, kind="stable")
        key_sorted = key[order]
        starts = run_starts(key_sorted)
        unique_keys = key_sorted[starts]
        owner = np.cumsum(starts) - 1

        u_panel = unique_keys // K
        u_col = unique_keys - u_panel * K

        # pad each panel's vector count up to a multiple of the stride
        counts = np.bincount(u_panel, minlength=n_panels)
        padded_counts = ((counts + s - 1) // s) * s
        padded_counts[counts == 0] = 0  # fully empty panels stay empty
        panel_ptr = np.zeros(n_panels + 1, dtype=np.int64)
        np.cumsum(padded_counts, out=panel_ptr[1:])

        n_vectors = int(panel_ptr[-1])
        vectors = np.zeros((n_vectors, v), dtype=vals.dtype)
        vec_col = np.full(n_vectors, -1, dtype=np.int64)

        # destination slot of each unique vector: panel start + rank inside panel
        panel_start_unpadded = np.zeros(n_panels + 1, dtype=np.int64)
        np.cumsum(counts, out=panel_start_unpadded[1:])
        rank_in_panel = np.arange(unique_keys.size) - panel_start_unpadded[u_panel]
        dest = panel_ptr[u_panel] + rank_in_panel
        vec_col[dest] = u_col

        vectors[dest[owner], in_r[order]] = vals[order]

        idx = index_dtype_for(M, K, n_vectors)
        out = cls(
            panel_ptr.astype(idx),
            vec_col,
            vectors,
            (M, K),
            vector_length=v,
            stride=s,
            nnz_logical=csr.nnz,
        )
        # the vectors hold exactly csr's non-zeros: reuse it as the operator
        out._elements = csr
        return out

    # -- SparseFormat API -----------------------------------------------------------
    @property
    def nnz(self) -> int:
        return self._nnz_logical

    @property
    def n_vectors(self) -> int:
        """Total stored vectors, including zero-padding vectors."""
        return int(self.vectors.shape[0])

    @property
    def n_padding_vectors(self) -> int:
        """Vectors added only to satisfy the stride constraint."""
        return int(np.count_nonzero(self.vec_col < 0))

    @property
    def stored_values(self) -> int:
        """Explicitly stored values (vector storage, including padding)."""
        return self.n_vectors * self.vector_length

    def to_dense(self) -> np.ndarray:
        v = self.vector_length
        out = np.zeros((self.n_panels * v, self.ncols), dtype=self.dtype)
        for p in range(self.n_panels):
            for k in range(int(self.panel_ptr[p]), int(self.panel_ptr[p + 1])):
                c = int(self.vec_col[k])
                if c < 0:
                    continue
                out[p * v : (p + 1) * v, c] = self.vectors[k]
        return out[: self.nrows]

    def to_coo(self):
        from .coo import COOMatrix

        if self.n_vectors == 0:
            return COOMatrix.empty(self.shape, dtype=self.dtype)
        panel_of_vec = np.repeat(np.arange(self.n_panels), np.diff(self.panel_ptr))
        vi, ri = np.nonzero(self.vectors)
        keep = self.vec_col[vi] >= 0
        vi, ri = vi[keep], ri[keep]
        rows = panel_of_vec[vi] * self.vector_length + ri
        cols = self.vec_col[vi]
        vals = self.vectors[vi, ri]
        return COOMatrix(rows, cols, vals, self.shape)

    def to_csr(self):
        from .csr import CSRMatrix

        return CSRMatrix.from_coo(self.to_coo())

    def spmm(self, B: np.ndarray) -> np.ndarray:
        """``A @ B`` as one scipy CSR product over the stored vectors'
        non-zeros (padding dropped), the sum of the per-panel outer
        products ``vector (v x 1) @ B[col] (1 x N)`` of the Magicube
        dataflow.  The element-level operator is the source CSR's
        :meth:`~repro.formats.csr.CSRMatrix.scipy_operator` when the
        matrix came from :meth:`from_csr` (which holds exactly those
        non-zeros), otherwise it is derived from the vectors on the first
        call; either way it is reused by every later call.  The result
        dtype is ``np.result_type(A.dtype, B.dtype, np.float32)``."""
        B = check_dense_operand(B, self.ncols)
        out_dtype = np.result_type(self.dtype, B.dtype, np.float32)
        if self._elements is None:
            self._elements = self.to_csr()
        return self._elements.scipy_operator() @ B.astype(out_dtype, copy=False)

    # -- statistics -------------------------------------------------------------------
    def vectors_per_panel(self) -> np.ndarray:
        """Stored vectors per row panel (including stride padding)."""
        return np.diff(self.panel_ptr)

    def _storage_arrays(self):
        return (self.panel_ptr, self.vec_col, self.vectors)
