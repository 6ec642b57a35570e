"""Compressed Sparse Row (CSR) format.

CSR is the paper's *input* format: SMaT reads a CSR matrix, permutes its
rows during preprocessing, and converts it to BCSR for execution.  The
class below also provides the row/column statistics that the reordering
heuristics and the performance analysis need (non-zeros per row, row
support sets, bandwidth).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Tuple

import numpy as np

from .base import (
    DEFAULT_VALUE_DTYPE,
    SparseFormat,
    check_dense_operand,
    check_shape,
    index_dtype_for,
)

__all__ = ["CSRMatrix", "matrix_fingerprint"]


def matrix_fingerprint(A: "CSRMatrix") -> str:
    """Content hash identifying a CSR matrix for prepared-state reuse.

    Covers the shape, the sparsity structure (``rowptr``/``col``) *and*
    the stored values: two matrices with the same pattern but different
    values produce different products, so they must not share a cached
    plan or a prepared kernel.  The hash is a 128-bit BLAKE2b digest --
    collisions are negligible, and hashing is orders of magnitude cheaper
    than the preprocessing it guards.

    The digest is memoised on the matrix instance so per-query cache
    lookups are O(1) instead of re-hashing O(nnz) bytes per batch item;
    like the rest of the pipeline (plans keep references to ``A``), this
    treats the matrix arrays as immutable once constructed.
    """
    cached = getattr(A, "_fingerprint", None)
    if cached is not None:
        return cached
    h = hashlib.blake2b(digest_size=16)
    h.update(np.asarray([A.nrows, A.ncols, A.nnz], dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(A.rowptr).tobytes())
    h.update(np.ascontiguousarray(A.col).tobytes())
    h.update(np.ascontiguousarray(A.val).tobytes())
    digest = h.hexdigest()
    A._fingerprint = digest
    return digest


class CSRMatrix(SparseFormat):
    """Sparse matrix in CSR format (``rowptr``, ``col``, ``val``).

    Parameters
    ----------
    rowptr:
        Integer array of length ``rows + 1``; ``rowptr[i]:rowptr[i+1]``
        addresses the entries of row ``i`` in ``col``/``val``.
    col:
        Column index of each stored entry.
    val:
        Value of each stored entry.
    shape:
        Logical matrix shape.
    check:
        When True (default) the structure is validated (monotone rowptr,
        in-bounds and sorted column indices).
    """

    format_name = "csr"

    def __init__(self, rowptr, col, val, shape: Tuple[int, int], *, check: bool = True):
        shape = check_shape(shape)
        rowptr = np.asarray(rowptr)
        col = np.asarray(col)
        val = np.asarray(val)
        dtype = val.dtype if val.dtype.kind in "fiu" else DEFAULT_VALUE_DTYPE
        super().__init__(shape, dtype=dtype)

        if rowptr.ndim != 1 or rowptr.size != shape[0] + 1:
            raise ValueError(
                f"rowptr must have length rows+1 = {shape[0] + 1}, got {rowptr.size}"
            )
        if col.ndim != 1 or val.ndim != 1 or col.size != val.size:
            raise ValueError("col and val must be 1-D arrays of equal length")
        if check:
            if rowptr[0] != 0 or rowptr[-1] != col.size:
                raise ValueError("rowptr must start at 0 and end at nnz")
            if np.any(np.diff(rowptr) < 0):
                raise ValueError("rowptr must be non-decreasing")
            if col.size and (col.min() < 0 or col.max() >= shape[1]):
                raise ValueError("column indices out of bounds")

        idx_dtype = index_dtype_for(shape[0], shape[1], col.size)
        self.rowptr = rowptr.astype(idx_dtype, copy=False)
        self.col = col.astype(idx_dtype, copy=False)
        self.val = val.astype(dtype, copy=False)
        self._operator = None
        if check:
            self._sort_indices_inplace()

    def _sort_indices_inplace(self) -> None:
        """Sort column indices within each row (canonical CSR)."""
        rowptr, col, val = self.rowptr, self.col, self.val
        for i in range(self.nrows):
            lo, hi = int(rowptr[i]), int(rowptr[i + 1])
            if hi - lo > 1:
                seg = col[lo:hi]
                if np.any(seg[1:] < seg[:-1]):
                    order = np.argsort(seg, kind="stable")
                    col[lo:hi] = seg[order]
                    val[lo:hi] = val[lo:hi][order]

    # -- construction --------------------------------------------------------
    @classmethod
    def from_coo(cls, coo) -> "CSRMatrix":
        """Build a CSR matrix from a (canonicalised) COO matrix."""
        shape = coo.shape
        idx_dtype = index_dtype_for(shape[0], shape[1], coo.nnz)
        counts = np.bincount(coo.row, minlength=shape[0]).astype(idx_dtype)
        rowptr = np.zeros(shape[0] + 1, dtype=idx_dtype)
        np.cumsum(counts, out=rowptr[1:])
        # COOMatrix guarantees lexicographic (row, col) order.
        return cls(rowptr, coo.col.copy(), coo.val.copy(), shape, check=False)

    @classmethod
    def from_dense(cls, dense: np.ndarray, *, tol: float = 0.0) -> "CSRMatrix":
        """Create a CSR matrix from a dense array."""
        from .coo import COOMatrix

        return cls.from_coo(COOMatrix.from_dense(dense, tol=tol))

    @classmethod
    def from_scipy(cls, mat) -> "CSRMatrix":
        """Create from a ``scipy.sparse`` matrix (any scipy format)."""
        m = mat.tocsr()
        m.sort_indices()
        return cls(m.indptr, m.indices, m.data, m.shape, check=False)

    def to_scipy(self):
        """Convert to ``scipy.sparse.csr_matrix`` (used in tests)."""
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.val, self.col, self.rowptr), shape=self.shape
        )

    @classmethod
    def empty(cls, shape: Tuple[int, int], dtype=DEFAULT_VALUE_DTYPE) -> "CSRMatrix":
        shape = check_shape(shape)
        return cls(
            np.zeros(shape[0] + 1, dtype=np.int32),
            np.empty(0, dtype=np.int32),
            np.empty(0, dtype=dtype),
            shape,
            check=False,
        )

    # -- SparseFormat API -----------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.val.size)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.dtype)
        rows = np.repeat(np.arange(self.nrows), np.diff(self.rowptr))
        out[rows, self.col] = self.val
        return out

    def to_coo(self):
        from .coo import COOMatrix

        rows = np.repeat(np.arange(self.nrows), np.diff(self.rowptr))
        return COOMatrix(rows, self.col, self.val, self.shape)

    def to_csc(self):
        from .csc import CSCMatrix

        return CSCMatrix.from_coo(self.to_coo())

    def scipy_operator(self):
        """The ``scipy.sparse.csr_matrix`` that :meth:`spmm` multiplies by.

        It views this matrix's own ``(val, col, rowptr)`` arrays without
        copying them.  Values narrower than float32 (float16, small
        integers) are widened once, because scipy has no float16 kernels.
        The operator is built on the first call and reused by every later
        one; like :func:`matrix_fingerprint`, this treats the matrix
        arrays as immutable once constructed.
        """
        if self._operator is None:
            import scipy.sparse as sp

            data = self.val.astype(np.result_type(self.dtype, np.float32), copy=False)
            self._operator = sp.csr_matrix((data, self.col, self.rowptr), shape=self.shape)
        return self._operator

    def spmm(self, B: np.ndarray) -> np.ndarray:
        """``A @ B`` as one scipy CSR product over this matrix's own arrays
        (see :meth:`scipy_operator`).  The result dtype is
        ``np.result_type(A.dtype, B.dtype, np.float32)``."""
        B = check_dense_operand(B, self.ncols)
        out_dtype = np.result_type(self.dtype, B.dtype, np.float32)
        # the operator's dtype is at most out_dtype, so scipy returns out_dtype
        return self.scipy_operator() @ B.astype(out_dtype, copy=False)

    # -- statistics used by reordering / analysis ------------------------------
    def row_nnz(self) -> np.ndarray:
        """Number of stored entries in each row."""
        return np.diff(self.rowptr)

    def col_nnz(self) -> np.ndarray:
        """Number of stored entries in each column."""
        return np.bincount(self.col, minlength=self.ncols)

    def row_indices(self, i: int) -> np.ndarray:
        """Column-index support set of row ``i`` (sorted)."""
        lo, hi = int(self.rowptr[i]), int(self.rowptr[i + 1])
        return self.col[lo:hi]

    def row_values(self, i: int) -> np.ndarray:
        """Stored values of row ``i``."""
        lo, hi = int(self.rowptr[i]), int(self.rowptr[i + 1])
        return self.val[lo:hi]

    def bandwidth(self) -> int:
        """Matrix bandwidth: ``max |i - j|`` over stored entries (0 if empty)."""
        if self.nnz == 0:
            return 0
        rows = np.repeat(np.arange(self.nrows), np.diff(self.rowptr))
        return int(np.max(np.abs(rows - self.col)))

    def rows_iter(self) -> Iterable[Tuple[int, np.ndarray, np.ndarray]]:
        """Iterate over ``(row, col_indices, values)`` for non-empty rows."""
        for i in range(self.nrows):
            lo, hi = int(self.rowptr[i]), int(self.rowptr[i + 1])
            if hi > lo:
                yield i, self.col[lo:hi], self.val[lo:hi]

    # -- transforms -------------------------------------------------------------
    def transpose(self) -> "CSRMatrix":
        """Return the transposed matrix as CSR."""
        return CSRMatrix.from_coo(self.to_coo().transpose())

    def permute_rows(self, perm: np.ndarray) -> "CSRMatrix":
        """Apply a row permutation.

        ``perm`` follows the "new position -> old index" convention: row
        ``perm[i]`` of the original matrix becomes row ``i`` of the result
        (i.e. the result is ``P A`` where ``P`` has ``P[i, perm[i]] = 1``).
        """
        perm = np.asarray(perm)
        if perm.shape != (self.nrows,):
            raise ValueError(f"row permutation must have length {self.nrows}")
        if not np.array_equal(np.sort(perm), np.arange(self.nrows)):
            raise ValueError("perm is not a permutation of 0..rows-1")
        return self.extract_rows(perm)

    def permute_cols(self, perm: np.ndarray) -> "CSRMatrix":
        """Apply a column permutation (same convention as
        :meth:`permute_rows`): column ``perm[j]`` of the original matrix
        becomes column ``j`` of the result, i.e. the result is ``A P^T``."""
        perm = np.asarray(perm)
        if perm.shape != (self.ncols,):
            raise ValueError(f"column permutation must have length {self.ncols}")
        if not np.array_equal(np.sort(perm), np.arange(self.ncols)):
            raise ValueError("perm is not a permutation of 0..cols-1")
        inv = np.empty_like(perm)
        inv[perm] = np.arange(self.ncols, dtype=perm.dtype)
        new_col = inv[self.col]
        out = CSRMatrix(self.rowptr.copy(), new_col, self.val.copy(), self.shape, check=False)
        out._sort_indices_inplace()
        return out

    def extract_rows(self, rows: np.ndarray) -> "CSRMatrix":
        """Return a new CSR matrix containing only the given rows
        (in the given order); the column dimension is unchanged."""
        rows = np.asarray(rows)
        counts = np.diff(self.rowptr)[rows]
        new_rowptr = np.zeros(rows.size + 1, dtype=self.rowptr.dtype)
        np.cumsum(counts, out=new_rowptr[1:])
        # one gather: entry k of new row i comes from its old row's start
        # plus its offset k - new_rowptr[i] inside the row
        shift = self.rowptr[:-1][rows].astype(np.int64) - new_rowptr[:-1]
        src = np.arange(int(new_rowptr[-1]), dtype=np.int64) + np.repeat(shift, counts)
        return CSRMatrix(
            new_rowptr, self.col[src], self.val[src], (rows.size, self.ncols), check=False
        )

    def extract_cols(self, cols: np.ndarray) -> "CSRMatrix":
        """Return a new CSR matrix containing only the given columns
        (in the given order); the row dimension is unchanged.

        Mirrors :meth:`extract_rows` for the column dimension (the sharded
        SpMM partitioner slices column panels this way).  ``cols`` must be
        unique: unlike row extraction, duplicating a column would require
        duplicating stored entries, which CSR cannot express in one pass.
        """
        cols = np.asarray(cols)
        if cols.ndim != 1:
            raise ValueError("cols must be a 1-D index array")
        if cols.size:
            if cols.min() < 0 or cols.max() >= self.ncols:
                raise ValueError("column indices out of bounds")
            if np.unique(cols).size != cols.size:
                raise ValueError("duplicate column indices are not supported")
        contiguous = cols.size > 0 and np.array_equal(
            cols, np.arange(cols[0], cols[0] + cols.size)
        )
        if contiguous:
            # the common panel-extraction case: a range test instead of an
            # O(ncols) lookup table
            keep = (self.col >= cols[0]) & (self.col < cols[0] + cols.size)
            new_col = self.col[keep].astype(np.int64) - int(cols[0])
            rows = np.repeat(np.arange(self.nrows), np.diff(self.rowptr))[keep]
            new_val = self.val[keep]
        else:
            # old column -> position in the selection (-1 drops the entry)
            lut = np.full(self.ncols, -1, dtype=np.int64)
            lut[cols] = np.arange(cols.size)
            mapped = lut[self.col]
            keep = mapped >= 0
            rows = np.repeat(np.arange(self.nrows), np.diff(self.rowptr))[keep]
            new_col = mapped[keep]
            new_val = self.val[keep]
            if cols.size > 1 and np.any(np.diff(cols) < 0):
                # non-monotone selection scrambles the within-row order
                order = np.lexsort((new_col, rows))
                new_col = new_col[order]
                new_val = new_val[order]
        counts = np.bincount(rows, minlength=self.nrows)
        new_rowptr = np.zeros(self.nrows + 1, dtype=np.int64)
        np.cumsum(counts, out=new_rowptr[1:])
        return CSRMatrix(new_rowptr, new_col, new_val, (self.nrows, cols.size), check=False)

    def submatrix(self, rows: np.ndarray, cols: np.ndarray) -> "CSRMatrix":
        """Return the submatrix addressed by the given row and column index
        arrays (both in the given order), equivalent to scipy's
        ``A[rows][:, cols]``."""
        return self.extract_rows(rows).extract_cols(cols)

    def _storage_arrays(self):
        return (self.rowptr, self.col, self.val)
