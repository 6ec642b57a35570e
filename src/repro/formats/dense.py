"""Dense matrix wrapper.

The cuBLAS-like baseline of the paper multiplies the sparse matrix *as if
it were dense* (explicitly storing all zeros).  :class:`DenseMatrix`
provides the same :class:`~repro.formats.base.SparseFormat` interface so
the benchmark harness can treat it uniformly, while the ``nnz`` property
still reports only the logically non-zero entries so that *effective*
GFLOP/s (paper Section VI-C: cuBLAS performance scaled by the fraction of
non-zeros) can be computed.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .base import DEFAULT_VALUE_DTYPE, SparseFormat, check_dense_operand

__all__ = ["DenseMatrix"]


class DenseMatrix(SparseFormat):
    """A dense 2-D array exposed through the sparse-format interface."""

    format_name = "dense"

    def __init__(self, data: np.ndarray):
        data = np.asarray(data)
        if data.ndim != 2:
            raise ValueError("DenseMatrix expects a 2-D array")
        dtype = data.dtype if data.dtype.kind in "fiu" else DEFAULT_VALUE_DTYPE
        super().__init__(data.shape, dtype=dtype)
        self.data = np.ascontiguousarray(data, dtype=dtype)

    @classmethod
    def zeros(cls, shape: Tuple[int, int], dtype=DEFAULT_VALUE_DTYPE) -> "DenseMatrix":
        return cls(np.zeros(shape, dtype=dtype))

    @classmethod
    def from_sparse(cls, sparse: SparseFormat) -> "DenseMatrix":
        """Materialise any sparse format as a dense matrix (the explicit
        zero-padding step of the cuBLAS baseline)."""
        return cls(sparse.to_dense())

    # -- SparseFormat API -----------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.data))

    @property
    def stored_values(self) -> int:
        """All entries are stored explicitly."""
        return int(self.data.size)

    def to_dense(self) -> np.ndarray:
        return self.data.copy()

    def to_coo(self):
        from .coo import COOMatrix

        return COOMatrix.from_dense(self.data)

    def to_csr(self):
        from .csr import CSRMatrix

        return CSRMatrix.from_dense(self.data)

    def spmm(self, B: np.ndarray) -> np.ndarray:
        B = check_dense_operand(B, self.ncols)
        out_dtype = np.result_type(self.dtype, B.dtype, np.float32)
        return self.data.astype(out_dtype, copy=False) @ B.astype(out_dtype, copy=False)

    def _storage_arrays(self):
        return (self.data,)
