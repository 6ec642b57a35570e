"""Common base class and helpers for sparse-matrix storage formats.

The SMaT paper (SC'24) operates on a sparse matrix ``A`` of shape
``(M, K)`` multiplied by a dense matrix ``B`` of shape ``(K, N)``.  The
library internally converts between several storage formats:

* ``COO``     -- coordinate triples, the interchange format,
* ``CSR``     -- compressed sparse rows, the paper's *input* format,
* ``CSC``     -- compressed sparse columns (used by column reordering),
* ``BCSR``    -- blocked CSR, the paper's *internal execution* format,
* ``SRBCRS``  -- strided row-major blocked CRS, Magicube's format,
* ``Dense``   -- a thin wrapper used by the cuBLAS-like baseline.

Every format subclasses :class:`SparseFormat` and provides conversions to
and from :class:`~repro.formats.coo.COOMatrix`; generic conversions are
routed through COO by :mod:`repro.formats.conversions`.

Index arrays use ``int32`` by default (mirroring what the CUDA kernels in
the paper use) but are transparently widened to ``int64`` when a dimension
or the number of non-zeros does not fit.
"""

from __future__ import annotations

import abc
from typing import Tuple

import numpy as np

__all__ = [
    "SparseFormat",
    "index_dtype_for",
    "check_shape",
    "check_dense_operand",
    "as_value_dtype",
    "DEFAULT_VALUE_DTYPE",
]

#: Default dtype of stored values.  The paper's kernels run FP16 inputs with
#: FP16/FP32 accumulation; for CPU-side numerics we keep values in float32
#: by default (the simulated precision is tracked separately by
#: :mod:`repro.gpu.precision`).
DEFAULT_VALUE_DTYPE = np.float32

_INT32_MAX = np.iinfo(np.int32).max


def index_dtype_for(*extents: int) -> np.dtype:
    """Return the narrowest index dtype able to address all ``extents``.

    Parameters
    ----------
    extents:
        Any number of non-negative integers (matrix dimensions, nnz, block
        counts, ...).

    Returns
    -------
    numpy.dtype
        ``int32`` when every extent fits in a signed 32-bit integer,
        otherwise ``int64``.
    """
    for extent in extents:
        if extent > _INT32_MAX:
            return np.dtype(np.int64)
    return np.dtype(np.int32)


def check_shape(shape: Tuple[int, int]) -> Tuple[int, int]:
    """Validate a 2-D matrix shape and return it as a tuple of ints."""
    if len(shape) != 2:
        raise ValueError(f"expected a 2-D shape, got {shape!r}")
    rows, cols = int(shape[0]), int(shape[1])
    if rows < 0 or cols < 0:
        raise ValueError(f"shape dimensions must be non-negative, got {shape!r}")
    return rows, cols


def as_value_dtype(dtype) -> np.dtype:
    """Validate that ``dtype`` is a real floating or integer value type."""
    dt = np.dtype(dtype)
    if dt.kind not in "fiu":
        raise TypeError(f"unsupported value dtype {dt!r}; expected float or int")
    return dt


def check_dense_operand(B: np.ndarray, K: int) -> np.ndarray:
    """Validate the dense right-hand side of an SpMM product.

    ``B`` must be a 1-D vector of length ``K`` (SpMV case, treated as a
    single column) or a 2-D array with ``K`` rows.  A C-contiguous float
    array is returned; 1-D inputs are reshaped to ``(K, 1)``.
    """
    B = np.asarray(B)
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    if B.ndim != 2:
        raise ValueError(f"dense operand must be 1-D or 2-D, got ndim={B.ndim}")
    if B.shape[0] != K:
        raise ValueError(
            f"dimension mismatch: sparse matrix has {K} columns, dense operand has "
            f"{B.shape[0]} rows"
        )
    if B.dtype.kind not in "fiu":
        raise TypeError(f"unsupported dense operand dtype {B.dtype!r}")
    return np.ascontiguousarray(B)


class SparseFormat(abc.ABC):
    """Abstract base class of every matrix storage format in the library.

    Subclasses store a (possibly sparse) matrix of logical shape
    ``self.shape`` and expose:

    * :attr:`nnz` -- number of explicitly stored non-zero *logical* entries,
    * :meth:`to_dense` -- materialise a dense ``numpy.ndarray``,
    * :meth:`to_coo` / :meth:`from_coo` -- conversions through the COO
      interchange format,
    * :meth:`spmm` -- the host (NumPy/scipy) product computed from the
      format's own storage; the kernel classes in :mod:`repro.kernels`
      return it as their result and add the simulated GPU execution.
    """

    #: short lowercase name of the format ("csr", "bcsr", ...)
    format_name: str = "abstract"

    def __init__(self, shape: Tuple[int, int], dtype=DEFAULT_VALUE_DTYPE):
        self._shape = check_shape(shape)
        self._dtype = as_value_dtype(dtype)

    # -- basic properties --------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        """Logical ``(rows, cols)`` of the matrix."""
        return self._shape

    @property
    def nrows(self) -> int:
        return self._shape[0]

    @property
    def ncols(self) -> int:
        return self._shape[1]

    @property
    def dtype(self) -> np.dtype:
        """Dtype of the stored values."""
        return self._dtype

    @property
    @abc.abstractmethod
    def nnz(self) -> int:
        """Number of logically non-zero entries stored in the matrix."""

    @property
    def density(self) -> float:
        """Fraction of non-zero entries, ``nnz / (rows * cols)``."""
        total = self.nrows * self.ncols
        return (self.nnz / total) if total else 0.0

    @property
    def sparsity(self) -> float:
        """Fraction of zero entries, ``1 - density`` (as used in the paper)."""
        return 1.0 - self.density

    # -- conversions -------------------------------------------------------
    @abc.abstractmethod
    def to_dense(self) -> np.ndarray:
        """Return the matrix as a dense 2-D :class:`numpy.ndarray`."""

    @abc.abstractmethod
    def to_coo(self):
        """Return an equivalent :class:`repro.formats.coo.COOMatrix`."""

    # -- host numerics ------------------------------------------------------
    @abc.abstractmethod
    def spmm(self, B: np.ndarray) -> np.ndarray:
        """Host (NumPy/scipy) sparse @ dense product, of dtype
        ``np.result_type(A.dtype, B.dtype, np.float32)``.

        This is *functional* only -- GPU cost modelling lives in
        :mod:`repro.kernels`.
        """

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """Reference sparse matrix--vector product (``N = 1`` SpMM)."""
        x = np.asarray(x)
        if x.ndim != 1:
            raise ValueError("spmv expects a 1-D vector; use spmm for matrices")
        return self.spmm(x.reshape(-1, 1)).ravel()

    # -- misc ----------------------------------------------------------------
    def memory_footprint_bytes(self) -> int:
        """Total bytes of all stored arrays (index + value storage)."""
        total = 0
        for arr in self._storage_arrays():
            total += int(np.asarray(arr).nbytes)
        return total

    def _storage_arrays(self):
        """Yield the ndarrays used for storage (override in subclasses)."""
        return ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} shape={self.shape} nnz={self.nnz} "
            f"dtype={self.dtype} sparsity={self.sparsity:.4f}>"
        )
