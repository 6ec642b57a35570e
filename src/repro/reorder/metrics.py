"""Blocking metrics used to evaluate reordering quality.

The paper's preprocessing step is judged by two quantities (Section VI-A,
Figure 3):

* the total number of non-zero BCSR blocks ``n_e`` (fewer blocks = fewer
  Tensor-Core MMA operations, Eq. 1), and
* the *distribution* of blocks per block-row -- its standard deviation /
  coefficient of variation determines the load balance of SMaT's static
  2-D parallel schedule.

The helpers below compute these metrics directly from a CSR matrix and a
candidate permutation *without* materialising the BCSR blocks, so that
reordering heuristics can evaluate many candidate orderings cheaply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from ..formats import CSRMatrix
from ..formats.base import run_starts

__all__ = [
    "BlockingStats",
    "block_coordinates",
    "count_blocks",
    "blocks_per_block_row",
    "blocking_stats",
    "blocking_stats_many",
    "block_row_support",
]


@dataclass(frozen=True)
class BlockingStats:
    """Summary of the blocking produced by a (possibly permuted) matrix."""

    n_blocks: int
    n_block_rows: int
    mean_blocks_per_row: float
    std_blocks_per_row: float
    max_blocks_per_row: int
    padding_zeros: int
    fill_in_ratio: float

    @classmethod
    def from_counts(
        cls, blocks_per_row: np.ndarray, nnz: int, block_shape: Tuple[int, int]
    ) -> "BlockingStats":
        """The summary of a blocking given its non-zero blocks per block row
        (see :func:`blocks_per_block_row`) and the matrix's stored entries."""
        bpr = blocks_per_row
        n_blocks = int(bpr.sum())
        stored = n_blocks * int(block_shape[0]) * int(block_shape[1])
        return cls(
            n_blocks=n_blocks,
            n_block_rows=int(bpr.size),
            mean_blocks_per_row=float(bpr.mean()) if bpr.size else 0.0,
            std_blocks_per_row=float(bpr.std()) if bpr.size else 0.0,
            max_blocks_per_row=int(bpr.max()) if bpr.size else 0,
            padding_zeros=stored - nnz,
            fill_in_ratio=(stored / nnz) if nnz else 0.0,
        )

    @property
    def cv(self) -> float:
        """Coefficient of variation of the blocks-per-row distribution."""
        if not self.mean_blocks_per_row:
            return 0.0
        return self.std_blocks_per_row / self.mean_blocks_per_row


def _inverse(perm: Optional[np.ndarray], n: int) -> np.ndarray:
    """Where each original index lands under a "new -> old" permutation
    (the identity for ``None``)."""
    where = np.arange(n, dtype=np.int64)
    if perm is None:
        return where
    inv = np.empty(n, dtype=np.int64)
    inv[np.asarray(perm, dtype=np.int64)] = where
    return inv


def _unique_sorted(ids: np.ndarray) -> np.ndarray:
    """The distinct values of the ascending ``ids``.  ``np.compress``
    gathers them several times faster than a boolean index, at the cost of
    an index array as long as the result."""
    return np.compress(run_starts(ids), ids)


def block_coordinates(
    csr: CSRMatrix,
    block_shape: Tuple[int, int],
    *,
    row_perm: Optional[np.ndarray] = None,
    col_perm: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Unique linear block ids touched by the (permuted) matrix, sorted.

    The linear id of block ``(I, J)`` is ``I * n_block_cols + J``.  The
    count runs in two stages:

    1. the ``row * n_block_cols + J`` ids of the non-zeros, built in CSR
       order, are the (row, block-column) pattern once deduplicated.  For
       a canonical CSR they are already nondecreasing, so they are sorted
       only when they descend (unsorted or permuted columns);
    2. unless the blocks are one row high and the rows unpermuted, each
       pattern entry is mapped to its block row and the result sorted:
       a sort over the pattern, which is several times shorter than the
       non-zeros.

    With ``w == 1`` the pattern is the non-zeros themselves, so the ids
    are built at block-row granularity in one array instead, and
    deduplicated with a boolean index: a second nnz-long stage or index
    array would raise the memory peak.
    """
    h, w = int(block_shape[0]), int(block_shape[1])
    n_block_cols = -(-csr.ncols // w) if csr.ncols else 0
    # block row of each original row, times the row stride of the ids
    row_base = _inverse(row_perm, csr.nrows) // h * n_block_cols
    two_stage = w > 1 and (h > 1 or row_perm is not None)
    row_ids = np.arange(csr.nrows, dtype=np.int64) * n_block_cols if two_stage else row_base
    ids = np.repeat(row_ids, np.diff(csr.rowptr))
    if col_perm is None:
        ids += csr.col // w
    else:
        ids += (_inverse(col_perm, csr.ncols) // w)[csr.col]
    if ids.size > 1 and (ids[1:] < ids[:-1]).any():
        ids.sort()
    if w == 1:
        return ids[run_starts(ids)]
    pattern = _unique_sorted(ids)
    del ids  # the nnz-long ids go before the pattern-long stage
    if not two_stage:
        return pattern
    rows, bcols = np.divmod(pattern, n_block_cols)
    del pattern
    ids = row_base[rows]
    del rows
    ids += bcols
    ids.sort()
    return _unique_sorted(ids)


def count_blocks(
    csr: CSRMatrix,
    block_shape: Tuple[int, int],
    *,
    row_perm: Optional[np.ndarray] = None,
    col_perm: Optional[np.ndarray] = None,
) -> int:
    """Number of non-zero BCSR blocks of the (permuted) matrix."""
    if row_perm is None and col_perm is None:
        return blocking_stats(csr, block_shape).n_blocks
    return int(block_coordinates(csr, block_shape, row_perm=row_perm, col_perm=col_perm).size)


def blocks_per_block_row(
    csr: CSRMatrix,
    block_shape: Tuple[int, int],
    *,
    row_perm: Optional[np.ndarray] = None,
    col_perm: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Number of non-zero blocks in each block row of the (permuted) matrix.

    The unpermuted counts are memoised on ``csr`` per block shape (see
    :func:`_unpermuted_counts`) and returned read-only.
    """
    h, w = int(block_shape[0]), int(block_shape[1])
    if row_perm is None and col_perm is None:
        return _unpermuted_counts(csr, [(h, w)])[(h, w)]
    n_block_rows = -(-csr.nrows // h) if csr.nrows else 0
    n_block_cols = -(-csr.ncols // w) if csr.ncols else 0
    ids = block_coordinates(csr, block_shape, row_perm=row_perm, col_perm=col_perm)
    brows = ids // n_block_cols if n_block_cols else ids
    return np.bincount(brows, minlength=n_block_rows)


def _memo(csr: CSRMatrix, name: str) -> dict:
    """A per-shape memo kept on ``csr``.  Like
    :func:`~repro.formats.csr.matrix_fingerprint`, the memos treat the
    matrix arrays as immutable once constructed."""
    memo = getattr(csr, name, None)
    if memo is None:
        memo = {}
        setattr(csr, name, memo)
    return memo


def _unpermuted_counts(
    csr: CSRMatrix, shapes: Iterable[Tuple[int, int]]
) -> Dict[Tuple[int, int], np.ndarray]:
    """The memo of ``csr``'s unpermuted blocks per block row, per block
    shape, filled for every shape of ``shapes`` that it lacks.

    The missing shapes share one :func:`block_coordinates` pass at their
    gcd shape ``(g, k)``.  Block ``(I, J)`` of that blocking lies in block
    ``(I // a, J // b)`` of an ``(a*g, b*k)`` blocking, so each shape's
    unique ids are the gcd ids coarsened, re-sorted only when ``a > 1``
    (with ``a == 1`` the coarsened ids stay in order).
    """
    memo = _memo(csr, "_blocks_per_row")
    todo = [s for s in dict.fromkeys(shapes) if s not in memo]
    if not todo:
        return memo
    g = math.gcd(*(h for h, _ in todo))
    k = math.gcd(*(w for _, w in todo))
    fine = block_coordinates(csr, (g, k))
    fine_rows = fine_cols = None
    for h, w in todo:
        a, b = h // g, w // k
        n_block_cols = max(1, -(-csr.ncols // w))
        if a == b == 1:
            ids = fine
        else:
            if fine_rows is None:
                fine_rows, fine_cols = np.divmod(fine, max(1, -(-csr.ncols // k)))
            ids = (fine_rows // a) * n_block_cols + fine_cols // b
            if a > 1:
                ids.sort()
            ids = _unique_sorted(ids)
        bpr = np.bincount(ids // n_block_cols, minlength=-(-csr.nrows // h))
        bpr.setflags(write=False)
        memo[(h, w)] = bpr
    return memo


def blocking_stats_many(
    csr: CSRMatrix, shapes: Iterable[Tuple[int, int]]
) -> Dict[Tuple[int, int], BlockingStats]:
    """Unpermuted :func:`blocking_stats` of every block shape in ``shapes``,
    from one block-counting pass over the non-zeros (see
    :func:`_unpermuted_counts`); the tuner counts its whole block-shape
    menu with it.  Memoised on ``csr`` per block shape."""
    shapes = [(int(h), int(w)) for h, w in shapes]
    counts = _unpermuted_counts(csr, shapes)
    memo = _memo(csr, "_blocking_stats")
    for shape in shapes:
        if shape not in memo:
            memo[shape] = BlockingStats.from_counts(counts[shape], csr.nnz, shape)
    return {shape: memo[shape] for shape in shapes}


def blocking_stats(
    csr: CSRMatrix,
    block_shape: Tuple[int, int],
    *,
    row_perm: Optional[np.ndarray] = None,
    col_perm: Optional[np.ndarray] = None,
) -> BlockingStats:
    """Full blocking summary (block count, distribution, padding) of the
    (permuted) matrix.

    The unpermuted summary is memoised on ``csr`` per block shape (see
    :func:`blocking_stats_many`): the tuner's block-count pass and every
    candidate's "before" stats read the same one.
    """
    h, w = int(block_shape[0]), int(block_shape[1])
    if row_perm is None and col_perm is None:
        return blocking_stats_many(csr, [(h, w)])[(h, w)]
    bpr = blocks_per_block_row(csr, block_shape, row_perm=row_perm, col_perm=col_perm)
    return BlockingStats.from_counts(bpr, csr.nnz, (h, w))


def block_row_support(csr: CSRMatrix, block_width: int) -> list[np.ndarray]:
    """Per-row block-column support sets.

    Returns a list of sorted arrays: entry ``i`` holds the distinct block
    columns (``col // block_width``) touched by row ``i``.  This is the
    representation on which the similarity-based reordering heuristics
    (Jaccard, Saad) operate.
    """
    w = int(block_width)
    supports: list[np.ndarray] = []
    for i in range(csr.nrows):
        lo, hi = int(csr.rowptr[i]), int(csr.rowptr[i + 1])
        if hi == lo:
            supports.append(np.empty(0, dtype=np.int64))
        else:
            supports.append(np.unique(csr.col[lo:hi] // w).astype(np.int64))
    return supports
