"""Shared machinery for similarity-based row clustering.

Both Jaccard clustering (Sylos Labini et al., SMaT's default) and Saad's
similarity grouping follow the same greedy scheme:

1. pick an unclustered *seed* row,
2. compare every other unclustered row that shares at least one
   (block-)column with the seed's pattern,
3. merge all rows whose similarity passes a threshold into the seed's
   cluster,
4. repeat until every row is clustered.

They differ only in the similarity measure.  This module provides the row
pattern data structure (row -> block-column support, in CSR and CSC form)
and the greedy driver, both fully vectorised over candidate rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from ..formats import CSRMatrix
from ..formats.base import sort_unique
from .metrics import block_coordinates

__all__ = ["RowPatterns", "greedy_cluster_rows"]


@dataclass
class RowPatterns:
    """Block-column support patterns of every row of a matrix.

    Attributes
    ----------
    rowptr, bcol:
        CSR-like structure over (row, block-column) incidences with
        duplicate block columns removed.
    colptr, rows_of_col:
        The transposed (CSC-like) structure: for each block column, the
        rows whose pattern contains it.
    sizes:
        Per-row pattern size (number of distinct block columns).
    n_block_cols:
        Number of block columns of the matrix.
    """

    rowptr: np.ndarray
    bcol: np.ndarray
    colptr: np.ndarray
    rows_of_col: np.ndarray
    sizes: np.ndarray
    n_block_cols: int

    @property
    def nrows(self) -> int:
        return self.rowptr.size - 1

    def pattern(self, row: int) -> np.ndarray:
        """Sorted block-column support of ``row``."""
        return self.bcol[self.rowptr[row] : self.rowptr[row + 1]]

    @classmethod
    def from_csr(cls, csr: CSRMatrix, block_width: int) -> "RowPatterns":
        """Build the pattern structure from a CSR matrix at block-column
        granularity ``block_width``.

        The (row, block-column) pairs are the blocks of a ``(1, w)``
        blocking (:func:`~repro.reorder.metrics.block_coordinates`, which
        sorts nothing for a canonical CSR).  The transpose is scipy's
        CSR -> CSC conversion of the 0/1 pattern: a counting sort that
        lists the rows of each block column in ascending order.
        """
        w = int(block_width)
        n_block_cols = -(-csr.ncols // w) if csr.ncols else 0
        pairs = block_coordinates(csr, (1, w))
        u_rows, u_bcol = np.divmod(pairs, max(1, n_block_cols))

        sizes = np.bincount(u_rows, minlength=csr.nrows).astype(np.int64)
        rowptr = np.zeros(csr.nrows + 1, dtype=np.int64)
        np.cumsum(sizes, out=rowptr[1:])

        import scipy.sparse as sp

        ones = np.ones(pairs.size, dtype=np.int8)
        csc = sp.csr_array((ones, u_bcol, rowptr), shape=(csr.nrows, n_block_cols)).tocsc()

        return cls(
            rowptr=rowptr,
            bcol=u_bcol,
            colptr=csc.indptr.astype(np.int64, copy=False),
            rows_of_col=csc.indices.astype(np.int64, copy=False),
            sizes=sizes,
            n_block_cols=n_block_cols,
        )


def greedy_cluster_rows(
    patterns: RowPatterns,
    similarity: Callable[[np.ndarray, np.ndarray, int], np.ndarray],
    threshold: float,
    *,
    seed_order: np.ndarray | None = None,
    max_cluster_size: int | None = None,
) -> List[np.ndarray]:
    """Greedy single-pass row clustering.

    Parameters
    ----------
    patterns:
        Row pattern structure.
    similarity:
        ``similarity(inter, cand_sizes, seed_size) -> scores`` computing a
        similarity in ``[0, 1]`` for every candidate row given the
        intersection sizes with the seed pattern (vectorised).  It is
        called only with ``seed_size > 0`` and ``inter >= 1``: every
        candidate shares a block column with the seed.
    threshold:
        Minimum similarity for a row to join the seed's cluster.
    seed_order:
        Order in which unclustered rows are considered as seeds; defaults
        to decreasing pattern size (denser rows first), which mirrors the
        published heuristic and produces more stable clusters.
    max_cluster_size:
        Optional cap on cluster size (excess rows stay unclustered and can
        seed later clusters).

    Returns
    -------
    list of ndarray
        Clusters in creation order; each array lists the member rows,
        seed first.  Empty rows (no non-zeros) are gathered into a final
        cluster so they end up at the bottom of the permuted matrix.
    """
    n = patterns.nrows
    unclustered = np.ones(n, dtype=bool)
    clusters: List[np.ndarray] = []

    empty_rows = np.nonzero(patterns.sizes == 0)[0]
    unclustered[empty_rows] = False

    if seed_order is None:
        seed_order = np.argsort(-patterns.sizes, kind="stable")
    # plain-int pointers and float sizes, converted once for the loop
    rowptr, colptr = patterns.rowptr.tolist(), patterns.colptr.tolist()
    bcol, rows_of_col = patterns.bcol, patterns.rows_of_col
    sizes = patterns.sizes.astype(np.float64)
    for seed in np.asarray(seed_order).tolist():
        if not unclustered[seed]:
            continue
        unclustered[seed] = False
        # every unclustered seed has a non-empty pattern (empty rows were
        # clustered above); candidates are the unclustered rows sharing
        # >= 1 block column with it
        seed_pattern = bcol[rowptr[seed] : rowptr[seed + 1]].tolist()
        cand_all = np.concatenate([rows_of_col[colptr[c] : colptr[c + 1]] for c in seed_pattern])
        cand_all = cand_all.compress(unclustered[cand_all])
        if not cand_all.size:
            clusters.append(np.array([seed], dtype=np.int64))
            continue
        cand, inter = sort_unique(cand_all, return_counts=True)
        scores = similarity(inter.astype(np.float64), sizes[cand], len(seed_pattern))
        passed = scores >= threshold
        chosen = cand[passed]
        if max_cluster_size is not None and chosen.size > max_cluster_size - 1:
            # keep the most similar rows
            top = np.argsort(-scores[passed])[: max_cluster_size - 1]
            chosen = chosen[top]

        unclustered[chosen] = False
        clusters.append(np.concatenate(([seed], chosen)))

    if empty_rows.size:
        clusters.append(empty_rows.astype(np.int64))
    return clusters
