"""Jaccard-similarity row clustering (Sylos Labini et al.) -- SMaT's default.

Paper Section IV-C: rows are clustered greedily; two rows belong to the
same cluster when their Jaccard *distance*

    J(v, w) = 1 - |v ∩ w| / |v ∪ w|

(computed on the block-column support sets) is below a threshold.  Rows of
a cluster are placed consecutively in the permuted matrix, so non-zeros of
similar rows share BCSR blocks and the total block count drops.

The implementation clusters at block-column granularity (``w`` of the
target block shape), which is both cheaper and directly minimises the
quantity that matters (the number of blocks).
"""

from __future__ import annotations

import numpy as np

from ..formats import CSRMatrix
from ._clustering import RowPatterns, greedy_cluster_rows
from .base import Reorderer

__all__ = ["JaccardReorderer", "jaccard_distance"]


def jaccard_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Jaccard distance between two sorted index sets (utility/tests)."""
    if a.size == 0 and b.size == 0:
        return 0.0
    inter = np.intersect1d(a, b, assume_unique=True).size
    union = a.size + b.size - inter
    return 1.0 - inter / union if union else 0.0


class JaccardReorderer(Reorderer):
    """Greedy Jaccard row clustering.

    Parameters
    ----------
    block_shape:
        Target BCSR block shape; the block width sets the granularity of
        the row support sets.
    threshold:
        Maximum Jaccard *distance* for a row to join a cluster (the paper
        formulates the test as ``dist(w, pc) < threshold``).  ``0.0``
        merges only identical patterns; ``1.0`` merges everything that
        shares a single block column.
    max_cluster_size:
        Optional cap on cluster size; ``None`` (default) leaves clusters
        unbounded as in the original algorithm.
    permute_columns:
        Also compute a column permutation by clustering the transposed
        matrix (the paper's "row+column" variant).
    """

    name = "jaccard"

    def __init__(
        self,
        block_shape=(16, 8),
        *,
        threshold: float = 0.6,
        max_cluster_size: int | None = None,
        permute_columns: bool = False,
    ):
        super().__init__(block_shape, permute_columns=permute_columns)
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        self.threshold = float(threshold)
        self.max_cluster_size = max_cluster_size

    def compute_row_perm(self, csr: CSRMatrix) -> np.ndarray:
        _, w = self.block_shape
        patterns = RowPatterns.from_csr(csr, w)

        def similarity(inter, cand_sizes, seed_size):
            # similarity = 1 - distance; compare against 1 - threshold.  The
            # union is >= 1: the seed's pattern is non-empty
            return inter / (cand_sizes + seed_size - inter)

        clusters = greedy_cluster_rows(
            patterns,
            similarity,
            threshold=1.0 - self.threshold,
            max_cluster_size=self.max_cluster_size,
        )
        if clusters:
            return np.concatenate(clusters)
        return np.arange(csr.nrows, dtype=np.int64)

    def compute_col_perm(self, csr: CSRMatrix) -> np.ndarray:
        # cluster columns by their row-support similarity at block-row
        # granularity (h), i.e. apply the row algorithm to A^T with the
        # transposed block shape.
        h, w = self.block_shape
        transposed = JaccardReorderer(
            (w, h),
            threshold=self.threshold,
            max_cluster_size=self.max_cluster_size,
        )
        return transposed.compute_row_perm(csr.transpose())
