"""Saad's similarity-based row grouping.

Saad (2001, "Finding exact and approximate block structures for ILU
preconditioning") groups rows whose sparsity patterns have a large cosine
similarity; the paper lists it among the candidate preprocessing schemes
(Section IV-C).  We implement the angle/cosine variant on block-column
support sets: rows ``v`` and ``w`` are grouped when

    cos(v, w) = |v ∩ w| / sqrt(|v| * |w|)  >=  tau.

The greedy driver is shared with the Jaccard reorderer
(:mod:`repro.reorder._clustering`); only the similarity function differs.
"""

from __future__ import annotations

import numpy as np

from ..formats import CSRMatrix
from ._clustering import RowPatterns, greedy_cluster_rows
from .base import Reorderer

__all__ = ["SaadReorderer", "cosine_similarity"]


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity between two sorted index sets (utility/tests)."""
    if a.size == 0 or b.size == 0:
        return 0.0
    inter = np.intersect1d(a, b, assume_unique=True).size
    return inter / float(np.sqrt(a.size * b.size))


class SaadReorderer(Reorderer):
    """Greedy cosine-similarity row grouping (Saad's algorithm).

    Parameters
    ----------
    tau:
        Minimum cosine similarity for a row to join a group (Saad's
        recommendation is around 0.7-0.8 for approximate block detection).
    """

    name = "saad"

    def __init__(
        self,
        block_shape=(16, 8),
        *,
        tau: float = 0.7,
        max_cluster_size: int | None = None,
        permute_columns: bool = False,
    ):
        super().__init__(block_shape, permute_columns=permute_columns)
        if not 0.0 <= tau <= 1.0:
            raise ValueError("tau must be in [0, 1]")
        self.tau = float(tau)
        self.max_cluster_size = max_cluster_size

    def compute_row_perm(self, csr: CSRMatrix) -> np.ndarray:
        _, w = self.block_shape
        patterns = RowPatterns.from_csr(csr, w)

        def similarity(inter, cand_sizes, seed_size):
            # both patterns are non-empty (a candidate shares a block
            # column with the seed), so the denominator is >= 1
            return inter / np.sqrt(cand_sizes * float(seed_size))

        clusters = greedy_cluster_rows(
            patterns,
            similarity,
            threshold=self.tau,
            max_cluster_size=self.max_cluster_size,
        )
        if clusters:
            return np.concatenate(clusters)
        return np.arange(csr.nrows, dtype=np.int64)
