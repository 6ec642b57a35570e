"""Reverse Cuthill--McKee (RCM) bandwidth-minimising reordering.

RCM (Cuthill & McKee 1969, reversed per George 1971) orders the vertices
of the matrix's adjacency graph by breadth-first search from a peripheral
low-degree vertex, visiting neighbours in increasing degree order, and
finally reverses the order.  The permutation concentrates non-zeros near
the diagonal, which also tends to pack them into fewer BCSR blocks --
this is one of the candidate preprocessing schemes the paper evaluates
(Section IV-C) before settling on Jaccard clustering.

The implementation is self-contained (no scipy.sparse.csgraph): the
symmetrised sparsity pattern is built explicitly and traversed with an
iterative BFS.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..formats import CSRMatrix
from ..formats.base import sort_unique
from .base import Reorderer

__all__ = ["RCMReorderer", "rcm_permutation"]


def _symmetrized_adjacency(csr: CSRMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Return (ptr, idx) adjacency of the pattern of ``A + A^T`` without
    self-loops.  Only valid for square matrices."""
    n = csr.nrows
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(csr.rowptr))
    cols = csr.col.astype(np.int64)
    src = np.concatenate([rows, cols])
    dst = np.concatenate([cols, rows])
    keep = src != dst
    src, dst = src[keep], dst[keep]
    if src.size:
        pairs = sort_unique(src * n + dst)
        src = pairs // n
        dst = pairs - src * n
    counts = np.bincount(src, minlength=n)
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr, dst


def rcm_permutation(csr: CSRMatrix) -> np.ndarray:
    """Compute the RCM permutation ("new -> old") of a square matrix."""
    if csr.nrows != csr.ncols:
        raise ValueError("RCM requires a square matrix")
    n = csr.nrows
    if n == 0:
        return np.empty(0, dtype=np.int64)
    ptr, adj = _symmetrized_adjacency(csr)
    degree = np.diff(ptr)

    visited = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    pos = 0

    # process components in order of increasing minimum degree
    candidates = np.argsort(degree, kind="stable")
    for start in candidates:
        if visited[start]:
            continue
        visited[start] = True
        queue = deque([int(start)])
        while queue:
            u = queue.popleft()
            order[pos] = u
            pos += 1
            nbrs = adj[ptr[u] : ptr[u + 1]]
            nbrs = nbrs[~visited[nbrs]]
            if nbrs.size:
                nbrs = nbrs[np.argsort(degree[nbrs], kind="stable")]
                visited[nbrs] = True
                queue.extend(int(v) for v in nbrs)
    assert pos == n
    return order[::-1].copy()


class RCMReorderer(Reorderer):
    """Reverse Cuthill--McKee reordering (row permutation; the same
    permutation is reused for columns in the "row+column" variant, which
    preserves symmetry of symmetric matrices)."""

    name = "rcm"

    def compute_row_perm(self, csr: CSRMatrix) -> np.ndarray:
        if csr.nrows == csr.ncols:
            return rcm_permutation(csr)
        # rectangular fall-back: order rows by mean column index (keeps the
        # BFS spirit of grouping rows with nearby supports)
        mean_col = np.full(csr.nrows, np.inf)
        for i in range(csr.nrows):
            cols = csr.row_indices(i)
            if cols.size:
                mean_col[i] = float(cols.mean())
        return np.argsort(mean_col, kind="stable").astype(np.int64)

    def compute_col_perm(self, csr: CSRMatrix) -> np.ndarray:
        if csr.nrows == csr.ncols:
            return self.compute_row_perm(csr)
        return super().compute_col_perm(csr)
