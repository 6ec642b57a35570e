"""Reordering interfaces.

A *reorderer* computes a row permutation (and optionally a column
permutation) of a sparse matrix that reduces the number of non-zero BCSR
blocks.  The paper evaluates several published heuristics (Section IV-C)
and adopts Jaccard-similarity row clustering (Sylos Labini et al.) as
SMaT's default; it also evaluates row+column permutation and rejects it.

Conventions
-----------
Permutations follow the "new position -> old index" convention used by
:meth:`repro.formats.csr.CSRMatrix.permute_rows`: the permuted matrix's
row ``i`` is the original row ``perm[i]`` (``A' = P A``).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Type

import numpy as np

from ..formats import CSRMatrix
from .metrics import BlockingStats, blocking_stats, blocks_per_block_row

__all__ = [
    "ReorderResult",
    "Reorderer",
    "register_reorderer",
    "get_reorderer",
    "available_reorderers",
    "identity_permutation",
]


def identity_permutation(n: int) -> np.ndarray:
    """The identity permutation of length ``n``."""
    return np.arange(n, dtype=np.int64)


@dataclass
class ReorderResult:
    """Outcome of a reordering pass.

    Attributes
    ----------
    row_perm, col_perm:
        Permutation vectors ("new -> old"); ``col_perm`` is ``None`` when
        only rows were permuted (SMaT's default).
    stats_before, stats_after:
        Blocking statistics of the matrix before/after applying the
        permutations, for the block shape the reorderer targeted.
    blocks_per_row:
        Non-zero blocks in each block row after the permutations, the
        counts ``stats_after`` summarises (``None`` without stats).
    algorithm:
        Name of the algorithm that produced the permutation.
    """

    row_perm: np.ndarray
    col_perm: Optional[np.ndarray] = None
    stats_before: Optional[BlockingStats] = None
    stats_after: Optional[BlockingStats] = None
    blocks_per_row: Optional[np.ndarray] = None
    algorithm: str = "identity"
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def block_reduction(self) -> float:
        """Block-count reduction factor (``>1`` means the reordering helped)."""
        if not self.stats_before or not self.stats_after or not self.stats_after.n_blocks:
            return 1.0
        return self.stats_before.n_blocks / self.stats_after.n_blocks

    def apply(self, csr: CSRMatrix) -> CSRMatrix:
        """Apply the stored permutations to a CSR matrix."""
        out = csr.permute_rows(self.row_perm)
        if self.col_perm is not None:
            out = out.permute_cols(self.col_perm)
        return out


class Reorderer(abc.ABC):
    """Base class of all reordering heuristics.

    Parameters
    ----------
    block_shape:
        Target BCSR block shape ``(h, w)``; heuristics that operate at
        block-column granularity use ``w``, and the final evaluation of
        block counts uses both.
    permute_columns:
        Also compute a column permutation (the paper's "row+column"
        variant).  The default column strategy applies the same heuristic
        to the transposed matrix; subclasses may override
        :meth:`compute_col_perm`.
    """

    name: str = "abstract"

    def __init__(self, block_shape: Tuple[int, int] = (16, 8), *, permute_columns: bool = False):
        h, w = int(block_shape[0]), int(block_shape[1])
        if h <= 0 or w <= 0:
            raise ValueError("block dimensions must be positive")
        self.block_shape = (h, w)
        self.permute_columns = bool(permute_columns)

    # -- to be implemented by subclasses -------------------------------------
    @abc.abstractmethod
    def compute_row_perm(self, csr: CSRMatrix) -> np.ndarray:
        """Return the row permutation ("new -> old") for ``csr``."""

    def compute_col_perm(self, csr: CSRMatrix) -> np.ndarray:
        """Return a column permutation; by default, applies the row
        heuristic to the transposed matrix."""
        return self.compute_row_perm(csr.transpose())

    # -- public API --------------------------------------------------------------
    def reorder(self, csr: CSRMatrix, *, with_stats: bool = True) -> ReorderResult:
        """Compute permutations for ``csr`` and return a
        :class:`ReorderResult` (the matrix itself is not modified)."""
        row_perm = np.asarray(self.compute_row_perm(csr), dtype=np.int64)
        if row_perm.shape != (csr.nrows,):
            raise ValueError(
                f"{self.name}: row permutation has wrong length "
                f"{row_perm.shape} for {csr.nrows} rows"
            )
        col_perm = None
        if self.permute_columns:
            col_perm = np.asarray(self.compute_col_perm(csr), dtype=np.int64)

        stats_before = stats_after = bpr = None
        if with_stats:
            stats_before = blocking_stats(csr, self.block_shape)
            bpr = blocks_per_block_row(
                csr, self.block_shape, row_perm=row_perm, col_perm=col_perm
            )
            stats_after = BlockingStats.from_counts(bpr, csr.nnz, self.block_shape)
        return ReorderResult(
            row_perm=row_perm,
            col_perm=col_perm,
            stats_before=stats_before,
            stats_after=stats_after,
            blocks_per_row=bpr,
            algorithm=self.name + ("+column" if self.permute_columns else ""),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} block_shape={self.block_shape} "
            f"columns={self.permute_columns}>"
        )


# -- registry -------------------------------------------------------------------
_REORDERERS: Dict[str, Type[Reorderer]] = {}


def register_reorderer(name: str, cls: Type[Reorderer]) -> None:
    """Register a reorderer class under ``name`` (used by config strings)."""
    _REORDERERS[name.lower()] = cls


def get_reorderer(name: str, **kwargs) -> Reorderer:
    """Instantiate a registered reorderer by name.

    Known names include ``"identity"``, ``"jaccard"``, ``"rcm"``,
    ``"saad"``, ``"graycode"`` and ``"hypergraph"``.
    """
    key = name.lower()
    if key not in _REORDERERS:
        raise ValueError(
            f"unknown reorderer {name!r}; available: {sorted(_REORDERERS)}"
        )
    return _REORDERERS[key](**kwargs)


def available_reorderers() -> list[str]:
    """Names of all registered reordering algorithms."""
    return sorted(_REORDERERS)
