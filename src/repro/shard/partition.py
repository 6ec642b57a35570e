"""nnz- and cost-balanced partitioning of a CSR matrix into shards.

The paper's pipeline prepares and executes *one* plan per matrix.  Its own
ablations show that the best block shape and reordering vary strongly with
sparsity structure -- which holds *within* one large matrix too.  The
partitioner splits a :class:`~repro.formats.csr.CSRMatrix` into contiguous
panels so every shard can get its own reordering, tuned block shape, and
:class:`~repro.core.plan.ExecutionPlan`:

* **1D row panels** -- ``grid = (r, 1)``: each shard owns a contiguous
  row range and the full column dimension.
* **2D grids** -- ``grid = (r, c)``: rows are split into ``r`` panels and
  each row panel is *independently* split into ``c`` column panels, so a
  cell's non-zero count stays close to ``nnz / (r*c)`` even when the
  matrix is banded or block-diagonal (a shared global column split would
  concentrate everything in the diagonal cells).  Each cell is priced
  against its column range of ``B``.

Two balancing modes:

* ``"nnz"`` -- the greedy prefix-sum split over per-row non-zero counts;
* ``"cost"`` -- a cost-model-guided split that equalises *predicted shard
  runtime* using the paper's Eq. 1 linear model
  (:mod:`repro.core.perfmodel` via the tuner's calibration): the per-row
  weight is the row's share of non-zero BCSR blocks, which is what the
  kernel actually pays for, not its raw non-zero count.

Shard boundaries are aligned to the BCSR block shape of the target
configuration so no shard splits a block row (or block column) of its own
blocking.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.config import SMaTConfig
from ..formats import CSRMatrix

__all__ = [
    "Shard",
    "Partition",
    "parse_grid",
    "partition_rows",
    "partition_grid",
    "make_partition",
]

#: balancing modes accepted by the partitioner
PARTITION_MODES = ("nnz", "cost")


def parse_grid(grid: Union[int, str, Sequence[int], Tuple[int, int]]) -> Tuple[int, int]:
    """Normalise a grid specification to ``(row_panels, col_panels)``.

    Accepts an integer ``r`` (``r`` row panels), a string ``"r"`` or
    ``"rxc"`` (as taken by the CLI, e.g. ``"2x2"``), or a pair.
    """
    if isinstance(grid, str):
        text = grid.strip().lower()
        parts = text.split("x")
        try:
            dims = [int(p) for p in parts]
        except ValueError:
            raise ValueError(f"invalid grid specification {grid!r}; use 'R' or 'RxC'") from None
        if len(dims) == 1:
            dims.append(1)
        if len(dims) != 2:
            raise ValueError(f"invalid grid specification {grid!r}; use 'R' or 'RxC'")
        r, c = dims
    elif isinstance(grid, (int, np.integer)):
        r, c = int(grid), 1
    else:
        try:
            r, c = (int(grid[0]), int(grid[1]))
        except (TypeError, IndexError, ValueError):
            raise ValueError(
                f"invalid grid specification {grid!r}; use an int, 'RxC', or a (rows, cols) pair"
            ) from None
    if r < 1 or c < 1:
        raise ValueError(f"grid dimensions must be >= 1, got {(r, c)}")
    return (r, c)


@dataclass(frozen=True)
class Shard:
    """One cell of a partition: a contiguous row x column panel of ``A``."""

    #: linear index, row-major over the grid
    index: int
    #: (row-panel, column-panel) grid position
    pos: Tuple[int, int]
    row_start: int
    row_stop: int
    col_start: int
    col_stop: int
    #: the extracted submatrix ``A[row_start:row_stop, col_start:col_stop]``
    matrix: CSRMatrix = field(repr=False)
    #: balance weight of the shard (non-zeros in ``"nnz"`` mode, predicted
    #: seconds in ``"cost"`` mode)
    weight: float = 0.0

    @property
    def nnz(self) -> int:
        """Non-zeros stored in this shard's submatrix."""
        return self.matrix.nnz

    @property
    def nrows(self) -> int:
        """Rows covered by this shard's panel."""
        return self.row_stop - self.row_start

    @property
    def ncols(self) -> int:
        """Columns covered by this shard's panel."""
        return self.col_stop - self.col_start

    @property
    def label(self) -> str:
        """Compact display name used by the CLI shard table."""
        return f"({self.pos[0]},{self.pos[1]})"

    @property
    def bounds(self) -> Tuple[int, int, int, int]:
        """Panel bounds ``(row_start, row_stop, col_start, col_stop)``."""
        return (self.row_start, self.row_stop, self.col_start, self.col_stop)


@dataclass
class Partition:
    """A full partition of one matrix into a grid of shards."""

    #: the partitioned matrix
    A: CSRMatrix
    #: (row_panels, col_panels)
    grid: Tuple[int, int]
    #: balancing mode: "nnz" or "cost"
    mode: str
    #: row-panel boundaries, length ``grid[0] + 1``
    row_bounds: np.ndarray
    #: per-row-panel column boundaries, shape ``(grid[0], grid[1] + 1)``
    col_bounds: np.ndarray
    #: shards in row-major grid order
    shards: List[Shard]
    #: unit of the shard weights ("nnz" or "s")
    weight_unit: str = "nnz"
    #: simulated ``(ms, blocks)`` of every shard, keyed on ``(shard plans,
    #: n_cols)``: filled by :func:`~repro.shard.executor.execute_partition`
    #: under ``prices_lock``, oldest entry dropped first
    prices: Dict[Tuple, Tuple[Tuple[float, int], ...]] = field(
        default_factory=dict, repr=False, compare=False
    )
    prices_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @property
    def n_shards(self) -> int:
        """Number of shards in the partition grid."""
        return len(self.shards)

    @property
    def nnz(self) -> int:
        """Non-zeros of the partitioned parent matrix."""
        return self.A.nnz

    @property
    def imbalance(self) -> float:
        """nnz imbalance factor: max shard nnz over the ideal (mean) shard
        nnz.  1.0 is a perfect split; the partitioner targets <= 1.25 on
        matrices without pathological single-row hot spots."""
        if not self.shards or self.A.nnz == 0:
            return 1.0
        mean = self.A.nnz / len(self.shards)
        return max(s.nnz for s in self.shards) / mean

    @property
    def weight_imbalance(self) -> float:
        """Imbalance of the balancing weight itself (predicted cost in
        ``"cost"`` mode); what the greedy split actually equalised."""
        if not self.shards:
            return 1.0
        total = sum(s.weight for s in self.shards)
        if total <= 0:
            return 1.0
        return max(s.weight for s in self.shards) * len(self.shards) / total

    def __iter__(self) -> Iterator[Shard]:
        return iter(self.shards)

    def __len__(self) -> int:
        return len(self.shards)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Partition {self.grid[0]}x{self.grid[1]} of {self.A.shape} "
            f"mode={self.mode!r} imbalance={self.imbalance:.3f}>"
        )


# -- balanced boundary search ------------------------------------------------------


def _balanced_bounds(weights: np.ndarray, parts: int, *, align: int = 1) -> np.ndarray:
    """Greedy prefix-sum split of ``weights`` into ``parts`` contiguous
    segments of near-equal weight, with boundaries rounded to multiples of
    ``align``.  Returns ``parts + 1`` non-decreasing boundaries; equal
    neighbours denote an (allowed) empty segment on degenerate inputs."""
    n = int(weights.size)
    if parts == 1 or n == 0:
        return np.array([0] + [n] * parts, dtype=np.int64)
    prefix = np.concatenate([[0.0], np.cumsum(weights, dtype=np.float64)])
    targets = prefix[-1] * np.arange(1, parts, dtype=np.float64) / parts
    cuts = np.searchsorted(prefix, targets, side="left")
    # searchsorted returns the first index at-or-above the target; the
    # index just below may be closer to it
    below = np.maximum(cuts - 1, 0)
    pick_below = np.abs(prefix[below] - targets) <= np.abs(prefix[np.minimum(cuts, n)] - targets)
    cuts = np.where(pick_below, below, cuts)
    if align > 1:
        cuts = np.round(cuts / align).astype(np.int64) * align
    bounds = np.concatenate([[0], cuts, [n]]).astype(np.int64)
    np.clip(bounds, 0, n, out=bounds)
    np.maximum.accumulate(bounds, out=bounds)
    return bounds


def _contiguous_submatrix(A: CSRMatrix, r0: int, r1: int, c0: int, c1: int) -> CSRMatrix:
    """Extract ``A[r0:r1, c0:c1]`` without per-row Python loops.

    Row slicing is pure pointer arithmetic on CSR; column slicing goes
    through :meth:`~repro.formats.csr.CSRMatrix.extract_cols`, whose
    contiguous ascending selection keeps the in-row order canonical.
    """
    lo, hi = int(A.rowptr[r0]), int(A.rowptr[r1])
    rowptr = A.rowptr[r0 : r1 + 1].astype(np.int64) - lo
    if c0 == 0 and c1 == A.ncols:
        return CSRMatrix(
            rowptr, A.col[lo:hi].copy(), A.val[lo:hi].copy(), (r1 - r0, c1 - c0), check=False
        )
    # transient full-width view of the row panel (no data copied)
    panel = CSRMatrix(rowptr, A.col[lo:hi], A.val[lo:hi], (r1 - r0, A.ncols), check=False)
    return panel.extract_cols(np.arange(c0, c1))


# -- balancing weights -------------------------------------------------------------


def _row_nnz_weights(A: CSRMatrix) -> np.ndarray:
    return np.diff(A.rowptr).astype(np.float64)


def _row_cost_weights(A: CSRMatrix, config: SMaTConfig, n_cols: int) -> np.ndarray:
    """Per-row predicted-cost weights from the Eq. 1 linear model.

    The kernel's runtime is linear in the number of non-zero BCSR blocks
    (``T = T_e * n_e + T_init``, :mod:`repro.core.perfmodel`), so a row's
    cost share is its block-row's block count spread over the block
    height -- a dense band row with few distinct column blocks is cheaper
    than a scattered row of equal nnz.  The fitted ``T_e`` scales the
    weights to seconds so shard weights read as predicted cost.
    """
    from ..reorder.metrics import blocks_per_block_row
    from ..tuner.model import calibrate

    h, _ = config.resolved_block_shape()
    bpr = blocks_per_block_row(A, config.resolved_block_shape()).astype(np.float64)
    weights = np.repeat(bpr / h, h)[: A.nrows]
    fit = calibrate(config, config.resolved_block_shape(), n_cols)
    return weights * fit.t_e


def _weights_for(A: CSRMatrix, mode: str, config: SMaTConfig, n_cols: int) -> np.ndarray:
    if mode == "nnz":
        return _row_nnz_weights(A)
    if mode == "cost":
        return _row_cost_weights(A, config, n_cols)
    raise ValueError(f"unknown partition mode {mode!r}; use one of {PARTITION_MODES}")


# -- public constructors -----------------------------------------------------------


def partition_rows(
    A: CSRMatrix,
    n_shards: int,
    *,
    mode: str = "nnz",
    config: Optional[SMaTConfig] = None,
    n_cols: int = 8,
) -> Partition:
    """Split ``A`` into ``n_shards`` balanced contiguous row panels."""
    return partition_grid(A, (n_shards, 1), mode=mode, config=config, n_cols=n_cols)


def partition_grid(
    A: CSRMatrix,
    grid: Union[int, str, Sequence[int], Tuple[int, int]],
    *,
    mode: str = "nnz",
    config: Optional[SMaTConfig] = None,
    n_cols: int = 8,
) -> Partition:
    """Split ``A`` into a balanced ``r x c`` grid of shards.

    Rows are split into ``r`` panels by the requested balancing mode;
    each row panel's columns are then split independently by that panel's
    per-column non-zero counts, so cell weights stay balanced even on
    banded and block-diagonal structure.
    """
    if not isinstance(A, CSRMatrix):
        raise TypeError("partitioning expects a repro.formats.CSRMatrix input")
    r, c = parse_grid(grid)
    cfg = (config or SMaTConfig()).validate()
    if mode not in PARTITION_MODES:
        raise ValueError(f"unknown partition mode {mode!r}; use one of {PARTITION_MODES}")
    h, w = cfg.resolved_block_shape()
    # align boundaries to whole block rows/columns unless the grid is too
    # fine for the matrix; empty panels are still possible on degenerate
    # (tiny or all-zero) inputs and are handled downstream
    row_align = h if r * h <= A.nrows else 1
    col_align = w if c * w <= A.ncols else 1

    row_weights = _weights_for(A, mode, cfg, n_cols)
    row_bounds = _balanced_bounds(row_weights, r, align=row_align)

    shards: List[Shard] = []
    col_bounds = np.zeros((r, c + 1), dtype=np.int64)
    for i in range(r):
        r0, r1 = int(row_bounds[i]), int(row_bounds[i + 1])
        if c == 1:
            bounds = np.array([0, A.ncols], dtype=np.int64)
        else:
            # column split of this row panel only: balanced by the panel's
            # own per-column non-zero counts, computed on a view of A's
            # entries (cost mode stays row-oriented; Eq. 1 has no
            # per-column term)
            lo, hi = int(A.rowptr[r0]), int(A.rowptr[r1])
            counts = np.bincount(A.col[lo:hi], minlength=A.ncols).astype(np.float64)
            bounds = _balanced_bounds(counts, c, align=col_align)
        col_bounds[i] = bounds
        for j in range(c):
            c0, c1 = int(bounds[j]), int(bounds[j + 1])
            sub = _contiguous_submatrix(A, r0, r1, c0, c1)
            weight = float(row_weights[r0:r1].sum() / c) if mode == "cost" else float(sub.nnz)
            shards.append(
                Shard(
                    index=len(shards),
                    pos=(i, j),
                    row_start=r0,
                    row_stop=r1,
                    col_start=c0,
                    col_stop=c1,
                    matrix=sub,
                    weight=weight,
                )
            )
    return Partition(
        A=A,
        grid=(r, c),
        mode=mode,
        row_bounds=row_bounds.astype(np.int64),
        col_bounds=col_bounds,
        shards=shards,
        weight_unit="s" if mode == "cost" else "nnz",
    )


def make_partition(
    A: CSRMatrix,
    grid: Union[int, str, Sequence[int], Tuple[int, int]],
    *,
    mode: str = "nnz",
    config: Optional[SMaTConfig] = None,
    n_cols: int = 8,
) -> Partition:
    """Partition ``A`` by a grid specification (int, ``"RxC"``, or pair)."""
    return partition_grid(A, grid, mode=mode, config=config, n_cols=n_cols)
