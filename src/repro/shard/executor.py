"""Execution of a sharded SpMM: ``C`` once on the host, every shard priced.

A plan serves ``C`` from ``A``'s CSR in its original order, whatever its
layout (see :meth:`repro.core.plan.ExecutionPlan.execute`).  So the host
result of a sharded multiply is just ``A @ B``: it is computed once, with
the parent matrix's cached operator, and no per-shard partial product is
gathered.  Each shard's plan then prices its submatrix against its
column range of ``B`` on the simulated device
(:meth:`~repro.core.plan.ExecutionPlan.price`).  A price depends only on
the plan and the width of ``B``, so each shard grid is priced once per
width and kept with its :class:`~repro.shard.partition.Partition`: a warm
sharded multiply costs its product plus lookups.  The speedups of sharding
are in simulated device time (per-shard tuning, the device-parallel
critical path).  The per-shard breakdown is reported as
:class:`ShardReport` rows inside a :class:`ShardedReport`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from ..kernels import PRICE_MEMO_SIZE
from ..obs.trace import NULL_TRACER
from .partition import Partition
from .plan import ShardPlanEntry

__all__ = ["ShardReport", "ShardedReport", "execute_partition"]


@dataclass
class ShardReport:
    """Per-shard breakdown of one sharded multiply."""

    index: int
    pos: Tuple[int, int]
    rows: Tuple[int, int]
    cols: Tuple[int, int]
    nnz: int
    #: execution backend of the shard's plan (``"-"`` for empty shards);
    #: per-shard tuning may pick different backends across one matrix
    backend: str
    #: chosen configuration, ``HxW/reorder`` (``"-"`` for empty shards)
    config: str
    #: non-zero BCSR blocks of the shard's plan
    blocks: int
    cache_hit: bool
    #: simulated device time of this shard's kernel run
    simulated_ms: float
    #: host wall-clock of getting this shard's price: ~0 when the
    #: partition already priced this grid at this width (its share of
    #: ``C`` is computed with the whole matrix, outside this time)
    wall_ms: float
    #: this shard's share of the total nnz, relative to a perfect split
    #: (1.0 = exactly nnz / n_shards)
    imbalance: float


@dataclass
class ShardedReport:
    """Aggregate report of one sharded multiply."""

    grid: Tuple[int, int]
    mode: str
    #: nnz imbalance factor of the partition (max shard / ideal shard)
    imbalance: float
    shards: List[ShardReport] = field(default_factory=list)
    #: host wall-clock of the whole sharded multiply (``C`` plus pricing)
    wall_ms: float = 0.0
    #: device-serial simulated time (sum over shards)
    simulated_ms: float = 0.0
    #: device-parallel critical path (slowest shard)
    critical_path_ms: float = 0.0

    @property
    def n_shards(self) -> int:
        """Number of shards that were executed."""
        return len(self.shards)

    @property
    def nnz(self) -> int:
        """Total non-zeros across all shards."""
        return sum(s.nnz for s in self.shards)

    @property
    def cache_hits(self) -> int:
        """Shards whose plan came from the cache (no rebuild)."""
        return sum(1 for s in self.shards if s.cache_hit)

    @property
    def backends(self) -> List[str]:
        """Distinct execution backends across the shards (sorted).

        More than one entry means per-shard tuning selected a
        heterogeneous backend mix for this matrix."""
        return sorted({s.backend for s in self.shards if s.backend != "-"})

    def table(self) -> List[dict]:
        """Shard-table rows for the CLI / examples."""
        return [
            {
                "shard": f"{s.index} {s.pos[0]},{s.pos[1]}",
                "rows": f"{s.rows[0]}:{s.rows[1]}",
                "cols": f"{s.cols[0]}:{s.cols[1]}",
                "nnz": s.nnz,
                "imbalance": s.imbalance,
                "backend": s.backend,
                "config": s.config,
                "blocks": s.blocks,
                "sim_ms": s.simulated_ms,
                "wall_ms": s.wall_ms,
                "cached": s.cache_hit,
            }
            for s in self.shards
        ]


def _shard_report(
    entry: ShardPlanEntry, ideal_nnz: float, price: Tuple[float, int], wall_ms: float
) -> ShardReport:
    shard = entry.shard
    simulated_ms, blocks = price
    return ShardReport(
        index=shard.index,
        pos=shard.pos,
        rows=(shard.row_start, shard.row_stop),
        cols=(shard.col_start, shard.col_stop),
        nnz=shard.nnz,
        backend=entry.backend,
        config=entry.config_label,
        blocks=blocks,
        cache_hit=entry.cache_hit,
        simulated_ms=simulated_ms,
        wall_ms=wall_ms,
        imbalance=shard.nnz / ideal_nnz if ideal_nnz > 0 else 1.0,
    )


def _remember_prices(partition: Partition, key: Tuple, prices: Tuple) -> None:
    with partition.prices_lock:
        memo = partition.prices
        if key not in memo and len(memo) >= PRICE_MEMO_SIZE:
            del memo[next(iter(memo))]
        memo[key] = prices


def execute_partition(
    partition: Partition,
    entries: Sequence[ShardPlanEntry],
    B: np.ndarray,
    *,
    tracer=None,
) -> Tuple[np.ndarray, ShardedReport]:
    """Compute ``C = A @ B`` and price every shard against ``B``.

    ``entries`` must correspond one-to-one (and in order) to
    ``partition.shards``.  Each shard's ``(simulated_ms, blocks)`` is
    kept in ``partition.prices`` under the shard plans themselves and the
    width of ``B`` (up to :data:`~repro.kernels.PRICE_MEMO_SIZE` keys), so
    a grid is priced once per width and a plan rebuilt after an eviction
    is priced again.  ``tracer`` (a :class:`repro.obs.Tracer`) records one
    ``shard.run`` span per non-empty shard, nested under the caller's
    current span.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    A = partition.A
    B_arr = np.asarray(B)
    if B_arr.ndim not in (1, 2) or B_arr.shape[0] != A.ncols:
        raise ValueError(
            f"operand B must have {A.ncols} rows to match A {A.shape}, got {B_arr.shape}"
        )
    if len(entries) != len(partition.shards):
        raise ValueError("one ShardPlanEntry per shard expected")

    ideal_nnz = A.nnz / len(partition.shards) if partition.shards else 0.0
    start = time.perf_counter()
    C = A.spmm(B_arr)
    n_cols = C.shape[1]
    key = (tuple(entry.plan for entry in entries), n_cols)
    memo = partition.prices.get(key)
    reports = []
    for i, entry in enumerate(entries):
        if entry.plan is None:  # empty shard: contributes nothing
            price, shard_ms = (0.0, 0), 0.0
        else:
            with tracer.span("shard.run", shard=entry.shard.index, backend=entry.backend) as span:
                shard_start = time.perf_counter()
                if memo is None:
                    report = entry.plan.price(n_cols)
                    price = (report.simulated_ms, report.n_blocks)
                else:
                    price = memo[i]
                shard_ms = 1e3 * (time.perf_counter() - shard_start)
                span.set(nnz=entry.shard.nnz, wall_ms=round(shard_ms, 3))
        reports.append(_shard_report(entry, ideal_nnz, price, shard_ms))
    if memo is None:
        _remember_prices(partition, key, tuple((r.simulated_ms, r.blocks) for r in reports))
    wall_ms = 1e3 * (time.perf_counter() - start)

    if B_arr.ndim == 1:
        C = C.ravel()
    return C, ShardedReport(
        grid=partition.grid,
        mode=partition.mode,
        imbalance=partition.imbalance,
        shards=reports,
        wall_ms=wall_ms,
        simulated_ms=sum(r.simulated_ms for r in reports),
        critical_path_ms=max((r.simulated_ms for r in reports), default=0.0),
    )
