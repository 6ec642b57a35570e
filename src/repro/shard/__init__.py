"""Sharded SpMM: nnz-balanced partitioning with per-shard tuned plans.

The paper's pipeline prepares one plan per matrix; its own ablations show
the best block shape and reordering vary with sparsity structure, which
holds *within* one large matrix too.  This subsystem splits a matrix into
a balanced grid of shards, prepares (and caches) one
:class:`~repro.core.plan.ExecutionPlan` per shard -- each with its own
reordering and, through the tuner, its own block shape.  A multiply
computes ``C`` once with the whole matrix's operator and prices every
shard through its plan, in the calling thread:

* :mod:`~repro.shard.partition` -- greedy nnz-balanced and Eq.1
  cost-model-guided 1D row-panel / 2D grid partitions;
* :mod:`~repro.shard.plan` -- per-shard plans through the shared
  :class:`~repro.engine.cache.PlanCache` under derived, shard-aware
  fingerprint keys;
* :mod:`~repro.shard.executor` -- execution (``C`` once, every shard
  priced) with a per-shard :class:`ShardReport` breakdown;
* :class:`ShardedSpMM` -- the one-matrix facade (partition + preprocess
  once, multiply many), mirrored by
  :meth:`repro.engine.SpMMEngine.multiply_sharded` for serving workloads.

Quick start
-----------
>>> import numpy as np
>>> from repro.shard import ShardedSpMM
>>> from repro.matrices import band_matrix
>>> A = band_matrix(1024, 32)
>>> B = np.ones((1024, 8), dtype=np.float32)
>>> with ShardedSpMM(A, grid="2x2") as sharded:
...     C = sharded.multiply(B)
>>> C.shape
(1024, 8)
"""

from .executor import ShardedReport, ShardReport, execute_partition
from .facade import ShardedSpMM
from .partition import (
    Partition,
    Shard,
    make_partition,
    parse_grid,
    partition_grid,
    partition_rows,
)
from .plan import ShardPlanEntry, ShardPlanner, shard_fingerprint, shard_plan_key

__all__ = [
    "ShardedSpMM",
    "Partition",
    "Shard",
    "make_partition",
    "parse_grid",
    "partition_rows",
    "partition_grid",
    "ShardPlanner",
    "ShardPlanEntry",
    "shard_fingerprint",
    "shard_plan_key",
    "ShardReport",
    "ShardedReport",
    "execute_partition",
]
