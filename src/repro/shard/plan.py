"""Per-shard execution plans through the shared plan cache.

Every shard of a :class:`~repro.shard.partition.Partition` gets its own
:class:`~repro.core.plan.ExecutionPlan` -- its own reordering pass, BCSR
blocking, and (optionally, through the tuner) its own block shape.  Plans
are built through the engine's :class:`~repro.engine.cache.PlanCache`, so
repeated sharded queries against the same matrix skip preprocessing
entirely, and concurrent sharded calls that build the same shard
deduplicate on the cache's per-key build lock.

Shard-aware fingerprint keys
----------------------------
Hashing every extracted submatrix would cost another O(nnz) pass per shard
per lookup.  A shard is fully determined by its parent's content hash plus
its panel bounds, so :func:`shard_fingerprint` derives the shard's
fingerprint from those and memoises it on the submatrix instance -- the
same ``_fingerprint`` slot :func:`~repro.core.plan.matrix_fingerprint`
uses.  Every downstream consumer (plan cache keys, tuning-cache keys) then
sees a cheap, shard-aware key with no re-hashing.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..core.config import SMaTConfig
from ..core.plan import (
    ExecutionPlan,
    build_with_fallback,
    config_signature,
    matrix_fingerprint,
)
from ..engine.cache import PlanCache
from .partition import Partition, Shard

__all__ = [
    "shard_fingerprint",
    "shard_plan_key",
    "plan_label",
    "ShardPlanEntry",
    "ShardPlanner",
]


def shard_fingerprint(parent_fingerprint: str, shard: Shard) -> str:
    """Content hash of one shard, derived from the parent matrix's
    fingerprint and the shard's panel bounds (no re-hashing of data)."""
    h = hashlib.blake2b(digest_size=16)
    h.update(parent_fingerprint.encode())
    h.update(np.asarray(shard.bounds, dtype=np.int64).tobytes())
    return h.hexdigest()


def ensure_shard_fingerprints(partition: Partition) -> None:
    """Assign the derived fingerprint to every shard submatrix (idempotent)."""
    parent = matrix_fingerprint(partition.A)
    for shard in partition.shards:
        if getattr(shard.matrix, "_fingerprint", None) is None:
            shard.matrix._fingerprint = shard_fingerprint(parent, shard)


def shard_plan_key(shard: Shard, config: SMaTConfig, *, tuned: bool = False) -> Tuple:
    """Plan-cache key of one shard's plan.

    Matches the engine's key layout (`matrix fingerprint x configuration
    signature`, with a ``"tuned"`` marker when the build resolves through
    the tuner) so shard plans share the cache with whole-matrix plans
    without colliding.
    """
    key = (matrix_fingerprint(shard.matrix), config_signature(config))
    return (key, "tuned") if tuned else key


def plan_label(plan: ExecutionPlan) -> str:
    """Compact description of a built plan: ``HxW/reorder`` for SMaT
    plans, the bare backend name (e.g. ``"cublas"``) otherwise -- block
    shape and reordering are inert for non-blocked backends."""
    backend = plan.report.backend
    if backend != "smat":
        return backend
    h, w = plan.report.block_shape
    return f"{h}x{w}/{plan.report.algorithm}"


@dataclass
class ShardPlanEntry:
    """One shard's prepared plan plus how it was obtained."""

    shard: Shard
    #: ``None`` for empty shards (nothing to execute)
    plan: Optional[ExecutionPlan]
    cache_hit: bool
    #: wall-clock of the (possibly cached) plan fetch/build
    build_ms: float

    @property
    def backend(self) -> str:
        """Execution backend of this shard's plan (``"-"`` when empty).

        Per-shard tuning with ``kernel="auto"`` may select *different*
        backends for different shards of one matrix -- e.g. cuBLAS on a
        dense panel, SMaT elsewhere."""
        if self.plan is None:
            return "-"
        return self.plan.report.backend

    @property
    def config_label(self) -> str:
        """Compact description of the built plan (see :func:`plan_label`);
        ``"-"`` for empty shards."""
        if self.plan is None:
            return "-"
        return plan_label(self.plan)


class ShardPlanner:
    """Builds (and caches) one execution plan per shard.

    Parameters
    ----------
    cache:
        The shared :class:`~repro.engine.cache.PlanCache` (normally the
        engine's).
    tuner:
        Optional :class:`~repro.tuner.Tuner`; when given, every shard's
        configuration is resolved through a per-shard tuning search before
        the plan is built, turning the tuner into a per-shard optimiser.
        The search result persists in the tuning cache under the shard's
        derived fingerprint.
    """

    def __init__(self, cache: PlanCache, *, tuner=None):
        self.cache = cache
        self.tuner = tuner

    def plan_for(self, shard: Shard, config: SMaTConfig) -> ShardPlanEntry:
        """Fetch or build the plan for one shard (empty shards get none).

        Builds go through :func:`~repro.core.plan.build_with_fallback`,
        so a backend that cannot handle one shard (e.g. cuBLAS on a panel
        whose dense form exceeds device memory) falls back to SMaT for
        that shard -- recorded in its report -- instead of crashing the
        whole sharded multiply."""
        start = time.perf_counter()
        if shard.nnz == 0:
            return ShardPlanEntry(shard=shard, plan=None, cache_hit=True, build_ms=0.0)
        key = shard_plan_key(shard, config, tuned=self.tuner is not None)
        plan, hit = self.cache.get_or_build(
            key, lambda: build_with_fallback(shard.matrix, config, tuner=self.tuner)
        )
        build_ms = 1e3 * (time.perf_counter() - start)
        return ShardPlanEntry(shard=shard, plan=plan, cache_hit=hit, build_ms=build_ms)

    def plans_for(
        self, partition: Partition, config: Optional[SMaTConfig] = None
    ) -> List[ShardPlanEntry]:
        """Plans for every shard of a partition, in shard order."""
        cfg = (config or SMaTConfig()).validate()
        ensure_shard_fingerprints(partition)
        return [self.plan_for(shard, cfg) for shard in partition.shards]
