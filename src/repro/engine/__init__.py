"""Serving layer: batched SpMM execution with plan caching.

The paper amortises one expensive preprocessing pass over many SpMM
executions; this package turns that amortisation into a service.
:class:`SpMMEngine` fingerprints input matrices, caches their prepared
:class:`~repro.core.plan.ExecutionPlan` in a bounded LRU
(:class:`PlanCache`), executes batches of independent multiplies on a
thread pool, and offers an async ``submit()``/``result()`` queue plus a
streaming iterator for long operand sequences.

Quick start
-----------
>>> import numpy as np
>>> from repro.engine import SpMMEngine
>>> from repro.matrices import band_matrix
>>> A = band_matrix(512, 16)
>>> from repro.engine import ExecutionPolicy
>>> engine = SpMMEngine(cache_size=8, policy=ExecutionPolicy(max_workers=4))
>>> Bs = [np.ones((512, 8), dtype=np.float32) for _ in range(8)]
>>> outcome = engine.multiply_many(A, Bs)   # one preprocess, 8 executions
>>> outcome.summary.cache.hits
7
"""

from ..core.policy import ExecutionPolicy
from .cache import CacheStats, PlanCache
from .engine import (
    BatchItem,
    BatchOutcome,
    BatchResult,
    BatchSummary,
    EngineTelemetry,
    SpMMEngine,
)

__all__ = [
    "SpMMEngine",
    "ExecutionPolicy",
    "BatchItem",
    "BatchResult",
    "BatchSummary",
    "BatchOutcome",
    "EngineTelemetry",
    "PlanCache",
    "CacheStats",
]
