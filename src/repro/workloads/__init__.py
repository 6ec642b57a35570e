"""Iterative SpMM workloads on the serving engine.

The paper's core premise -- *preprocess once, multiply many* -- is the
access pattern of every iterative sparse algorithm: the operator matrix
is fixed, the dense operand changes each step.  This package runs those
algorithms end to end on :class:`~repro.engine.SpMMEngine`, so one
cached :class:`~repro.core.plan.ExecutionPlan` (or one per shard) serves
every iteration and the preprocessing cost visibly fades after the first
step:

* :func:`pagerank` / :func:`power_iteration` -- damped PageRank on the
  column-stochastic transition matrix, and the dominant eigenpair of any
  square matrix (:mod:`~repro.workloads.pagerank`);
* :func:`gcn_forward` -- a k-layer GCN-style forward pass over the
  symmetrically normalised adjacency ``D^-1/2 (A + I) D^-1/2``
  (:mod:`~repro.workloads.gcn`);
* :func:`jacobi_smoother` / :func:`chebyshev_smoother` -- polynomial
  relaxation for banded / mesh systems (:mod:`~repro.workloads.smoother`);
* :class:`WorkloadReport` -- per-iteration residuals, SpMM wall time,
  plan-cache counters and the plan-amortisation ratio
  (:mod:`~repro.workloads.base`).

Every workload accepts ``engine=`` (share a serving engine and its plan
cache) or ``policy=ExecutionPolicy(...)`` for its private engine:
``tune=True`` (plans built through the auto-tuner) and ``sharded=True`` /
``grid=`` (per-shard plans price the shards).

Quick start
-----------
>>> from repro.matrices import scale_free_graph
>>> from repro.workloads import pagerank
>>> A = scale_free_graph(512, avg_degree=8.0)
>>> result = pagerank(A, tol=1e-6, max_iter=100)
>>> bool(result.report.converged)
True
>>> round(float(result.scores.sum()), 6)  # a probability distribution
1.0
"""

from .base import IterationRecord, SpMMOperator, WorkloadReport
from .gcn import GCNResult, gcn_forward
from .pagerank import (
    PageRankResult,
    PowerIterationResult,
    dense_pagerank_reference,
    pagerank,
    power_iteration,
)
from .smoother import (
    SmootherResult,
    chebyshev_smoother,
    estimate_spectral_bounds,
    jacobi_smoother,
)

__all__ = [
    "WorkloadReport",
    "IterationRecord",
    "SpMMOperator",
    "pagerank",
    "PageRankResult",
    "power_iteration",
    "PowerIterationResult",
    "dense_pagerank_reference",
    "gcn_forward",
    "GCNResult",
    "jacobi_smoother",
    "chebyshev_smoother",
    "estimate_spectral_bounds",
    "SmootherResult",
]
