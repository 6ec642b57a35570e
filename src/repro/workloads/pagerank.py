"""PageRank and power iteration on the SpMM engine.

Both algorithms repeat one SpMM against a fixed sparse operator -- the
column-stochastic transition matrix for PageRank, the matrix itself for
power iteration -- which is exactly the access pattern the paper's
"preprocess once, multiply many" pipeline amortises: the first iteration
pays reordering + BCSR construction (a plan-cache miss), every later
iteration is a cache hit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..formats import CSRMatrix, transition_matrix
from .base import SpMMOperator, WorkloadReport

__all__ = [
    "PageRankResult",
    "PowerIterationResult",
    "pagerank",
    "power_iteration",
    "dense_pagerank_reference",
]


@dataclass
class PageRankResult:
    """PageRank scores plus the run's :class:`~repro.workloads.WorkloadReport`."""

    scores: np.ndarray
    report: WorkloadReport


@dataclass
class PowerIterationResult:
    """Dominant eigenpair estimate plus the run's telemetry."""

    eigenvalue: float
    vector: np.ndarray
    report: WorkloadReport


def _as_columns(x: np.ndarray) -> np.ndarray:
    """View a vector as an ``(n, 1)`` column matrix (SpMM operand form)."""
    return x.reshape(-1, 1) if x.ndim == 1 else x


def dense_pagerank_reference(
    A: CSRMatrix,
    *,
    damping: float = 0.85,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> np.ndarray:
    """The same damped power iteration as :func:`pagerank`, in dense
    float64 numpy.

    The validation oracle used by the test suite and
    ``benchmarks/bench_workloads.py``: identical arithmetic (transition
    matrix, dangling-mass redistribution, per-step renormalisation,
    L1-change convergence) with a dense operator, so engine results must
    match it to float32 tolerance.
    """
    n = A.nrows
    dangling = np.zeros(n, dtype=bool)
    M = transition_matrix(A, dangling=dangling).to_dense().astype(np.float64)
    v = np.full(n, 1.0 / n)
    x = v.copy()
    for _ in range(max_iter):
        x_new = damping * (M @ x + x[dangling].sum() * v) + (1.0 - damping) * v
        x_new /= x_new.sum()
        if np.abs(x_new - x).sum() < tol:
            return x_new
        x = x_new
    return x


def pagerank(
    A: CSRMatrix,
    *,
    damping: float = 0.85,
    tol: float = 1e-8,
    max_iter: int = 100,
    personalization: Optional[np.ndarray] = None,
    engine=None,
    config=None,
    kernel: Optional[str] = None,
    policy=None,
) -> PageRankResult:
    """PageRank of the graph with adjacency matrix ``A``.

    Solves ``x = d M x + (1 - d) v`` by power iteration, where ``M`` is
    the column-stochastic transition matrix
    (:func:`~repro.formats.graphops.transition_matrix`, built once as
    setup), ``d`` the ``damping`` factor and ``v`` the teleport
    distribution (uniform, or ``personalization``).  Mass of dangling
    nodes is redistributed over ``v`` each iteration.  Convergence is
    the L1 change of the score vector dropping below ``tol`` (early
    exit before ``max_iter``).

    ``personalization`` may also be an ``(n, k)`` matrix of ``k``
    teleport distributions: all ``k`` chains advance in one SpMM per
    iteration, and ``scores`` has matching shape.

    The SpMM runs on an :class:`~repro.engine.SpMMEngine` (pass
    ``engine`` to share one, or the operator owns a private one).  Pass
    ``policy=ExecutionPolicy(...)`` to pick the executor, tuning and
    sharded routing.
    """
    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping must be in (0, 1), got {damping!r}")
    n = A.nrows
    setup_start = time.perf_counter()
    dangling = np.zeros(n, dtype=bool)
    M = transition_matrix(A, dangling=dangling)
    setup_ms = 1e3 * (time.perf_counter() - setup_start)

    if personalization is None:
        v = np.full((n, 1), 1.0 / n, dtype=np.float64)
    else:
        v = _as_columns(np.asarray(personalization, dtype=np.float64)).copy()
        if v.shape[0] != n:
            raise ValueError(f"personalization must have {n} rows, got {v.shape[0]}")
        if np.any(v < 0.0):
            raise ValueError("personalization must be non-negative")
        col_sums = v.sum(axis=0)
        if np.any(col_sums <= 0.0):
            raise ValueError("personalization columns must have positive mass")
        v /= col_sums

    was_vector = personalization is None or np.asarray(personalization).ndim == 1
    x = v.copy()
    with SpMMOperator(
        M,
        engine=engine,
        config=config,
        kernel=kernel,
        policy=policy,
    ) as op:
        report = op.new_report("pagerank", tol=tol)
        report.setup_ms = setup_ms
        for _ in range(max_iter):
            Mx = op.matmul(x.astype(np.float32), report).astype(np.float64)
            Mx = _as_columns(Mx)
            dangling_mass = x[dangling].sum(axis=0)
            x_new = damping * (Mx + dangling_mass * v) + (1.0 - damping) * v
            # renormalise: the float32 SpMM slowly leaks probability mass
            x_new /= x_new.sum(axis=0)
            residual = float(np.abs(x_new - x).sum(axis=0).max())
            op.set_residual(report, residual)
            x = x_new
            if residual < tol:
                report.converged = True
                break
    scores = x.ravel() if was_vector else x
    return PageRankResult(scores=scores, report=report)


def power_iteration(
    A: CSRMatrix,
    *,
    tol: float = 1e-6,
    max_iter: int = 100,
    x0: Optional[np.ndarray] = None,
    engine=None,
    config=None,
    kernel: Optional[str] = None,
    policy=None,
) -> PowerIterationResult:
    """Dominant eigenpair of a square matrix ``A`` by power iteration.

    Each iteration is one SpMM (``w = A x``) through the engine's cached
    plan, a Rayleigh-quotient eigenvalue estimate ``lambda = x . w``, and
    a normalisation.  The residual is ``||w - lambda x|| / ||w||``;
    the loop exits early once it drops below ``tol``.
    """
    if A.nrows != A.ncols:
        raise ValueError(f"power iteration needs a square matrix, got shape {A.shape}")
    n = A.nrows
    if x0 is None:
        x = np.full(n, 1.0 / np.sqrt(n), dtype=np.float64)
    else:
        x = np.asarray(x0, dtype=np.float64).ravel().copy()
        if x.size != n:
            raise ValueError(f"x0 must have length {n}, got {x.size}")
        norm = np.linalg.norm(x)
        if norm <= 0.0:
            raise ValueError("x0 must be non-zero")
        x /= norm

    eigenvalue = 0.0
    with SpMMOperator(
        A,
        engine=engine,
        config=config,
        kernel=kernel,
        policy=policy,
    ) as op:
        report = op.new_report("power_iteration", tol=tol)
        for _ in range(max_iter):
            w = op.matmul(x.astype(np.float32), report).astype(np.float64).ravel()
            eigenvalue = float(x @ w)
            w_norm = float(np.linalg.norm(w))
            if w_norm <= 0.0:
                # A x vanished: x is (numerically) in the null space
                op.set_residual(report, 0.0)
                report.converged = True
                break
            residual = float(np.linalg.norm(w - eigenvalue * x) / w_norm)
            op.set_residual(report, residual)
            x = w / w_norm
            if residual < tol:
                report.converged = True
                break
    return PowerIterationResult(eigenvalue=eigenvalue, vector=x, report=report)
