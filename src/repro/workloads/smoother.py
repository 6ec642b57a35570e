"""Jacobi and Chebyshev polynomial smoothers on the SpMM engine.

Polynomial smoothers for ``A x = b`` -- the relaxation step of multigrid
solvers on banded / mesh matrices -- are pure repeated-SpMM workloads:
every sweep applies ``A`` once to the current iterate (or search
direction) and combines the result with cheap vector operations.  The
matrix never changes across sweeps, so the engine's cached plan pays the
reordering + BCSR cost on the first application only.

Both smoothers accept a single right-hand side ``b`` of shape ``(n,)``
or a block of them, shape ``(n, k)``: all ``k`` systems advance in one
SpMM per sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..formats import CSRMatrix, degree_vector, extract_diagonal
from .base import SpMMOperator, WorkloadReport

__all__ = [
    "SmootherResult",
    "estimate_spectral_bounds",
    "jacobi_smoother",
    "chebyshev_smoother",
]


@dataclass
class SmootherResult:
    """Smoothed iterate plus the run's telemetry.

    ``report.residuals`` is the per-sweep relative residual
    ``||b - A x|| / ||b||`` (the maximum over right-hand sides when ``b``
    is a block).
    """

    x: np.ndarray
    report: WorkloadReport


def estimate_spectral_bounds(
    A: CSRMatrix, *, lmin_fraction: float = 1.0 / 30.0
) -> Tuple[float, float]:
    """Cheap ``(lambda_min, lambda_max)`` bounds for a Chebyshev smoother.

    ``lambda_max`` is the Gershgorin row-sum bound
    ``max_i sum_j |a_ij|`` -- an upper bound on the spectral radius of
    any matrix, computed in O(nnz) with no SpMM.  ``lambda_min`` is the
    conventional smoother choice ``lmin_fraction * lambda_max``: the
    Chebyshev polynomial then targets the upper part of the spectrum
    (the oscillatory error modes a smoother is responsible for), which
    is the standard multigrid configuration.
    """
    lmax = float(degree_vector(A, absolute=True).max(initial=0.0))
    if lmax <= 0.0:
        raise ValueError("cannot bound the spectrum of an all-zero matrix")
    return lmin_fraction * lmax, lmax


def _residual_norm(r: np.ndarray, b_norm: np.ndarray) -> float:
    """Max relative column norm ``||r_j|| / ||b_j||`` of a float64 residual.

    One pass with no copy.  The values equal ``np.linalg.norm(r,
    axis=0)``: across columns both sum row by row, and a single column
    (contiguous, so numpy sums it pairwise) takes ``norm``'s own reduce.
    """
    r2 = r.reshape(r.shape[0], -1)
    if r2.shape[1] == 1:
        norms = np.sqrt(np.add.reduce(r2 * r2, axis=0))
    else:
        norms = np.sqrt(np.einsum("ij,ij->j", r2, r2))
    return float((norms / b_norm).max())


def _prepare_rhs(A: CSRMatrix, b: np.ndarray, x0: Optional[np.ndarray]):
    """Validate shapes; returns ``(b, x, was_vector, b_norms)``."""
    if A.nrows != A.ncols:
        raise ValueError(f"smoothers need a square matrix, got shape {A.shape}")
    b = np.asarray(b, dtype=np.float64)
    was_vector = b.ndim == 1
    if was_vector:
        b = b.reshape(-1, 1)
    if b.ndim != 2 or b.shape[0] != A.nrows:
        raise ValueError(f"b must have {A.nrows} rows, got shape {b.shape}")
    if x0 is None:
        x = np.zeros_like(b)
    else:
        # always a copy: the smoothers update x in place
        x = np.array(x0, dtype=np.float64)
        if x.ndim == 1:
            x = x.reshape(-1, 1)
        if x.shape != b.shape:
            raise ValueError(f"x0 shape {x.shape} must match b shape {b.shape}")
    b_norm = np.linalg.norm(b, axis=0)
    b_norm = np.where(b_norm > 0.0, b_norm, 1.0)
    return b, x, was_vector, b_norm


def jacobi_smoother(
    A: CSRMatrix,
    b: np.ndarray,
    *,
    omega: float = 2.0 / 3.0,
    tol: float = 1e-6,
    max_iter: int = 50,
    x0: Optional[np.ndarray] = None,
    engine=None,
    config=None,
    kernel: Optional[str] = None,
    policy=None,
) -> SmootherResult:
    """Weighted Jacobi relaxation ``x <- x + omega D^-1 (b - A x)``.

    The classic smoother for diagonally dominant banded / mesh systems;
    ``omega = 2/3`` is the standard damping for multigrid smoothing.
    Each sweep costs exactly one SpMM (``A x``), whose residual is then
    reused for both the convergence check and the update.  Exits early
    once ``||b - A x|| / ||b||`` drops below ``tol``.
    """
    if not 0.0 < omega <= 1.0:
        raise ValueError(f"omega must be in (0, 1], got {omega!r}")
    diag = extract_diagonal(A).astype(np.float64)
    if np.any(diag == 0.0):
        raise ValueError("Jacobi smoothing needs a zero-free diagonal")
    b, x, was_vector, b_norm = _prepare_rhs(A, b, x0)

    with SpMMOperator(
        A,
        engine=engine,
        config=config,
        kernel=kernel,
        policy=policy,
    ) as op:
        report = op.new_report("jacobi", tol=tol)
        for _ in range(max_iter):
            Ax = op.matmul(x.astype(np.float32), report).astype(np.float64)
            Ax = Ax.reshape(b.shape)
            r = b - Ax
            residual = _residual_norm(r, b_norm)
            op.set_residual(report, residual)
            if residual < tol:
                report.converged = True
                break
            x += omega * (r / diag[:, None])
    return SmootherResult(x=x.ravel() if was_vector else x, report=report)


def chebyshev_smoother(
    A: CSRMatrix,
    b: np.ndarray,
    *,
    eig_bounds: Optional[Tuple[float, float]] = None,
    tol: float = 1e-6,
    max_iter: int = 50,
    x0: Optional[np.ndarray] = None,
    engine=None,
    config=None,
    kernel: Optional[str] = None,
    policy=None,
) -> SmootherResult:
    """Chebyshev polynomial smoother for SPD-like systems ``A x = b``.

    Runs the standard three-term Chebyshev recurrence over the
    eigenvalue interval ``eig_bounds = (lambda_min, lambda_max)``
    (estimated with :func:`estimate_spectral_bounds` when omitted).
    Unlike Jacobi, the polynomial is optimal over the target interval,
    so error modes inside it are damped at the Chebyshev rate.  Each
    sweep is one SpMM (``A d`` against the search direction); the
    residual is updated incrementally and checked against ``tol``.
    """
    if eig_bounds is None:
        eig_bounds = estimate_spectral_bounds(A)
    lmin, lmax = float(eig_bounds[0]), float(eig_bounds[1])
    if not 0.0 < lmin < lmax:
        raise ValueError(f"need 0 < lambda_min < lambda_max, got {eig_bounds!r}")
    b, x, was_vector, b_norm = _prepare_rhs(A, b, x0)
    theta = 0.5 * (lmax + lmin)
    delta = 0.5 * (lmax - lmin)
    sigma = theta / delta

    with SpMMOperator(
        A,
        engine=engine,
        config=config,
        kernel=kernel,
        policy=policy,
    ) as op:
        report = op.new_report("chebyshev", tol=tol)
        Ax = op.matmul(x.astype(np.float32), report).astype(np.float64).reshape(b.shape)
        r = b - Ax
        op.set_residual(report, _residual_norm(r, b_norm))
        if report.final_residual < tol:
            report.converged = True
        else:
            d = r / theta
            rho = 1.0 / sigma
            for _ in range(max_iter):
                x += d
                Ad = op.matmul(d.astype(np.float32), report).astype(np.float64)
                r -= Ad.reshape(b.shape)
                residual = _residual_norm(r, b_norm)
                op.set_residual(report, residual)
                if residual < tol:
                    report.converged = True
                    break
                rho_next = 1.0 / (2.0 * sigma - rho)
                d *= rho_next * rho
                d += (2.0 * rho_next / delta) * r
                rho = rho_next
    return SmootherResult(x=x.ravel() if was_vector else x, report=report)
