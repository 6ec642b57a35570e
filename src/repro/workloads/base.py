"""Shared machinery of the iterative workloads.

Every workload in this package has the same shape: bind one sparse
operator matrix to one cached :class:`~repro.core.plan.ExecutionPlan` on
an :class:`~repro.engine.SpMMEngine`, then run many SpMM iterations
against it.  :class:`SpMMOperator` is that binding -- it owns (or
borrows) the engine, routes every multiply through the plan cache (or
the sharded subsystem), and records per-iteration wall time and cache
hits.  :class:`WorkloadReport` is the common result telemetry: residual
history, per-iteration SpMM time, cache counters, and the
plan-amortisation ratio that shows the preprocessing cost fading after
the first iteration (the paper's Figure 1 argument, measured on a real
workload).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from ..core.config import SMaTConfig
from ..core.policy import ExecutionPolicy
from ..engine import SpMMEngine
from ..formats import CSRMatrix

__all__ = ["IterationRecord", "WorkloadReport", "SpMMOperator"]


@dataclass
class IterationRecord:
    """Telemetry of one workload iteration (one SpMM through the engine)."""

    index: int
    residual: float
    spmm_ms: float
    cache_hits: int
    cache_misses: int


@dataclass
class WorkloadReport:
    """Execution telemetry of one iterative workload run.

    The report captures the paper's amortisation argument end to end:
    the first iteration pays plan construction (reordering + BCSR build,
    a cache miss), every later iteration reuses the cached plan, and
    :attr:`amortization_ratio` quantifies how much cheaper a warm
    iteration is than the cold first one.
    """

    workload: str
    matrix_shape: tuple
    nnz: int
    iterations: int = 0
    converged: bool = False
    tol: float = 0.0
    sharded: bool = False
    tuned: bool = False
    #: requested execution backend (``"auto"`` = the tuner's per-matrix choice)
    kernel: str = "smat"
    setup_ms: float = 0.0
    records: List[IterationRecord] = field(default_factory=list)

    @property
    def residuals(self) -> List[float]:
        """Residual history, one value per iteration."""
        return [r.residual for r in self.records]

    @property
    def spmm_ms(self) -> List[float]:
        """Wall-clock milliseconds of each iteration's SpMM call."""
        return [r.spmm_ms for r in self.records]

    @property
    def total_spmm_ms(self) -> float:
        """Wall-clock milliseconds spent in SpMM across all iterations."""
        return float(sum(self.spmm_ms))

    @property
    def final_residual(self) -> float:
        """Residual of the last recorded iteration (``inf`` if none ran)."""
        return self.records[-1].residual if self.records else float("inf")

    @property
    def cache_hits(self) -> int:
        """Plan-cache hits accumulated across all iterations."""
        return sum(r.cache_hits for r in self.records)

    @property
    def cache_misses(self) -> int:
        """Plan-cache misses (plan builds) accumulated across all iterations."""
        return sum(r.cache_misses for r in self.records)

    @property
    def cold_ms(self) -> float:
        """Wall time of the first iteration (pays plan construction)."""
        return self.records[0].spmm_ms if self.records else 0.0

    @property
    def warm_ms(self) -> float:
        """Median wall time of the warm iterations (cached plan only)."""
        warm = self.spmm_ms[1:]
        return float(np.median(warm)) if warm else 0.0

    @property
    def amortization_ratio(self) -> float:
        """Cold-iteration over warm-iteration SpMM time.

        Values well above 1 mean the preprocessing cost paid by the first
        iteration is amortised away by plan reuse; 1.0 means no reuse
        benefit (or a single-iteration run).
        """
        if not self.records or len(self.records) < 2 or self.warm_ms <= 0.0:
            return 1.0
        return self.cold_ms / self.warm_ms

    def record(self, residual: float, spmm_ms: float, hits: int, misses: int) -> None:
        """Append one iteration's telemetry and bump the iteration count."""
        self.records.append(
            IterationRecord(
                index=len(self.records),
                residual=float(residual),
                spmm_ms=float(spmm_ms),
                cache_hits=int(hits),
                cache_misses=int(misses),
            )
        )
        self.iterations = len(self.records)

    def table(self) -> List[dict]:
        """Per-iteration rows for :func:`~repro.analysis.format_table`."""
        return [
            {
                "iter": r.index,
                "residual": r.residual,
                "spmm_ms": r.spmm_ms,
                "cache_hits": r.cache_hits,
                "cache_misses": r.cache_misses,
            }
            for r in self.records
        ]

    def summary(self) -> dict:
        """One-row summary (the CLI's bottom line)."""
        return {
            "workload": self.workload,
            "iterations": self.iterations,
            "converged": self.converged,
            "final_residual": self.final_residual,
            "total_spmm_ms": self.total_spmm_ms,
            "cold_ms": self.cold_ms,
            "warm_ms": self.warm_ms,
            "amortization": self.amortization_ratio,
        }


class SpMMOperator:
    """One sparse matrix bound to one cached plan on an engine.

    The operator is the workload-facing view of the serving stack: it
    creates (or borrows) an :class:`~repro.engine.SpMMEngine`, routes
    every :meth:`matmul` through :meth:`~repro.engine.SpMMEngine.multiply`
    -- the plan cache, or the sharded subsystem when the engine's policy
    is ``sharded`` -- and records the wall time and cache-counter deltas
    of each call into a :class:`WorkloadReport`.

    Parameters
    ----------
    A:
        The sparse operator matrix (CSR).
    engine:
        Run through an existing engine (sharing its plan cache, tuner
        and worker pool).  When ``None`` the operator owns a private
        engine and closes it on :meth:`close`; ``policy`` then applies
        to that engine (passing ``policy`` alongside a borrowed engine
        raises, mirroring :class:`~repro.shard.ShardedSpMM`).
    config:
        Pipeline configuration for the plan (default engine config).
    kernel:
        Execution backend for every multiply (``"smat"``, ``"cusparse"``,
        ``"dasp"``, ``"magicube"``, ``"cublas"``, or ``"auto"`` for the
        per-matrix tuner choice); overrides the backend of ``config``.
    policy:
        :class:`~repro.core.policy.ExecutionPolicy` of the owned engine
        -- pool width, tuning and sharded routing (``sharded``/``grid``/
        ``shard_mode``).
    """

    def __init__(
        self,
        A: CSRMatrix,
        *,
        engine: Optional[SpMMEngine] = None,
        config: Optional[SMaTConfig] = None,
        kernel: Optional[str] = None,
        policy: Optional[ExecutionPolicy] = None,
    ):
        if not isinstance(A, CSRMatrix):
            raise TypeError("SpMMOperator expects a repro.formats.CSRMatrix input")
        if engine is not None and policy is not None:
            raise ValueError(
                "pass execution options (policy) to the engine itself when providing one"
            )
        self.A = A
        if kernel is not None:
            # override only the backend, inheriting every other knob from
            # the explicit config or the (possibly borrowed) engine's
            base = config if config is not None else (engine.config if engine else SMaTConfig())
            config = replace(base, kernel=kernel).validate()
        self.config = config
        self._owns_engine = engine is None
        if engine is None:
            engine = SpMMEngine(config, policy=policy, cache_size=16)
        self.engine = engine
        self.sharded = bool(engine.policy.sharded)
        self.tuned = engine.tuner is not None
        self.kernel = (self.config or engine.config).resolved_kernel()

    def new_report(self, workload: str, *, tol: float = 0.0) -> WorkloadReport:
        """A :class:`WorkloadReport` pre-filled with this operator's context."""
        return WorkloadReport(
            workload=workload,
            matrix_shape=self.A.shape,
            nnz=self.A.nnz,
            tol=float(tol),
            sharded=self.sharded,
            tuned=self.tuned,
            kernel=self.kernel,
        )

    def matmul(self, B: np.ndarray, report: Optional[WorkloadReport] = None) -> np.ndarray:
        """Compute ``A @ B`` through the engine, recording telemetry.

        When ``report`` is given the call appends an iteration record
        with a placeholder residual of ``nan``; workloads overwrite it
        via :meth:`set_residual` once the iteration's residual is known.
        """
        before = self.engine.cache_stats
        start = time.perf_counter()
        C = self.engine.multiply(self.A, B, config=self.config)
        wall_ms = 1e3 * (time.perf_counter() - start)
        if report is not None:
            after = self.engine.cache_stats
            report.record(
                float("nan"),
                wall_ms,
                after.hits - before.hits,
                after.misses - before.misses,
            )
        return C

    @staticmethod
    def set_residual(report: WorkloadReport, residual: float) -> None:
        """Fill in the residual of the most recent iteration record."""
        if report.records:
            report.records[-1].residual = float(residual)

    # -- lifecycle ------------------------------------------------------------
    def close(self) -> None:
        """Shut down the owned engine (a borrowed engine is left running)."""
        if self._owns_engine:
            self.engine.close()

    def __enter__(self) -> "SpMMOperator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<SpMMOperator A={self.A.shape} nnz={self.A.nnz} "
            f"sharded={self.sharded} tuned={self.tuned}>"
        )
