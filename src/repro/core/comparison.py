"""Library comparison harness.

The evaluation of the paper repeatedly runs the same SpMM problem through
SMaT and the baseline libraries (cuSPARSE, DASP, Magicube, cuBLAS) and
reports GFLOP/s or wall-clock time per library.  :func:`compare_libraries`
packages that loop: every library runs as an
:class:`~repro.core.plan.ExecutionPlan` through an
:class:`~repro.engine.SpMMEngine`, so each backend's preparation (SMaT's
reordering + BCSR build, Magicube's SR-BCRS conversion, cuBLAS's
memory gate, ...) is plan-cached -- repeated comparisons against the
same matrix skip all preprocessing.  The harness checks the numerical
results agree and returns a uniform record per library: the rows of
Figures 8, 9 and 10.

The special library name ``"auto"`` adds the auto-tuned backend
(``SMaTConfig(kernel="auto")``): the tuner's per-matrix winner, measured
like any other row.  A backend that cannot handle the matrix (the engine
falls back to SMaT and records it) is reported ``supported=False``, as
the paper reports Magicube's out-of-memory matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..formats import CSRMatrix
from ..kernels import KERNEL_REGISTRY, KernelUnsupportedError
from .config import SMaTConfig

__all__ = ["LibraryMeasurement", "compare_libraries", "DEFAULT_LIBRARIES"]

#: libraries compared in the SuiteSparse experiments (Figure 8)
DEFAULT_LIBRARIES: Sequence[str] = ("smat", "dasp", "magicube", "cusparse")


@dataclass
class LibraryMeasurement:
    """One (library, matrix, N) measurement."""

    library: str
    gflops: float
    time_ms: float
    supported: bool = True
    error: Optional[str] = None
    correct: Optional[bool] = None
    meta: Dict[str, object] = field(default_factory=dict)

    def speedup_over(self, other: "LibraryMeasurement") -> float:
        """Runtime speedup of this library over ``other`` (>1 = faster)."""
        if not self.supported or not other.supported or self.time_ms <= 0:
            return float("nan")
        return other.time_ms / self.time_ms


def _max_rel_error(C: np.ndarray, reference: np.ndarray) -> float:
    denom = np.maximum(np.abs(reference), 1.0)
    return float(np.max(np.abs(C.astype(np.float64) - reference.astype(np.float64)) / denom))


def _display_name(backend: str, requested: str) -> str:
    """Figure-8-style row label: the library's display name, or
    ``auto(<winner>)`` for the tuned row."""
    cls = KERNEL_REGISTRY.get(backend)
    name = cls.name if cls is not None else backend
    return f"auto({name})" if requested == "auto" else name


def compare_libraries(
    A: CSRMatrix,
    B: np.ndarray,
    *,
    libraries: Iterable[str] = DEFAULT_LIBRARIES,
    config: Optional[SMaTConfig] = None,
    check_correctness: bool = True,
    correctness_tol: float = 1e-3,
    engine=None,
    tune: bool = False,
) -> List[LibraryMeasurement]:
    """Run one SpMM problem through several libraries.

    Parameters
    ----------
    A, B:
        The sparse matrix and the dense right-hand side.
    libraries:
        Library names (see :func:`repro.kernels.get_kernel`); ``"smat"``
        uses the full pipeline (preprocessing + kernel) configured by
        ``config``, the baselines consume ``A`` as-is -- exactly the
        protocol of the paper's comparison (each library applies its own
        internal preprocessing, Section VI-B).  ``"auto"`` adds the
        auto-tuner's per-matrix backend choice as its own row.
    config:
        SMaT configuration (reordering algorithm, variant, precision).
    check_correctness:
        Compare every library's numerical result against a NumPy reference.
    engine:
        Run through an existing :class:`~repro.engine.SpMMEngine`
        (sharing its plan cache, so repeated comparisons of the same
        matrix skip every library's preprocessing).  When ``None``, a
        private single-worker engine is created for the call -- plans are
        still cached across the libraries of the call.
    tune:
        Create the private engine with ``tune=True`` (plans resolve
        through the auto-tuner).  Raises when combined with a borrowed
        ``engine``, mirroring :class:`~repro.workloads.SpMMOperator`.

    Returns
    -------
    list of LibraryMeasurement, in the order requested.  Each row's
    ``meta`` records the executing ``backend`` (registry key), the
    plan-cache ``cache_hit`` flag and the host ``wall_ms`` of the call.
    """
    from ..engine import SpMMEngine  # deferred: core must import without engine

    import time as _time

    config = config or SMaTConfig()
    B = np.asarray(B)
    reference = A.spmm(B) if check_correctness else None
    libs = [str(lib) for lib in libraries]

    owns_engine = engine is None
    if engine is None:
        from .policy import ExecutionPolicy

        engine = SpMMEngine(
            config,
            cache_size=max(8, 2 * len(libs)),
            policy=ExecutionPolicy(max_workers=1, tune=bool(tune)),
        )
    elif tune:
        raise ValueError("pass tune=True to the engine itself when providing one")

    out: List[LibraryMeasurement] = []
    try:
        for lib in libs:
            requested = lib.lower()
            cfg = replace(config, kernel=requested)
            try:
                before = engine.cache_stats
                start = _time.perf_counter()
                C, report = engine.multiply(A, B, config=cfg, return_report=True)
                wall_ms = 1e3 * (_time.perf_counter() - start)
                after = engine.cache_stats
            except KernelUnsupportedError as exc:
                # no fallback existed (the request was SMaT itself, or the
                # tuner found no runnable candidate)
                out.append(
                    LibraryMeasurement(
                        library=requested,
                        gflops=0.0,
                        time_ms=float("inf"),
                        supported=False,
                        error=str(exc),
                    )
                )
                continue

            pre = report.preprocessing
            if pre is not None and pre.fallback_from is not None:
                # the engine fell back to SMaT: for the comparison this
                # library is unsupported on this matrix (Section V-D)
                out.append(
                    LibraryMeasurement(
                        library=_display_name(pre.fallback_from, requested),
                        gflops=0.0,
                        time_ms=float("inf"),
                        supported=False,
                        error=pre.fallback_error,
                        meta={"backend": pre.fallback_from, "fallback": "smat"},
                    )
                )
                continue

            correct = None
            if reference is not None:
                correct = _max_rel_error(C, reference) <= correctness_tol
            meta = dict(report.kernel_meta)
            meta["backend"] = report.backend
            meta["cache_hit"] = after.hits > before.hits
            meta["wall_ms"] = wall_ms
            if report.backend == "smat" and pre is not None:
                meta["block_reduction"] = pre.block_reduction
            out.append(
                LibraryMeasurement(
                    library=_display_name(report.backend, requested),
                    gflops=report.gflops,
                    time_ms=report.simulated_ms,
                    supported=True,
                    correct=correct,
                    meta=meta,
                )
            )
    finally:
        if owns_engine:
            engine.close()
    return out
