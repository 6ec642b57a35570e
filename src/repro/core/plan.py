"""Reusable SpMM execution plans.

The paper's central performance argument (Figure 1) is *amortisation*: one
expensive preprocessing pass -- the block-minimising row permutation plus
the CSR-to-BCSR conversion -- is paid once per sparse matrix and reused
across arbitrarily many SpMM executions against different dense operands
``B``.  An :class:`ExecutionPlan` is that prepared state made explicit and
shareable:

* :class:`~repro.core.smat.SMaT` builds one plan per instance (its
  ``preprocess()`` stage),
* :class:`~repro.engine.SpMMEngine` caches plans across matrices keyed by
  :func:`matrix_fingerprint` so repeated queries skip preprocessing
  entirely.

A built plan is immutable: executing it only fills the kernel's bounded,
lock-protected price memo, so one plan may be executed concurrently from
several threads (the engine's batched thread-pool path relies on this).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

import numpy as np

from ..formats import BCSRMatrix, CSRMatrix
from ..formats.csr import matrix_fingerprint
from ..kernels import (
    KERNEL_REGISTRY,
    KernelUnsupportedError,
    SpMMKernel,
    get_kernel,
)
from ..obs.trace import NULL_TRACER
from ..reorder import ReorderResult, get_reorderer
from ..reorder.base import identity_permutation
from .config import SMaTConfig

__all__ = [
    "ExecutionPlan",
    "PreprocessReport",
    "MultiplyReport",
    "build_with_fallback",
    "matrix_fingerprint",
    "config_signature",
    "plan_key",
]


@dataclass
class PreprocessReport:
    """Summary of the preprocessing (reordering + blocking) stage."""

    algorithm: str
    applied: bool
    blocks_before: int
    blocks_after: int
    std_before: float
    std_after: float
    n_block_rows: int
    block_shape: Tuple[int, int]
    #: execution backend the plan was built for (registry key)
    backend: str = "smat"
    #: backend originally requested when the build fell back to SMaT
    #: because the requested kernel raised ``KernelUnsupportedError``
    fallback_from: Optional[str] = None
    #: the unsupported-kernel error message recorded on fallback
    fallback_error: Optional[str] = None

    @property
    def block_reduction(self) -> float:
        """Block-count reduction factor achieved by the permutation."""
        return self.blocks_before / self.blocks_after if self.blocks_after else 1.0


@dataclass
class MultiplyReport:
    """Summary of one SpMM execution."""

    gflops: float
    simulated_ms: float
    n_blocks: int
    useful_flops: float
    bound: str
    backend: str = "smat"
    kernel_meta: Dict[str, object] = field(default_factory=dict)
    preprocessing: Optional[PreprocessReport] = None


# matrix_fingerprint's canonical implementation lives in the formats layer
# (kernels key their re-prepare check on it too); re-exported here unchanged.


def _is_auto(config: SMaTConfig) -> bool:
    """Whether ``config`` leaves the backend or the reordering to the tuner."""
    return config.reorder.lower() == "auto" or config.resolved_kernel() == "auto"


def _resolve_auto(A: CSRMatrix, config: SMaTConfig):
    """Resolve an ``"auto"`` configuration through a tuner on the default
    persistent cache: ``(config, plan)``, where ``plan`` is the search's
    winning plan, or ``None`` on a cache hit.  Imported lazily to keep core
    free of a tuner dependency."""
    from ..tuner import Tuner

    return Tuner().resolve_with_plan(A, config)


def config_signature(config: SMaTConfig) -> Tuple:
    """Hashable signature of every configuration field that changes the
    prepared state (permutation, BCSR blocking, or kernel instance).

    The execution backend is a first-class component of the signature:
    plans for two different libraries of the same matrix get distinct
    cache keys, so they coexist in one plan cache instead of colliding.
    For non-blocked backends the SMaT-only knobs (reordering, block
    shape, variant) are *normalised away* -- they never reach the build
    (``_build_unblocked`` ignores them), so two configs differing only in
    those fields share one cached plan instead of storing duplicate
    prepared state (e.g. two identical SR-BCRS copies for Magicube).
    """
    kernel = config.resolved_kernel()
    if kernel != "auto" and not KERNEL_REGISTRY[kernel].wants_reordering:
        return (kernel, config.resolved_precision().key, config.arch.name)
    variant = config.variant if isinstance(config.variant, str) else config.variant.label
    return (
        kernel,
        config.resolved_precision().key,
        config.resolved_block_shape(),
        config.reorder.lower(),
        bool(config.reorder_columns),
        repr(sorted(config.reorder_params.items())),
        bool(config.auto_skip_reordering),
        variant,
        config.arch.name,
    )


def plan_key(A: CSRMatrix, config: SMaTConfig) -> Tuple[str, Tuple]:
    """Cache key under which a plan for ``(A, config)`` is stored."""
    return (matrix_fingerprint(A), config_signature(config))


class ExecutionPlan:
    """Prepared state for executing ``C = A @ B`` many times.

    Holds ``A``, the row (and optional column) permutation, the
    preprocessing report, and a kernel of the configured backend
    (``config.kernel``) prepared with the structure summary its cost model
    reads (SMaT's blocks per block row under the permutation), not a
    permuted copy of ``A`` or a layout.  Create plans with :meth:`build`;
    instances are immutable and thread-safe to :meth:`execute`.
    """

    def __init__(
        self,
        A: CSRMatrix,
        config: SMaTConfig,
        *,
        row_perm: np.ndarray,
        col_perm: Optional[np.ndarray],
        kernel: SpMMKernel,
        report: PreprocessReport,
        reorder_result: Optional[ReorderResult] = None,
    ):
        self.A = A
        self.config = config
        self.row_perm = row_perm
        self.col_perm = col_perm
        self.kernel = kernel
        self.report = report
        self.reorder_result = reorder_result

    @classmethod
    def build(cls, A: CSRMatrix, config: Optional[SMaTConfig] = None) -> "ExecutionPlan":
        """Run the full preprocessing pipeline (Section IV-C) for ``A``.

        Dispatches on ``config.kernel``: for blocked backends (SMaT) it
        computes the block-minimising permutation, keeps it (unless
        ``auto_skip_reordering`` decides the input ordering is already at
        least as good), and prepares the BCSR Tensor-Core kernel on the
        block counts under it; for non-blocked backends (cuSPARSE, DASP,
        Magicube, cuBLAS) the BCSR-specific reordering pass is skipped
        entirely -- the library consumes ``A`` as-is, exactly the paper's
        comparison protocol -- and only the backend's own preprocessing
        runs.  ``"auto"`` (for the kernel or the reordering) first resolves the
        configuration through the per-matrix auto-tuner; when that runs a
        search, the plan the search built for its winner is returned
        as-is.

        May raise :class:`~repro.kernels.KernelUnsupportedError` when the
        backend cannot handle the matrix (e.g. the densified operand does
        not fit in device memory); the engine turns that into a recorded
        fallback to SMaT.
        """
        if not isinstance(A, CSRMatrix):
            raise TypeError("ExecutionPlan expects a repro.formats.CSRMatrix input")
        config = (config or SMaTConfig()).validate()

        if _is_auto(config):
            # tuned pipeline: resolve the configuration (backend, block
            # shape, reordering) through the auto-tuner (persistent-cache
            # hit, or a one-off search that already built the winner)
            config, plan = _resolve_auto(A, config)
            if plan is not None:
                return plan

        backend = config.resolved_kernel()
        block_shape = config.resolved_block_shape()
        if KERNEL_REGISTRY[backend].wants_reordering:
            return cls._build_blocked(A, config, backend, block_shape)
        return cls._build_unblocked(A, config, backend, block_shape)

    @classmethod
    def _build_blocked(
        cls, A: CSRMatrix, config: SMaTConfig, backend: str, block_shape: Tuple[int, int]
    ) -> "ExecutionPlan":
        """The paper's pipeline: block-minimising reorder + BCSR kernel."""
        name = config.reorder.lower()
        if name in ("identity", "none"):
            reorderer = get_reorderer("identity", block_shape=block_shape)
        else:
            reorderer = get_reorderer(
                name,
                block_shape=block_shape,
                permute_columns=config.reorder_columns,
                **config.reorder_params,
            )
        result = reorderer.reorder(A, with_stats=True)

        applied = True
        if (
            config.auto_skip_reordering
            and result.stats_before is not None
            and result.stats_after is not None
            and result.stats_after.n_blocks >= result.stats_before.n_blocks
        ):
            # the input ordering is already at least as good (e.g. band
            # matrices); keep the identity, as the paper's pipeline does
            applied = False

        kernel = get_kernel(
            backend,
            config.arch,
            config.precision,
            variant=config.variant,
            block_shape=block_shape,
        )
        if applied:
            row_perm, col_perm = result.row_perm, result.col_perm
            kernel.prepare(
                A, row_perm=row_perm, col_perm=col_perm, blocks_per_row=result.blocks_per_row
            )
        else:
            row_perm, col_perm = identity_permutation(A.nrows), None
            kernel.prepare(A)

        stats_before = result.stats_before
        stats_after = result.stats_after if applied else result.stats_before
        report = PreprocessReport(
            algorithm=result.algorithm if applied else "identity",
            applied=applied,
            blocks_before=stats_before.n_blocks if stats_before else 0,
            blocks_after=stats_after.n_blocks if stats_after else 0,
            std_before=stats_before.std_blocks_per_row if stats_before else 0.0,
            std_after=stats_after.std_blocks_per_row if stats_after else 0.0,
            n_block_rows=stats_after.n_block_rows if stats_after else 0,
            block_shape=block_shape,
            backend=backend,
        )
        return cls(
            A,
            config,
            row_perm=row_perm,
            col_perm=col_perm,
            kernel=kernel,
            report=report,
            reorder_result=result,
        )

    @classmethod
    def _build_unblocked(
        cls, A: CSRMatrix, config: SMaTConfig, backend: str, block_shape: Tuple[int, int]
    ) -> "ExecutionPlan":
        """Baseline-library pipeline: no reordering, only the backend's
        own preprocessing (cuSPARSE keeps CSR, Magicube counts its SR-BCRS
        vectors, cuBLAS checks its dense memory gate, ...)."""
        kernel = get_kernel(backend, config.arch, config.precision)
        kernel.prepare(A)
        report = PreprocessReport(
            algorithm="identity",
            applied=False,
            blocks_before=0,
            blocks_after=0,
            std_before=0.0,
            std_after=0.0,
            n_block_rows=0,
            block_shape=block_shape,
            backend=backend,
        )
        return cls(
            A,
            config,
            row_perm=identity_permutation(A.nrows),
            col_perm=None,
            kernel=kernel,
            report=report,
            reorder_result=None,
        )

    # -- accessors ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        """Registry key of the backend the plan was built for."""
        return self.report.backend

    @property
    def bcsr(self) -> BCSRMatrix:
        """The BCSR layout of ``A`` under the plan's permutation(s)
        (blocked backends only), built anew on every access and not kept by
        the plan: execution never reads it."""
        if not self.kernel.wants_reordering:
            raise AttributeError(
                f"plan built for backend {self.report.backend!r} has no BCSR "
                "representation (only blocked kernels convert to BCSR)"
            )
        permuted = self.reorder_result.apply(self.A) if self.report.applied else self.A
        return BCSRMatrix.from_csr(permuted, self.kernel.block_shape)

    @property
    def shape(self) -> Tuple[int, int]:
        return self.A.shape

    # -- execution ------------------------------------------------------------------
    def price(self, n_cols: int) -> MultiplyReport:
        """The :class:`MultiplyReport` of one multiply against an
        ``n_cols``-wide ``B``: the kernel's simulated device price of this
        plan's block structure, without computing ``C``."""
        result = self.kernel.price(n_cols)
        return MultiplyReport(
            gflops=result.gflops,
            simulated_ms=result.time_ms,
            n_blocks=int(result.meta.get("n_blocks", 0)),
            useful_flops=result.counters.useful_flops,
            bound=result.timing.bound,
            backend=self.report.backend,
            kernel_meta=result.meta,
            preprocessing=self.report,
        )

    def execute(self, B: np.ndarray) -> Tuple[np.ndarray, MultiplyReport]:
        """Compute ``C = A @ B`` and return it with a :class:`MultiplyReport`.

        ``C`` is one scipy CSR product of ``A`` in its original order (the
        operator cached on ``A``, shared by every plan of the matrix); the
        report prices the plan's block structure on the simulated device (see
        :meth:`price`).  ``B`` may be a ``(K, N)`` dense matrix or a
        length-``K`` vector (SpMV); a vector input yields a vector output.
        """
        B_arr = np.asarray(B)
        C = self.A.spmm(B_arr)
        report = self.price(C.shape[1])
        if B_arr.ndim == 1:
            C = C.ravel()
        return C, report

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ExecutionPlan A={self.A.shape} nnz={self.A.nnz} "
            f"backend={self.report.backend!r} reorder={self.config.reorder!r} "
            f"variant={self.config.variant!r} blocks={self.report.blocks_after}>"
        )


def build_with_fallback(
    A: CSRMatrix, config: SMaTConfig, *, tuner=None, tracer=None
) -> ExecutionPlan:
    """Build one plan, falling back to SMaT when the requested backend
    cannot handle the matrix.

    Shared by the engine's plan factory and the per-shard planner so the
    fallback behaves identically across layers.  A
    :class:`~repro.kernels.KernelUnsupportedError` from the build (e.g.
    cuBLAS densification or Magicube preprocessing exceeding device
    memory) is absorbed for every backend except SMaT itself: the plan is
    rebuilt with ``kernel="smat"`` and the fallback -- the *concrete*
    backend that failed (also when ``"auto"`` was requested and the tuner
    selected it), and why -- is recorded in the plan's
    :class:`PreprocessReport`.

    ``tuner`` resolves the configuration before building (the engine's
    tuned path); without one, an ``"auto"`` kernel or reordering is
    resolved here through a default :class:`~repro.tuner.Tuner` so the
    failing backend is still known by name on fallback.  When the
    resolution ran a search, the plan it built for its winner is served
    and nothing is built again; a tuning-cache hit builds once.

    ``tracer`` (a :class:`repro.obs.Tracer`) wraps the build attempt in a
    ``kernel.build`` span and any SMaT rebuild in a ``kernel.fallback``
    span, so traces show exactly where dispatch failed and why.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    config = config.validate()
    requested = config.resolved_kernel()
    failed = requested
    try:
        plan = None
        if tuner is not None:
            resolved, plan = tuner.resolve_with_plan(A, config)
        elif _is_auto(config):
            resolved, plan = _resolve_auto(A, config)
        else:
            resolved = config
        if plan is not None:
            return plan
        failed = resolved.resolved_kernel()
        with tracer.span("kernel.build", backend=failed) as span:
            plan = ExecutionPlan.build(A, resolved)
            span.set(blocks=plan.report.blocks_after)
            return plan
    except KernelUnsupportedError as exc:
        if "smat" in (requested, failed):
            raise
        with tracer.span("kernel.fallback", requested=failed) as span:
            plan = ExecutionPlan.build(A, replace(config, kernel="smat"))
            span.set(blocks=plan.report.blocks_after)
        plan.report.fallback_from = failed if failed != "auto" else requested
        plan.report.fallback_error = str(exc)
        return plan

