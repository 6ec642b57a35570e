"""Kernel interface shared by SMaT and the baseline libraries.

Every kernel in this package mirrors one of the libraries evaluated in the
paper (SMaT, cuSPARSE, DASP, Magicube, cuBLAS).  A kernel

1. is *prepared* once for a sparse matrix ``A`` -- the library's
   preprocessing, mirroring the paper's separation between preprocessing
   and execution (Figure 1); it keeps only the structure its cost model
   reads (e.g. SMaT's blocks per block row), never a layout's values, and
2. is *priced* against an ``N``-wide ``B`` (:meth:`SpMMKernel.price`): a
   simulated A100 execution time computed by :mod:`repro.gpu`.
   :meth:`SpMMKernel.run` adds ``C = A @ B``, the prepared matrix's own
   CSR product, which is what every plan serves.
"""

from __future__ import annotations

import abc
import copy
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..formats import CSRMatrix
from ..formats.base import check_dense_operand
from ..formats.csr import matrix_fingerprint
from ..gpu import (
    A100_SXM4_40GB,
    CostModel,
    GPUArchitecture,
    KernelCounters,
    KernelEfficiency,
    Precision,
    SimulatedTiming,
    get_precision,
)

__all__ = ["KernelResult", "SpMMKernel", "KernelUnsupportedError", "PRICE_MEMO_SIZE"]

#: distinct ``B`` widths whose counters one prepared kernel keeps; the
#: oldest width is dropped first
PRICE_MEMO_SIZE = 8


class KernelUnsupportedError(RuntimeError):
    """Raised when a kernel cannot execute a given problem.

    Mirrors real failures reported in the paper, e.g. Magicube running out
    of device memory for large matrices (Section V-D / VI-F).
    """


@dataclass
class KernelResult:
    """Outcome of one simulated SpMM launch."""

    #: the numerical product ``A @ B`` (``None`` from :meth:`SpMMKernel.price`)
    C: Optional[np.ndarray]
    #: simulated execution time and derived GFLOP/s
    timing: SimulatedTiming
    #: raw hardware-event counters that produced the timing
    counters: KernelCounters
    #: kernel (library) name
    kernel: str
    #: free-form per-kernel metadata (block counts, variant flags, ...)
    meta: Dict[str, float] = field(default_factory=dict)

    @property
    def gflops(self) -> float:
        return self.timing.gflops

    @property
    def time_ms(self) -> float:
        return self.timing.time_ms


class SpMMKernel(abc.ABC):
    """Base class of all simulated SpMM kernels.

    Parameters
    ----------
    arch:
        Simulated GPU architecture (defaults to the paper's A100).
    precision:
        Numeric precision of the Tensor-Core path (``"fp16"`` by default,
        matching the paper's evaluation).
    """

    #: human-readable library name ("SMaT", "cuSPARSE", ...)
    name: str = "abstract"
    #: internal storage format the kernel converts the CSR input into
    input_format: str = "csr"
    #: whether the kernel benefits from the block-minimising row
    #: permutation (BCSR-style blocked kernels only) -- the preprocessing
    #: pipeline skips the reordering pass for kernels that do not
    wants_reordering: bool = False
    #: one-line description of the kernel's cost model, surfaced by
    #: ``repro kernels`` and the tuner's search table
    cost_notes: str = ""
    #: per-launch overhead for the cost model (``None``: the architecture's);
    #: a multi-launch kernel counts its launches in ``extra["launches"]``
    launch_overhead_us: Optional[float] = None

    def __init__(self, arch: GPUArchitecture = A100_SXM4_40GB, precision="fp16"):
        self.arch = arch
        self.precision: Precision = get_precision(precision)
        self.cost_model = CostModel(arch, self.precision)
        self._prepared_for: Optional[CSRMatrix] = None
        #: whether the summary describes ``_prepared_for`` under a permutation
        self._permuted = False
        #: n_cols -> (counters, efficiency): plain data, no closures
        self._prices: Dict[int, Tuple[KernelCounters, KernelEfficiency]] = {}
        self._prices_lock = threading.Lock()

    # -- preparation -----------------------------------------------------------
    @abc.abstractmethod
    def prepare(self, A: CSRMatrix) -> None:
        """Summarise ``A`` in the structure the kernel's cost model reads.

        May raise :class:`KernelUnsupportedError` if the kernel cannot
        handle the matrix (e.g. it does not fit in device memory).
        """

    def is_prepared(self) -> bool:
        return self._prepared_for is not None

    def _mark_prepared(self, A: CSRMatrix, *, permuted: bool = False) -> None:
        self._prepared_for = A
        self._permuted = permuted
        self._prices = {}

    def _require_prepared(self) -> CSRMatrix:
        if self._prepared_for is None:
            raise RuntimeError(f"{self.name}: call prepare(A) before run(B)")
        return self._prepared_for

    # -- pricing --------------------------------------------------------------------
    @abc.abstractmethod
    def _counters(self, n_cols: int) -> KernelCounters:
        """Hardware-event counters of one launch against ``n_cols`` columns."""

    @abc.abstractmethod
    def _efficiency(self, counters: KernelCounters) -> KernelEfficiency:
        """How close this implementation gets to each hardware peak."""

    def _meta(self, counters: KernelCounters, timing: SimulatedTiming) -> Dict[str, object]:
        """Per-kernel metadata of one launch (a fresh dict per call)."""
        return {"format": self.input_format}

    def price(self, n_cols: int) -> KernelResult:
        """The simulated price of one launch against an ``n_cols``-wide
        ``B``, as a :class:`KernelResult` without ``C``.

        Counters and efficiency depend only on the prepared matrix and
        ``n_cols``, so they are kept for up to :data:`PRICE_MEMO_SIZE`
        widths (shared, read-only); the cost model runs on every call.
        """
        self._require_prepared()
        entry = self._prices.get(n_cols)
        if entry is None:
            counters = self._counters(n_cols)
            if counters.warp_work_cycles is not None:
                counters.warp_work_cycles.setflags(write=False)
            entry = (counters, self._efficiency(counters))
            with self._prices_lock:
                if n_cols not in self._prices and len(self._prices) >= PRICE_MEMO_SIZE:
                    del self._prices[next(iter(self._prices))]
                self._prices[n_cols] = entry
        counters, efficiency = entry
        timing = self.cost_model.simulate(
            counters,
            efficiency,
            launch_overhead_us=self.launch_overhead_us,
            n_launches=int(counters.extra.get("launches", 1)),
        )
        return KernelResult(
            C=None,
            timing=timing,
            counters=counters,
            kernel=self.name,
            meta=self._meta(counters, timing),
        )

    # -- execution ----------------------------------------------------------------
    def run(self, B: np.ndarray) -> KernelResult:
        """``C = A @ B`` -- the prepared matrix's own CSR product, in its
        own order, as plans serve it -- with the simulated price (see
        :meth:`price`) of the structure the kernel was prepared with, which
        is ``A``'s under the plan's permutation(s) for a plan's kernel.

        Every kernel class binds this function as its own ``run``, so a
        wrapper installed on one class (a profiler, the layer-timing
        benchmark) sees exactly that class's runs."""
        B = self._validate_B(B)
        result = self.price(B.shape[1])
        result.C = self._prepared_for.spmm(B)
        return result

    def multiply(self, A: CSRMatrix, B: np.ndarray) -> KernelResult:
        """Convenience: prepare for ``A`` (if needed) and run against ``B``.

        Re-preparation is keyed on the matrix *content fingerprint*, not
        object identity: an equal matrix loaded twice (two objects, same
        bytes) reuses the prepared state instead of paying the
        preprocessing again.  A kernel prepared under a permutation (a
        plan's) is left as its plan prepared it: a fresh copy of it is
        prepared for ``A`` itself and runs instead.
        """
        kernel = self._unprepared_copy() if self._permuted else self
        prepared = kernel._prepared_for
        if prepared is None or (
            prepared is not A and matrix_fingerprint(prepared) != matrix_fingerprint(A)
        ):
            kernel.prepare(A)
        return kernel.run(B)

    def _unprepared_copy(self) -> "SpMMKernel":
        """A copy with this kernel's configuration and no prepared state."""
        fresh = copy.copy(self)
        fresh._prepared_for = None
        fresh._permuted = False
        fresh._prices = {}
        fresh._prices_lock = threading.Lock()
        return fresh

    def tuning_work(self, A: CSRMatrix) -> float:
        """The work measure the tuner's Eq. 1-style linear cost model
        predicts this kernel's time from (default: stored non-zeros).

        Each kernel owns its cost model: SMaT's time is linear in the
        BCSR block count, the CSR-based libraries stream ``nnz`` entries,
        and cuBLAS pays for the densified ``M x K`` operand regardless of
        sparsity.  The tuner calibrates one linear fit per (kernel,
        configuration) against this measure and prunes candidates with it.
        """
        return float(A.nnz)

    # -- shared helpers ---------------------------------------------------------------
    def _validate_B(self, B: np.ndarray) -> np.ndarray:
        A = self._require_prepared()
        return check_dense_operand(B, A.ncols)

    @staticmethod
    def useful_flops(nnz: int, n_cols: int) -> float:
        """FLOPs that contribute to the result: ``2 * nnz * N`` (one multiply
        and one add per stored entry and output column)."""
        return 2.0 * float(nnz) * float(max(1, n_cols))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} arch={self.arch.name} precision={self.precision.key}>"
