"""The SMaT library: public end-to-end API.

This module mirrors the user-facing pipeline of Figure 1:

1. **Input** -- a sparse matrix in CSR (any precision supported by the
   Tensor Cores),
2. **Preprocessing** -- a row permutation that minimises the number of
   non-zero BCSR blocks (done once; Section IV-C),
3. **Execution** -- the BCSR Tensor-Core kernel (Section IV-D), run as
   many times as needed against different dense matrices ``B``.

The prepared state of steps 1-2 lives in a reusable
:class:`~repro.core.plan.ExecutionPlan`; ``SMaT`` is the one-matrix
convenience wrapper around it, and :class:`~repro.engine.SpMMEngine`
caches plans across many matrices for serving-style workloads.

Example
-------
>>> from repro import SMaT, SMaTConfig
>>> from repro.matrices import suitesparse
>>> import numpy as np
>>> A = suitesparse.load("cop20k_A", scale=0.05)
>>> smat = SMaT(A, SMaTConfig(reorder="jaccard"))
>>> B = np.random.default_rng(0).random((A.ncols, 8), dtype=np.float32)
>>> C, report = smat.multiply(B, return_report=True)
>>> report.gflops > 0
True
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..formats import BCSRMatrix, CSRMatrix
from .config import SMaTConfig
from .plan import ExecutionPlan, MultiplyReport, PreprocessReport

__all__ = ["SMaT", "PreprocessReport", "MultiplyReport"]


class SMaT:
    """(S)parse (Ma)trix Matrix (T)ensor-core accelerated SpMM.

    Parameters
    ----------
    A:
        The sparse matrix in CSR format.
    config:
        Pipeline configuration; defaults to the paper's setup (FP16,
        Jaccard row reordering, full CBT kernel, A100).
    preprocess:
        Run the preprocessing immediately (default True).  When False, the
        first :meth:`multiply` call triggers it.
    """

    def __init__(
        self, A: CSRMatrix, config: Optional[SMaTConfig] = None, *, preprocess: bool = True
    ):
        if not isinstance(A, CSRMatrix):
            raise TypeError(
                "SMaT expects a repro.formats.CSRMatrix input (the paper's input format)"
            )
        self.config = (config or SMaTConfig()).validate()
        self.A = A
        self._plan: Optional[ExecutionPlan] = None
        if preprocess:
            self.preprocess()

    # -- preprocessing ------------------------------------------------------------
    def preprocess(self) -> PreprocessReport:
        """Compute (and apply) the block-minimising permutation and build the
        kernel's internal BCSR representation.  Idempotent."""
        if self._plan is None:
            self._plan = ExecutionPlan.build(self.A, self.config)
        return self._plan.report

    # -- accessors ------------------------------------------------------------------
    @property
    def plan(self) -> ExecutionPlan:
        """The underlying (lazily built) :class:`ExecutionPlan`."""
        self.preprocess()
        assert self._plan is not None
        return self._plan

    @property
    def _preprocess_report(self) -> Optional[PreprocessReport]:
        """Report of the preprocessing stage, or ``None`` before it ran."""
        return self._plan.report if self._plan is not None else None

    @property
    def row_permutation(self) -> np.ndarray:
        """Row permutation applied during preprocessing ("new -> old")."""
        return self.plan.row_perm

    @property
    def column_permutation(self) -> Optional[np.ndarray]:
        """Column permutation, or ``None`` when only rows were permuted."""
        return self.plan.col_perm

    @property
    def bcsr(self) -> BCSRMatrix:
        """The BCSR layout of the permuted matrix, built anew on every
        access (see :attr:`ExecutionPlan.bcsr`)."""
        return self.plan.bcsr

    @property
    def preprocess_report(self) -> PreprocessReport:
        return self.preprocess()

    # -- execution ----------------------------------------------------------------------
    def multiply(
        self,
        B: np.ndarray,
        *,
        return_report: bool = False,
    ):
        """Compute ``C = A @ B``.

        Parameters
        ----------
        B:
            Dense right-hand side of shape ``(K, N)`` (or a length-``K``
            vector for SpMV).
        return_report:
            Also return a :class:`MultiplyReport` with the simulated
            performance figures.

        Returns
        -------
        C or (C, report)
        """
        C, report = self.plan.execute(B)
        if not return_report:
            return C
        return C, report

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<SMaT A={self.A.shape} nnz={self.A.nnz} reorder={self.config.reorder!r} "
            f"variant={self.config.variant!r}>"
        )
