"""Model-guided pruning of the tuning search space.

Measuring a candidate is expensive: it runs a full preprocessing pass
(reordering + BCSR conversion) before the kernel can be priced.  This
module prices candidates *without* reordering, using the paper's own
machinery:

1. **Calibration** (per kernel backend / block shape / variant /
   precision / arch / operand width): the linear runtime model of Eq. 1,
   ``T = T_e * n_e + T_init``, is fitted with
   :class:`~repro.core.perfmodel.LinearPerformanceModel` on a handful of
   tiny synthetic matrices priced through the real kernel and
   :class:`~repro.gpu.cost.CostModel` -- exactly the fit of Figure 2,
   just automated.  The predictor ``n_e`` is *each kernel's own* work
   measure (:meth:`~repro.kernels.base.SpMMKernel.tuning_work`): BCSR
   block count for SMaT, streamed non-zeros for the CSR-based libraries,
   densified ``M x K`` elements for cuBLAS.  Calibrations are memoised
   process-wide, so they are paid once, not per matrix, and each sample
   matrix is built once for every backend and block shape.
2. **Block-count bounds** (per matrix x block shape, SMaT only): the
   candidate's ``n_e`` after reordering is unknown before the reordering
   runs, but it is bracketed by Eq. 2: no permutation can pack the matrix
   below ``ceil(nnz / (h*w))`` blocks, and ``auto_skip_reordering``
   guarantees it never ends up *above* the current ordering's block count
   (which is a cheap O(nnz) :func:`~repro.reorder.metrics.count_blocks`
   pass).  Non-blocked backends have no reordering bracket: their work
   measure is exact, so optimistic == guaranteed.

Together these give every candidate an optimistic / guaranteed predicted
time, and the search discards candidates whose *optimistic* time is worse
than the best *guaranteed* time of the space -- they cannot win even with
a perfect permutation.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.config import SMaTConfig
from ..core.perfmodel import FitResult, LinearPerformanceModel, block_count_bounds
from ..formats import CSRMatrix
from ..kernels import SMaTKernel, get_kernel
from ..matrices import band_matrix
from ..reorder.metrics import count_blocks

__all__ = ["CandidateEstimate", "calibrate", "estimate_candidate", "clear_calibration_cache"]

#: dimension of the synthetic calibration matrices; small enough that one
#: calibration costs a few milliseconds, large enough to span block counts
CALIBRATION_DIM = 512
#: band widths of the calibration samples (varying n_e, as in Figure 2)
CALIBRATION_BANDWIDTHS = (2, 8, 32, 96)
#: (dimension, bandwidth) calibration samples for non-SMaT backends: the
#: dimensions vary too, so work measures that do not follow nnz (cuBLAS's
#: M x K) still span a fittable range
CALIBRATION_SAMPLES = ((256, 8), (384, 24), (512, 8), (512, 64), (768, 48))

_CalKey = Tuple[str, Tuple[int, int], str, str, str, int]
_CALIBRATIONS: Dict[_CalKey, FitResult] = {}
#: the calibration samples by (dimension, bandwidth), shared by every
#: backend and block shape
_SAMPLES: Dict[Tuple[int, int], CSRMatrix] = {}
_CAL_LOCK = threading.Lock()


@dataclass(frozen=True)
class CandidateEstimate:
    """Analytical prediction for one candidate on one matrix."""

    #: the backend's work measure at the current ordering -- BCSR block
    #: count for SMaT (guaranteed achievable: auto_skip_reordering falls
    #: back to it), nnz / densified elements for the baseline libraries
    blocks_now: int
    #: Eq. 2 lower bound on the block count of *any* ordering (SMaT);
    #: equal to ``blocks_now`` for backends with no reordering bracket
    blocks_lower_bound: int
    #: predicted time at ``blocks_now`` (seconds)
    guaranteed_s: float
    #: predicted time at ``blocks_lower_bound`` (seconds)
    optimistic_s: float

    @property
    def optimistic_ms(self) -> float:
        """Predicted time at the Eq. 2 lower block-count bound (ms)."""
        return 1e3 * self.optimistic_s


def _calibration_key(
    config: SMaTConfig, block_shape: Tuple[int, int], n_cols: int, kernel: str
) -> _CalKey:
    variant = config.variant if isinstance(config.variant, str) else config.variant.label
    return (
        kernel,
        (int(block_shape[0]), int(block_shape[1])),
        config.resolved_precision().key,
        variant,
        config.arch.name,
        int(n_cols),
    )


def _sample(dim: int, bandwidth: int) -> CSRMatrix:
    """The band calibration sample of ``(dim, bandwidth)``, built once per
    process (until :func:`clear_calibration_cache`)."""
    key = (dim, bandwidth)
    with _CAL_LOCK:
        A = _SAMPLES.get(key)
    if A is None:
        A = band_matrix(dim, bandwidth, rng=np.random.default_rng(bandwidth))
        with _CAL_LOCK:
            A = _SAMPLES.setdefault(key, A)
    return A


def calibrate(
    config: SMaTConfig,
    block_shape: Tuple[int, int],
    n_cols: int,
    kernel: str = "smat",
) -> FitResult:
    """Fit Eq. 1 for one (backend, block shape, variant, precision, arch,
    N) point.

    Prices the real kernel on tiny synthetic matrices (no operand, no
    host multiply) and fits simulated time against the kernel's own
    work measure (:meth:`~repro.kernels.base.SpMMKernel.tuning_work`): BCSR block
    counts for SMaT (band matrices of varying bandwidth, the Figure-2
    fit), nnz for the CSR libraries, densified elements for cuBLAS (the
    sample dimensions vary so the measure spans a range).  Memoised
    process-wide.

    May raise :class:`~repro.kernels.KernelUnsupportedError` when the
    backend cannot prepare even the calibration samples (e.g. a simulated
    device too small to densify them); the search treats such a backend
    as unsupported.
    """
    key = _calibration_key(config, block_shape, n_cols, kernel)
    with _CAL_LOCK:
        cached = _CALIBRATIONS.get(key)
    if cached is not None:
        return cached

    work = []
    times = []
    if kernel == "smat":
        for bw in CALIBRATION_BANDWIDTHS:
            A = _sample(CALIBRATION_DIM, bw)
            k = SMaTKernel(
                config.arch,
                config.precision,
                variant=config.variant,
                block_shape=block_shape,
            )
            k.prepare(A)
            result = k.price(n_cols)
            work.append(float(result.counters.extra.get("n_blocks", 0.0)))
            times.append(result.timing.time_s)
    else:
        for dim, bw in CALIBRATION_SAMPLES:
            A = _sample(dim, bw)
            k = get_kernel(kernel, config.arch, config.precision)
            k.prepare(A)
            result = k.price(n_cols)
            work.append(k.tuning_work(A))
            times.append(result.timing.time_s)
    fit = LinearPerformanceModel().fit(work, times)
    with _CAL_LOCK:
        _CALIBRATIONS[key] = fit
    return fit


def clear_calibration_cache() -> None:
    """Drop the memoised Eq. 1 calibrations and their sample matrices
    (mainly for tests)."""
    with _CAL_LOCK:
        _CALIBRATIONS.clear()
        _SAMPLES.clear()


def estimate_candidate(
    A: CSRMatrix,
    config: SMaTConfig,
    block_shape: Tuple[int, int],
    *,
    reorders: bool,
    n_cols: int,
    blocks_now: Optional[int] = None,
    kernel: str = "smat",
) -> CandidateEstimate:
    """Predicted time bracket for one candidate.

    For SMaT candidates, ``reorders`` is False for the identity
    candidate, whose block count is exactly the current ordering's (no
    bracket), and ``blocks_now`` lets the caller reuse one
    :func:`count_blocks` pass across every candidate sharing a block
    shape (the count is an O(nnz) scan of ``A``).

    Non-SMaT candidates are priced with their own backend's calibrated
    cost model against the backend's exact work measure (nnz, densified
    elements, ...): no permutation changes it, so the bracket collapses
    (optimistic == guaranteed).
    """
    fit = calibrate(config, block_shape, n_cols, kernel=kernel)
    if kernel != "smat":
        work = get_kernel(kernel, config.arch, config.precision).tuning_work(A)
        predicted = float(fit.predict(work))
        return CandidateEstimate(
            blocks_now=int(work),
            blocks_lower_bound=int(work),
            guaranteed_s=predicted,
            optimistic_s=predicted,
        )
    if blocks_now is None:
        blocks_now = count_blocks(A, block_shape)
    lower, _ = block_count_bounds(A.nnz, A.nrows, A.ncols, block_shape)
    blocks_best = lower if reorders else blocks_now
    return CandidateEstimate(
        blocks_now=blocks_now,
        blocks_lower_bound=blocks_best,
        guaranteed_s=float(fit.predict(blocks_now)),
        optimistic_s=float(fit.predict(blocks_best)),
    )
