"""Static warp-to-SM schedule model.

SMaT uses "bottom-up 2D parallelism": every warp owns one Tensor-Core
sized tile of the output matrix ``C`` and sequentially processes the BCSR
blocks of its block row (Figure 1, Algorithm 1).  The grid is *static*:
warps are assigned to SMs up front, so a skewed distribution of blocks per
block row translates directly into load imbalance -- the effect the paper
analyses for ``cant``, ``mip1`` and (catastrophically) ``dc2``
(Sections VI-B and VI-E).

:func:`makespan_cycles` turns a vector of per-warp work (in cycles) into
the device completion time of such a static schedule:

* warps are dealt round-robin to SMs in launch order (the hardware's
  block-to-SM rasterisation),
* inside an SM, ``warp_schedulers_per_sm`` warps execute concurrently
  (that is what saturates the SM's Tensor Cores), so an SM's completion
  time is at least ``total_work / schedulers`` and at least the longest
  single warp assigned to it,
* the device finishes when its slowest SM finishes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arch import GPUArchitecture

__all__ = ["ScheduleResult", "makespan_cycles"]


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of scheduling a set of warps onto the device."""

    makespan_cycles: float
    #: lower bound assuming perfect load balance (total work / device slots)
    balanced_cycles: float
    #: longest single warp (a hard lower bound regardless of balance)
    critical_path_cycles: float
    n_warps: int
    n_sms_used: int

    @property
    def load_imbalance(self) -> float:
        """Makespan divided by the perfectly balanced time (>= 1)."""
        if self.balanced_cycles <= 0:
            return 1.0
        return self.makespan_cycles / self.balanced_cycles


def makespan_cycles(
    warp_cycles: np.ndarray,
    arch: GPUArchitecture,
    *,
    concurrent_warps_per_sm: int | None = None,
) -> ScheduleResult:
    """Completion time (in cycles) of a static round-robin warp schedule.

    Parameters
    ----------
    warp_cycles:
        Work of each warp in cycles, in launch order.
    arch:
        Target architecture (supplies SM count and scheduler width).
    concurrent_warps_per_sm:
        How many warps an SM can execute *at full per-warp speed*
        simultaneously.  Defaults to ``arch.warp_schedulers_per_sm``
        (one warp per scheduler keeps the Tensor Cores saturated; more
        resident warps only help hide latency, which the per-warp cycle
        counts already account for).
    """
    warp_cycles = np.asarray(warp_cycles, dtype=np.float64)
    n_warps = int(warp_cycles.size)
    if n_warps == 0:
        return ScheduleResult(0.0, 0.0, 0.0, 0, 0)
    slots = concurrent_warps_per_sm or arch.warp_schedulers_per_sm
    n_sms = arch.num_sms

    # round-robin dealing: warp i runs on SM i % n_sms, so row r of the
    # zero-padded (rounds, n_sms) view is launch round r; the column sums
    # add each SM's warps in launch order
    dealt = np.zeros((-(-n_warps // n_sms), n_sms))
    dealt.reshape(-1)[:n_warps] = warp_cycles
    sm_work = dealt.sum(axis=0)
    sm_longest = dealt.max(axis=0)

    per_sm_time = np.maximum(sm_work / slots, sm_longest)
    makespan = float(per_sm_time.max())

    total = float(warp_cycles.sum())
    balanced = total / (n_sms * slots)
    critical = float(warp_cycles.max())
    return ScheduleResult(
        makespan_cycles=makespan,
        balanced_cycles=max(balanced, critical if n_warps <= n_sms * slots else balanced),
        critical_path_cycles=critical,
        n_warps=n_warps,
        n_sms_used=int(np.count_nonzero(sm_work)),
    )
