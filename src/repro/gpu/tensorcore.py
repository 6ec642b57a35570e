"""Tensor-Core execution model.

Models the warp-level ``mma.sync`` instruction stream of the SMaT kernel
(Listing 1 of the paper): how many cycles a warp needs per MMA when the
pipeline is saturated, the latency of an isolated MMA, and the cost of the
``ldmatrix`` shared-memory-to-register loads that feed it (Listings 2/3).
"""

from __future__ import annotations

from dataclasses import dataclass

from .arch import GPUArchitecture
from .precision import Precision, get_precision

__all__ = [
    "TensorCoreModel",
    "LDMATRIX_X2_CYCLES",
    "LDMATRIX_X4_CYCLES",
]

#: issue cost (cycles) of ldmatrix.x2 / .x4 per warp, from Ampere
#: microbenchmarking literature (Abdelkhalik et al. 2022)
LDMATRIX_X2_CYCLES = 2.0
LDMATRIX_X4_CYCLES = 4.0


@dataclass
class TensorCoreModel:
    """Per-warp and per-SM Tensor-Core throughput for one precision."""

    arch: GPUArchitecture
    precision: Precision

    def __init__(self, arch: GPUArchitecture, precision="fp16"):
        self.arch = arch
        self.precision = get_precision(precision)

    # -- throughput --------------------------------------------------------------
    @property
    def flops_per_mma(self) -> int:
        """FLOPs of one warp-level MMA instruction."""
        return self.precision.mma_shape.flops

    @property
    def sm_mma_per_cycle(self) -> float:
        """MMA instructions retired per SM per cycle at peak."""
        peak_flops_per_cycle = (
            self.precision.tc_peak_tflops(self.arch)
            * 1e12
            / (self.arch.num_sms * self.arch.clock_ghz * 1e9)
        )
        return peak_flops_per_cycle / self.flops_per_mma

    @property
    def warp_mma_issue_cycles(self) -> float:
        """Cycles between successive MMA issues of a single warp when all
        ``warp_schedulers_per_sm`` warps of an SM keep their Tensor Cores
        busy (steady-state pipelined execution).

        For FP16 on the A100 this evaluates to 8 cycles per
        ``mma.m16n8k16``, matching published microbenchmarks.
        """
        return self.arch.warp_schedulers_per_sm / self.sm_mma_per_cycle

    # -- instruction helpers ---------------------------------------------------------
    def device_peak_tflops(self) -> float:
        return self.precision.tc_peak_tflops(self.arch)

    def time_for_mma_count_s(self, mma_instructions: float, efficiency: float = 1.0) -> float:
        """Aggregate-throughput time for a number of MMAs spread perfectly
        over the device (no load imbalance), at a given efficiency."""
        if mma_instructions <= 0:
            return 0.0
        per_device_mma_per_s = (
            self.sm_mma_per_cycle * self.arch.num_sms * self.arch.clock_ghz * 1e9
        )
        return mma_instructions / (per_device_mma_per_s * max(efficiency, 1e-9))
