"""Cost model: turn kernel counters into simulated execution times.

This is the replacement for "running on the A100": every kernel in
:mod:`repro.kernels` produces a :class:`~repro.gpu.counters.KernelCounters`
record, and :class:`CostModel` converts it into a wall-clock estimate by
combining

* a **compute** term -- either the makespan of the static warp schedule
  (when per-warp work is available, capturing load imbalance) or an
  aggregate-throughput estimate over the Tensor Cores / CUDA cores,
* a **memory** term -- DRAM (and shared-memory) traffic over the
  respective bandwidths,
* a **scalar/issue** term -- per-non-zero index decode work of unblocked
  formats, executed on the regular pipelines,
* the fixed launch/initialisation overhead ``T_init`` of Eq. 1.

The total follows the usual bounded-overlap (roofline-style) composition:
``T = max(compute, memory, scalar) + T_init``.  Per-kernel efficiency
factors (how close a given implementation gets to each peak) are passed
in by the kernel models, keeping this module architecture-generic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from .arch import A100_SXM4_40GB, GPUArchitecture
from .counters import KernelCounters
from .memory import AccessPattern, MemoryModel
from .precision import Precision, get_precision
from .scheduler import ScheduleResult, makespan_cycles
from .tensorcore import TensorCoreModel

__all__ = ["KernelEfficiency", "SimulatedTiming", "CostModel"]


@dataclass(frozen=True)
class KernelEfficiency:
    """How close a particular kernel implementation gets to each hardware
    peak.  These factors encapsulate implementation quality (instruction
    mix, occupancy, issue-slot pressure) and are calibrated per kernel in
    :mod:`repro.kernels` against the anchor points the paper reports.
    """

    #: fraction of Tensor-Core peak reachable by the kernel's MMA stream
    tensor_core: float = 0.85
    #: fraction of CUDA-core peak reachable by scalar/FMA work
    cuda_core: float = 0.5
    #: DRAM access pattern quality
    memory: AccessPattern = field(default_factory=AccessPattern)
    #: instructions-per-cycle for scalar bookkeeping work per SM
    scalar_ipc: float = 2.0


@dataclass
class SimulatedTiming:
    """Simulated execution time of one kernel launch."""

    time_s: float
    useful_flops: float
    breakdown: Dict[str, float] = field(default_factory=dict)
    bound: str = "compute"
    schedule: Optional[ScheduleResult] = None

    @property
    def time_ms(self) -> float:
        return self.time_s * 1e3

    @property
    def time_us(self) -> float:
        return self.time_s * 1e6

    @property
    def gflops(self) -> float:
        """Useful GFLOP/s (the figure-of-merit of the paper's plots)."""
        return self.useful_flops / self.time_s / 1e9 if self.time_s > 0 else 0.0

    def as_dict(self) -> Dict[str, float]:
        out = {
            "time_ms": self.time_ms,
            "gflops": self.gflops,
            "bound": self.bound,
        }
        out.update({f"t_{k}_ms": v * 1e3 for k, v in self.breakdown.items()})
        return out


class CostModel:
    """Analytical A100 cost model shared by every kernel."""

    def __init__(self, arch: GPUArchitecture = A100_SXM4_40GB, precision="fp16"):
        self.arch = arch
        self.precision: Precision = get_precision(precision)
        self.memory = MemoryModel(arch)
        self.tensor_cores = TensorCoreModel(arch, self.precision)

    # -- individual terms ----------------------------------------------------------
    def compute_time_s(
        self,
        counters: KernelCounters,
        efficiency: KernelEfficiency,
    ) -> tuple[float, Optional[ScheduleResult]]:
        """Compute-side time: schedule makespan if per-warp work is known,
        otherwise aggregate throughput over the relevant execution units."""
        schedule = None
        if counters.warp_work_cycles is not None and counters.warp_work_cycles.size:
            schedule = makespan_cycles(counters.warp_work_cycles, self.arch)
            cycles = schedule.makespan_cycles / max(efficiency.tensor_core, 1e-9)
            return cycles * self.arch.cycle_time_ns * 1e-9, schedule

        t = 0.0
        if counters.mma_instructions:
            t += self.tensor_cores.time_for_mma_count_s(
                counters.mma_instructions, efficiency.tensor_core
            )
        if counters.cuda_core_flops:
            peak = self.arch.fp32_tflops * 1e12 * max(efficiency.cuda_core, 1e-9)
            t += counters.cuda_core_flops / peak
        return t, schedule

    def scalar_time_s(self, counters: KernelCounters, efficiency: KernelEfficiency) -> float:
        """Time spent on index decode / address arithmetic instructions."""
        if not counters.scalar_instructions:
            return 0.0
        issue_rate = (
            self.arch.num_sms
            * self.arch.warp_schedulers_per_sm
            * efficiency.scalar_ipc
            * self.arch.clock_ghz
            * 1e9
        )
        return counters.scalar_instructions / issue_rate

    def memory_time_s(self, counters: KernelCounters, efficiency: KernelEfficiency) -> float:
        """DRAM plus shared-memory streaming time."""
        t = self.memory.dram_time_s(counters.bytes_global, efficiency.memory)
        t += self.memory.shared_time_s(counters.bytes_shared, efficiency.memory)
        return t

    # -- composition --------------------------------------------------------------------
    def simulate(
        self,
        counters: KernelCounters,
        efficiency: Optional[KernelEfficiency] = None,
        *,
        launch_overhead_us: Optional[float] = None,
        n_launches: int = 1,
    ) -> SimulatedTiming:
        """Combine all terms into a simulated wall-clock time.

        ``n_launches`` multiplies the fixed overhead (used by the DASP
        baseline, which issues one SpMV kernel per column of ``B``).
        """
        efficiency = efficiency or KernelEfficiency()
        t_compute, schedule = self.compute_time_s(counters, efficiency)
        t_memory = self.memory_time_s(counters, efficiency)
        t_scalar = self.scalar_time_s(counters, efficiency)
        overhead_us = (
            launch_overhead_us
            if launch_overhead_us is not None
            else self.arch.kernel_launch_overhead_us
        )
        t_overhead = overhead_us * 1e-6 * max(1, n_launches)

        body = max(t_compute, t_memory, t_scalar)
        if body == t_memory and t_memory >= t_compute:
            bound = "memory"
        elif body == t_scalar and t_scalar >= t_compute:
            bound = "scalar"
        else:
            bound = "compute"

        total = body + t_overhead
        return SimulatedTiming(
            time_s=total,
            useful_flops=counters.useful_flops,
            breakdown={
                "compute": t_compute,
                "memory": t_memory,
                "scalar": t_scalar,
                "overhead": t_overhead,
            },
            bound=bound,
            schedule=schedule,
        )
