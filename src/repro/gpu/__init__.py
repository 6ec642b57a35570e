"""Analytical GPU (A100) performance-simulation substrate.

The paper's kernels run on a physical NVIDIA A100; this reproduction
executes the same dataflow numerically with NumPy and *times* it with an
analytical model of the A100 (see DESIGN.md for the substitution
rationale).  The model has four parts:

* :mod:`repro.gpu.arch` -- architectural constants (SMs, clocks, peaks),
* :mod:`repro.gpu.precision` / :mod:`repro.gpu.tensorcore` -- MMA
  instruction shapes and Tensor-Core throughput,
* :mod:`repro.gpu.memory` / :mod:`repro.gpu.pipeline` -- memory hierarchy
  traffic, latency, and the async-copy double-buffering overlap,
* :mod:`repro.gpu.scheduler` / :mod:`repro.gpu.cost` -- the static
  warp-to-SM schedule (load imbalance) and the roofline-style composition
  into a simulated wall-clock time.
"""

from .arch import (
    A100_SXM4_40GB,
    H100_SXM5_80GB,
    V100_SXM2_16GB,
    GPUArchitecture,
    get_architecture,
)
from .cost import CostModel, KernelEfficiency, SimulatedTiming
from .counters import KernelCounters
from .memory import AccessPattern, MemoryModel
from .pipeline import PipelineConfig, per_block_cycles, warp_total_cycles
from .precision import MMAShape, Precision, get_precision
from .scheduler import ScheduleResult, makespan_cycles
from .tensorcore import TensorCoreModel

__all__ = [
    "GPUArchitecture",
    "A100_SXM4_40GB",
    "V100_SXM2_16GB",
    "H100_SXM5_80GB",
    "get_architecture",
    "Precision",
    "MMAShape",
    "get_precision",
    "TensorCoreModel",
    "MemoryModel",
    "AccessPattern",
    "PipelineConfig",
    "per_block_cycles",
    "warp_total_cycles",
    "KernelCounters",
    "ScheduleResult",
    "makespan_cycles",
    "CostModel",
    "KernelEfficiency",
    "SimulatedTiming",
]
