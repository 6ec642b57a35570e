"""GPU architecture descriptions.

The paper evaluates on an NVIDIA A100-SXM4-40GB (Section II-A / V-B).  The
reproduction replaces the physical GPU with an analytical performance
simulator; :class:`GPUArchitecture` collects every architectural constant
the simulator needs.  Values for the A100 follow the paper's Section II-A3
and NVIDIA's published specification; V100 and H100 presets are provided
for sensitivity studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

__all__ = [
    "GPUArchitecture",
    "A100_SXM4_40GB",
    "V100_SXM2_16GB",
    "H100_SXM5_80GB",
    "get_architecture",
]


@dataclass(frozen=True)
class GPUArchitecture:
    """Architectural constants of a (simulated) GPU.

    All throughput values are *theoretical peaks*; per-kernel efficiency
    factors are applied by the kernel cost models, not here.
    """

    name: str
    #: number of streaming multiprocessors
    num_sms: int
    #: boost clock in GHz used to convert cycles to seconds
    clock_ghz: float
    #: warp width (threads per warp)
    warp_size: int = 32
    #: Tensor Cores per SM
    tensor_cores_per_sm: int = 4
    #: FP32 CUDA cores per SM
    cuda_cores_per_sm: int = 64
    #: peak FP16 Tensor-Core throughput of the whole device, in TFLOP/s
    tc_fp16_tflops: float = 312.0
    #: peak FP32 CUDA-core throughput of the whole device, in TFLOP/s
    fp32_tflops: float = 19.5
    #: peak FP64 throughput in TFLOP/s (CUDA cores; A100 also has FP64 TC)
    fp64_tflops: float = 9.7
    #: HBM capacity in GiB
    hbm_capacity_gib: float = 40.0
    #: HBM bandwidth in GB/s
    hbm_bandwidth_gbs: float = 1555.0
    #: L2 cache size in MiB
    l2_cache_mib: float = 40.0
    #: L2 bandwidth in GB/s (approximate, microbenchmarked values)
    l2_bandwidth_gbs: float = 4000.0
    #: shared memory per SM in KiB (maximum configurable)
    shared_mem_per_sm_kib: float = 164.0
    #: shared-memory banks per SM
    shared_mem_banks: int = 32
    #: bytes per bank per clock
    shared_mem_bank_bytes_per_clock: int = 8
    #: register file size per SM in KiB
    registers_per_sm_kib: float = 256.0
    #: maximum resident warps per SM
    max_warps_per_sm: int = 64
    #: warp schedulers per SM (concurrent issue slots)
    warp_schedulers_per_sm: int = 4
    #: global-memory access latency in cycles (uncached)
    global_latency_cycles: int = 480
    #: shared-memory access latency in cycles
    shared_latency_cycles: int = 24
    #: fixed kernel launch + initialisation overhead in microseconds
    #: (the ``T_init`` of the paper's Eq. 1)
    kernel_launch_overhead_us: float = 4.0

    # -- derived quantities -------------------------------------------------------
    @property
    def cycle_time_ns(self) -> float:
        """Duration of one clock cycle in nanoseconds."""
        return 1.0 / self.clock_ghz

    @property
    def tc_fp16_flops_per_sm_per_cycle(self) -> float:
        """FP16 Tensor-Core FLOPs retired per SM per clock at peak."""
        return self.tc_fp16_tflops * 1e12 / (self.num_sms * self.clock_ghz * 1e9)

    @property
    def shared_bandwidth_gbs(self) -> float:
        """Aggregate shared-memory bandwidth of the device in GB/s."""
        per_sm_bytes_per_clock = self.shared_mem_banks * self.shared_mem_bank_bytes_per_clock
        return per_sm_bytes_per_clock * self.num_sms * self.clock_ghz

    def peak_tflops(self, precision_name: str) -> float:
        """Peak Tensor-Core throughput for a precision name (``"fp16"``,
        ``"bf16"``, ``"tf32"``, ``"int8"``, ``"fp64"``)."""
        p = precision_name.lower()
        if p in ("fp16", "bf16", "half"):
            return self.tc_fp16_tflops
        if p == "tf32":
            return self.tc_fp16_tflops / 2.0
        if p == "int8":
            return self.tc_fp16_tflops * 2.0
        if p == "fp64":
            return self.fp64_tflops * 2.0  # A100 FP64 tensor cores
        if p == "fp32":
            return self.fp32_tflops
        raise ValueError(f"unknown precision {precision_name!r}")

    def with_overrides(self, **kwargs) -> "GPUArchitecture":
        """Return a copy with some fields replaced (for what-if studies)."""
        return replace(self, **kwargs)


#: the paper's evaluation platform
A100_SXM4_40GB = GPUArchitecture(
    name="A100-SXM4-40GB",
    num_sms=108,
    clock_ghz=1.41,
)

V100_SXM2_16GB = GPUArchitecture(
    name="V100-SXM2-16GB",
    num_sms=80,
    clock_ghz=1.53,
    tensor_cores_per_sm=8,
    tc_fp16_tflops=125.0,
    fp32_tflops=15.7,
    fp64_tflops=7.8,
    hbm_capacity_gib=16.0,
    hbm_bandwidth_gbs=900.0,
    l2_cache_mib=6.0,
    shared_mem_per_sm_kib=96.0,
)

H100_SXM5_80GB = GPUArchitecture(
    name="H100-SXM5-80GB",
    num_sms=132,
    clock_ghz=1.83,
    tc_fp16_tflops=989.0,
    fp32_tflops=67.0,
    fp64_tflops=34.0,
    hbm_capacity_gib=80.0,
    hbm_bandwidth_gbs=3350.0,
    l2_cache_mib=50.0,
    shared_mem_per_sm_kib=228.0,
)

_ARCHITECTURES: Dict[str, GPUArchitecture] = {
    "a100": A100_SXM4_40GB,
    "a100-sxm4-40gb": A100_SXM4_40GB,
    "v100": V100_SXM2_16GB,
    "h100": H100_SXM5_80GB,
}


def get_architecture(name: str) -> GPUArchitecture:
    """Look up an architecture preset by (case-insensitive) name."""
    key = name.lower()
    if key not in _ARCHITECTURES:
        raise ValueError(f"unknown architecture {name!r}; known: {sorted(_ARCHITECTURES)}")
    return _ARCHITECTURES[key]
