"""Tests for the GPU architecture / precision / memory / scheduler models."""

import numpy as np
import pytest

from repro.gpu import (
    A100_SXM4_40GB,
    H100_SXM5_80GB,
    V100_SXM2_16GB,
    AccessPattern,
    CostModel,
    KernelCounters,
    KernelEfficiency,
    MemoryModel,
    Precision,
    TensorCoreModel,
    get_architecture,
    get_precision,
    makespan_cycles,
)
from repro.gpu.pipeline import PipelineConfig, per_block_cycles, warp_total_cycles


class TestArchitecture:
    def test_a100_paper_parameters(self):
        """Section II-A3 quotes these A100 figures."""
        a = A100_SXM4_40GB
        assert a.num_sms == 108
        assert a.hbm_capacity_gib == 40.0
        assert a.hbm_bandwidth_gbs == pytest.approx(1555.0, rel=0.05)
        assert a.shared_mem_per_sm_kib == 164.0
        assert a.shared_mem_banks == 32
        assert a.registers_per_sm_kib == 256.0
        assert a.tc_fp16_tflops == 312.0

    def test_cycle_time(self):
        assert A100_SXM4_40GB.cycle_time_ns == pytest.approx(1 / 1.41)

    def test_tc_flops_per_sm_per_cycle(self):
        # 312 TFLOP/s over 108 SMs at 1.41 GHz ~= 2048 FLOP/SM/cycle
        assert A100_SXM4_40GB.tc_fp16_flops_per_sm_per_cycle == pytest.approx(2048, rel=0.05)

    def test_precision_peaks(self):
        a = A100_SXM4_40GB
        assert a.peak_tflops("fp16") == 312.0
        assert a.peak_tflops("tf32") == 156.0
        assert a.peak_tflops("int8") == 624.0
        assert a.peak_tflops("fp32") == 19.5
        with pytest.raises(ValueError):
            a.peak_tflops("fp8")

    def test_architecture_lookup(self):
        assert get_architecture("a100") is A100_SXM4_40GB
        assert get_architecture("V100") is V100_SXM2_16GB
        assert get_architecture("h100") is H100_SXM5_80GB
        with pytest.raises(ValueError):
            get_architecture("mi300")

    def test_with_overrides(self):
        slow = A100_SXM4_40GB.with_overrides(hbm_bandwidth_gbs=800.0)
        assert slow.hbm_bandwidth_gbs == 800.0
        assert A100_SXM4_40GB.hbm_bandwidth_gbs == 1555.0


class TestPrecision:
    def test_fp16_mma_shape_is_m16n8k16(self):
        """The paper's Listing 1 uses mma.m16n8k16 for FP16."""
        p = Precision.FP16
        assert (p.mma_shape.m, p.mma_shape.n, p.mma_shape.k) == (16, 8, 16)
        assert p.mma_shape.flops == 2 * 16 * 8 * 16
        assert p.block_shape == (16, 8)
        assert p.itemsize == 2

    def test_lookup_aliases(self):
        assert get_precision("half") is Precision.FP16
        assert get_precision("bf16") is Precision.BF16
        assert get_precision(Precision.INT8) is Precision.INT8
        with pytest.raises(ValueError):
            get_precision("fp8")

    def test_mma_count_for_block(self):
        p = Precision.FP16
        # one 16x8 block against 8 columns: one fragment, one column tile
        assert p.mma_count_for_block((16, 8), 8) == 1
        # 128 columns -> 16 column tiles
        assert p.mma_count_for_block((16, 8), 128) == 16
        # a 16x16 block exactly fills one m16k16 A fragment
        assert p.mma_count_for_block((16, 16), 8) == 1
        # a 32x32 block needs 2 row fragments x 2 K fragments
        assert p.mma_count_for_block((32, 32), 8) == 4

    def test_int8_shape(self):
        assert Precision.INT8.mma_shape.k == 32


class TestTensorCoreModel:
    def test_fp16_issue_interval_is_eight_cycles(self):
        tc = TensorCoreModel(A100_SXM4_40GB, "fp16")
        assert tc.warp_mma_issue_cycles == pytest.approx(8.0, rel=0.06)

    def test_time_for_mma_count_scales_linearly(self):
        tc = TensorCoreModel(A100_SXM4_40GB, "fp16")
        t1 = tc.time_for_mma_count_s(1e6)
        t2 = tc.time_for_mma_count_s(2e6)
        assert t2 == pytest.approx(2 * t1)

    def test_device_peak(self):
        tc = TensorCoreModel(A100_SXM4_40GB, "fp16")
        assert tc.device_peak_tflops() == 312.0
        # 1e9 MMAs at peak: 1e9 * 4096 FLOP / 312 TFLOP/s
        assert tc.time_for_mma_count_s(1e9, efficiency=1.0) == pytest.approx(
            1e9 * 4096 / 312e12, rel=1e-6
        )


class TestMemoryModel:
    def test_dram_time_at_peak(self):
        mm = MemoryModel(A100_SXM4_40GB)
        one_gb = 1e9
        assert mm.dram_time_s(one_gb) == pytest.approx(1e9 / (1555e9), rel=1e-6)

    def test_coalescing_slows_transfers(self):
        mm = MemoryModel(A100_SXM4_40GB)
        fast = mm.dram_time_s(1e9, AccessPattern(coalescing=1.0))
        slow = mm.dram_time_s(1e9, AccessPattern(coalescing=0.25))
        assert slow == pytest.approx(4 * fast)

    def test_l2_hits_speed_up_reads(self):
        mm = MemoryModel(A100_SXM4_40GB)
        no_hit = mm.dram_time_s(1e9, AccessPattern(l2_hit_rate=0.0))
        half_hit = mm.dram_time_s(1e9, AccessPattern(l2_hit_rate=0.5))
        assert half_hit < no_hit

    def test_shared_time_and_bank_conflicts(self):
        mm = MemoryModel(A100_SXM4_40GB)
        base = mm.shared_time_s(1e6)
        conflicted = mm.shared_time_s(1e6, AccessPattern(bank_conflict_factor=4.0))
        assert conflicted == pytest.approx(4 * base)

    def test_capacity_check(self):
        mm = MemoryModel(A100_SXM4_40GB)
        assert mm.fits_in_device_memory(10 * 2**30)
        assert not mm.fits_in_device_memory(41 * 2**30)

    def test_access_pattern_validation(self):
        with pytest.raises(ValueError):
            AccessPattern(coalescing=0.0)
        with pytest.raises(ValueError):
            AccessPattern(bank_conflict_factor=0.5)
        with pytest.raises(ValueError):
            AccessPattern(l2_hit_rate=1.0)

    def test_latency_terms(self):
        mm = MemoryModel(A100_SXM4_40GB)
        assert mm.global_latency_s(1) > mm.shared_latency_s(1) > 0


class TestScheduler:
    def test_round_robin_assignment(self):
        """Warp i runs on SM i % num_sms: with one warp slot per SM and
        power-of-two warp costs, the makespan names the busiest SM's warps."""
        arch = A100_SXM4_40GB.with_overrides(num_sms=4)
        res = makespan_cycles(2.0 ** np.arange(10), arch, concurrent_warps_per_sm=1)
        assert res.makespan_cycles == 2**1 + 2**5 + 2**9  # SM 1 runs warps 1, 5, 9
        assert res.n_sms_used == 4
        assert makespan_cycles(np.ones(3), arch).n_sms_used == 3

    @pytest.mark.parametrize("num_sms", [4, 108])
    def test_matches_scatter_formula(self, num_sms):
        """Bit-equal to the per-warp scatter it replaced (bincount for the
        SM totals, maximum.at for the longest warp per SM)."""
        arch = A100_SXM4_40GB.with_overrides(num_sms=num_sms)
        slots = arch.warp_schedulers_per_sm
        rng = np.random.default_rng(num_sms)
        for n_warps in range(501):
            warps = rng.exponential(scale=500.0, size=n_warps)
            res = makespan_cycles(warps, arch)
            if n_warps == 0:
                assert (res.makespan_cycles, res.n_sms_used) == (0.0, 0)
                continue
            sm_of_warp = np.arange(n_warps) % num_sms
            sm_work = np.bincount(sm_of_warp, weights=warps, minlength=num_sms)
            sm_longest = np.zeros(num_sms)
            np.maximum.at(sm_longest, sm_of_warp, warps)
            expected = float(np.maximum(sm_work / slots, sm_longest).max())
            assert res.makespan_cycles == expected, n_warps
            assert res.n_sms_used == int(np.count_nonzero(sm_work)), n_warps

    def test_empty_schedule(self):
        res = makespan_cycles(np.array([]), A100_SXM4_40GB)
        assert res.makespan_cycles == 0.0
        assert res.n_warps == 0

    def test_single_warp_is_critical_path(self):
        res = makespan_cycles(np.array([1000.0]), A100_SXM4_40GB)
        assert res.makespan_cycles == 1000.0
        assert res.critical_path_cycles == 1000.0

    def test_balanced_load_uses_all_sms(self):
        arch = A100_SXM4_40GB
        warps = np.full(arch.num_sms * arch.warp_schedulers_per_sm, 100.0)
        res = makespan_cycles(warps, arch)
        assert res.makespan_cycles == pytest.approx(100.0)
        assert res.load_imbalance == pytest.approx(1.0, rel=0.01)

    def test_skewed_load_raises_makespan(self):
        arch = A100_SXM4_40GB
        balanced = np.full(4320, 100.0)
        skewed = balanced.copy()
        skewed[0] = 100_000.0
        res_b = makespan_cycles(balanced, arch)
        res_s = makespan_cycles(skewed, arch)
        assert res_s.makespan_cycles > res_b.makespan_cycles
        assert res_s.makespan_cycles >= 100_000.0
        assert res_s.load_imbalance > 1.0

    def test_makespan_never_below_balanced_bound(self, rng):
        arch = A100_SXM4_40GB
        warps = rng.exponential(scale=500.0, size=3000)
        res = makespan_cycles(warps, arch)
        total = warps.sum()
        assert res.makespan_cycles >= total / (arch.num_sms * arch.warp_schedulers_per_sm) - 1e-6
        assert res.makespan_cycles >= warps.max() - 1e-6


class TestPipeline:
    def test_async_overlap_takes_max(self):
        cfg = PipelineConfig(async_copy=True, double_buffered=True)
        assert per_block_cycles(10.0, 30.0, cfg) == 30.0
        assert per_block_cycles(30.0, 10.0, cfg) == 30.0

    def test_sync_adds_costs(self):
        cfg = PipelineConfig(async_copy=False, double_buffered=False)
        assert per_block_cycles(10.0, 30.0, cfg) == 40.0

    def test_warp_total_includes_pipeline_fill(self):
        cfg = PipelineConfig(async_copy=True, double_buffered=True)
        total = warp_total_cycles(5, 10.0, 30.0, cfg, prologue_cycles=7.0)
        assert total == pytest.approx(7.0 + (10.0 + 30.0) + 4 * 30.0)

    def test_zero_blocks(self):
        cfg = PipelineConfig()
        assert warp_total_cycles(0, 10.0, 30.0, cfg, prologue_cycles=5.0) == 5.0


class TestCostModel:
    def test_memory_bound_detection(self):
        cm = CostModel(A100_SXM4_40GB, "fp16")
        counters = KernelCounters(useful_flops=1e6, bytes_global_read=10e9)
        timing = cm.simulate(counters)
        assert timing.bound == "memory"
        assert timing.time_s > 10e9 / 1555e9 * 0.9

    def test_compute_bound_detection(self):
        cm = CostModel(A100_SXM4_40GB, "fp16")
        counters = KernelCounters(
            useful_flops=1e12, mma_instructions=1e12 / 4096, mma_flops=1e12,
            bytes_global_read=1e6,
        )
        timing = cm.simulate(counters)
        assert timing.bound == "compute"

    def test_overhead_added(self):
        cm = CostModel(A100_SXM4_40GB, "fp16")
        timing = cm.simulate(KernelCounters(useful_flops=1.0), launch_overhead_us=10.0)
        assert timing.time_us >= 10.0

    def test_launch_count_multiplies_overhead(self):
        cm = CostModel(A100_SXM4_40GB, "fp16")
        one = cm.simulate(KernelCounters(useful_flops=1.0), launch_overhead_us=5.0, n_launches=1)
        ten = cm.simulate(KernelCounters(useful_flops=1.0), launch_overhead_us=5.0, n_launches=10)
        assert ten.time_us == pytest.approx(one.time_us * 10, rel=0.01)

    def test_gflops_derived_from_useful_flops(self):
        cm = CostModel(A100_SXM4_40GB, "fp16")
        counters = KernelCounters(useful_flops=2e9, bytes_global_read=1e9)
        timing = cm.simulate(counters)
        assert timing.gflops == pytest.approx(2.0 / timing.time_s, rel=1e-6)

    def test_warp_cycles_drive_compute_time(self):
        cm = CostModel(A100_SXM4_40GB, "fp16")
        light = KernelCounters(useful_flops=1e6, warp_work_cycles=np.full(1000, 100.0))
        heavy = KernelCounters(useful_flops=1e6, warp_work_cycles=np.full(1000, 10000.0))
        t_light = cm.simulate(light, KernelEfficiency())
        t_heavy = cm.simulate(heavy, KernelEfficiency())
        assert t_heavy.time_s > t_light.time_s

    def test_efficiency_scaling(self):
        cm = CostModel(A100_SXM4_40GB, "fp16")
        counters = KernelCounters(useful_flops=1e9, mma_instructions=1e7, mma_flops=1e9 * 4)
        fast = cm.simulate(counters, KernelEfficiency(tensor_core=0.9), launch_overhead_us=0.0)
        slow = cm.simulate(counters, KernelEfficiency(tensor_core=0.3), launch_overhead_us=0.0)
        assert slow.time_s > fast.time_s


class TestCounters:
    def test_addition(self):
        a = KernelCounters(useful_flops=1.0, bytes_global_read=2.0, extra={"x": 1.0})
        b = KernelCounters(useful_flops=3.0, bytes_global_write=5.0, extra={"x": 2.0, "y": 1.0})
        c = a + b
        assert c.useful_flops == 4.0
        assert c.bytes_global == 7.0
        assert c.extra == {"x": 3.0, "y": 1.0}

    def test_scaling(self):
        a = KernelCounters(useful_flops=2.0, mma_instructions=4.0,
                           warp_work_cycles=np.array([1.0, 2.0]))
        b = a.scaled(3.0)
        assert b.useful_flops == 6.0
        assert b.mma_instructions == 12.0
        np.testing.assert_allclose(b.warp_work_cycles, [3.0, 6.0])

    def test_arithmetic_intensity_and_padding_ratio(self):
        c = KernelCounters(useful_flops=100.0, mma_flops=400.0, bytes_global_read=50.0)
        assert c.arithmetic_intensity == pytest.approx(2.0)
        assert c.padding_ratio == pytest.approx(4.0)

    def test_as_dict_contains_extras(self):
        c = KernelCounters(useful_flops=1.0, extra={"n_blocks": 7.0})
        d = c.as_dict()
        assert d["n_blocks"] == 7.0
        assert "arithmetic_intensity" in d
