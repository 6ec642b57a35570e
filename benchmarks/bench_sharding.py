"""Sharding: scatter-gather throughput and per-shard tuning payoff.

Two claims of the sharded subsystem are gated here:

* **no tax on balanced matrices** -- on a structurally uniform matrix
  (``cant``), where one plan is already the sweet spot, the sharded
  scatter-gather path must keep at least 0.9x of the single-plan warm
  throughput (in practice the thread-pooled shards come out ahead);
* **per-shard tuning pays on skewed matrices** -- on a block-diagonal
  matrix whose two blocks favour *different* configurations (a scattered
  hidden-cluster block vs a lattice block band), the nnz-balanced
  2-shard partition with per-shard tuning must beat the best single
  plan on the simulated device critical path (shards run concurrently),
  and must beat sharding with one global configuration -- the tuning
  gain the single-plan pipeline cannot express.
"""

import numpy as np
import pytest

from repro import ExecutionPolicy, SMaT, SMaTConfig
from repro.formats import CSRMatrix
from repro.matrices import block_band_matrix, hidden_cluster_matrix, suitesparse
from repro.shard import ShardedSpMM
from repro.tuner import Tuner

from common import best_of, dense_rhs, print_figure

MATRIX = "cant"
N_COLS = 8
# 2 row panels: big enough shards that the fixed scatter-gather overhead
# stays negligible at the CI-pinned bench scale (finer grids shave the
# ratio towards 1.0 without changing the conclusion)
GRID = 2


def _block_diag(A1: CSRMatrix, A2: CSRMatrix) -> CSRMatrix:
    """Stack two CSR matrices block-diagonally (no dense detour)."""
    rowptr = np.concatenate([A1.rowptr, A1.nnz + np.asarray(A2.rowptr[1:], dtype=np.int64)])
    col = np.concatenate([A1.col, np.asarray(A2.col, dtype=np.int64) + A1.ncols])
    val = np.concatenate([A1.val, A2.val])
    shape = (A1.nrows + A2.nrows, A1.ncols + A2.ncols)
    return CSRMatrix(rowptr, col, val, shape, check=False)


@pytest.mark.benchmark(group="sharding")
def test_sharded_vs_single_plan_balanced(benchmark, bench_scale):
    """Sharding a uniform matrix must not cost throughput."""
    A = suitesparse.load(MATRIX, scale=bench_scale)
    B = dense_rhs(A.ncols, N_COLS)

    smat = SMaT(A, SMaTConfig())
    C_single = smat.multiply(B)
    single_ms = best_of(lambda: smat.multiply(B), repeats=7)

    with ShardedSpMM(A, GRID, policy=ExecutionPolicy(max_workers=4)) as sharded:
        C_sharded, report = sharded.multiply(B, return_report=True)
        sharded_ms = best_of(lambda: sharded.multiply(B), repeats=7)
        benchmark(lambda: sharded.multiply(B))

    np.testing.assert_allclose(C_sharded, C_single, rtol=1e-3, atol=1e-3)
    ratio = single_ms / sharded_ms if sharded_ms > 0 else float("inf")
    rows = [
        {"path": "single plan (warm)", "wall_ms": single_ms},
        {"path": f"sharded {GRID} panels (warm)", "wall_ms": sharded_ms},
        {"path": "throughput ratio", "wall_ms": ratio},
    ]
    print_figure(
        f"sharded vs single-plan warm latency on {MATRIX} "
        f"(grid={GRID}, imbalance {report.imbalance:.3f})",
        rows,
    )
    benchmark.extra_info["single_ms"] = single_ms
    benchmark.extra_info["sharded_ms"] = sharded_ms
    benchmark.extra_info["throughput_ratio"] = ratio
    benchmark.extra_info["imbalance"] = report.imbalance

    assert report.imbalance <= 1.25, "nnz-balanced partition drifted out of balance"
    # acceptance gate: sharding a balanced matrix keeps >= 0.9x throughput
    assert ratio >= 0.9, f"sharded path at {ratio:.2f}x of single-plan throughput"


@pytest.mark.benchmark(group="sharding")
def test_per_shard_tuning_skewed(benchmark):
    """Per-shard tuning beats the best single plan on skewed structure."""
    rng = np.random.default_rng(7)
    # dense scattered block over a longer, sparser lattice band: the
    # nnz-balanced split separates the two structures, which favour
    # different block shapes and reorderings
    top = hidden_cluster_matrix(
        4096,
        4096,
        cluster_size=16,
        segments_per_cluster=8,
        segment_width=8,
        row_fill=0.9,
        shuffle=True,
        rng=rng,
    )
    bot = block_band_matrix(12288, block_size=8, block_bandwidth=1, rng=rng)
    A = _block_diag(top, bot)
    B = dense_rhs(A.ncols, N_COLS)

    # the single-plan champion: a full tuning search over the whole matrix
    single_cfg = Tuner(cache=False).tune(A).best_config
    single_plan = SMaT(A, single_cfg)
    C_single, single_report = single_plan.multiply(B, return_report=True)

    with ShardedSpMM(A, 2, policy=ExecutionPolicy(tune=True), tuner=Tuner(cache=False)) as tuned:
        C_sharded, tuned_report = tuned.multiply(B, return_report=True)
        benchmark(lambda: tuned.multiply(B))
    # control: same shards, but forced onto the single-plan configuration
    with ShardedSpMM(A, 2, config=single_cfg) as untuned:
        _, untuned_report = untuned.multiply(B, return_report=True)

    np.testing.assert_allclose(C_sharded, C_single, rtol=1e-3, atol=1e-3)
    critical_speedup = single_report.simulated_ms / tuned_report.critical_path_ms
    tuning_gain = untuned_report.critical_path_ms / tuned_report.critical_path_ms
    rows = [
        {
            "path": "single tuned plan",
            "config": f"{single_cfg.resolved_block_shape()}/{single_cfg.reorder}",
            "sim_ms": single_report.simulated_ms,
        }
    ] + [
        {
            "path": f"shard {s.pos} rows {s.rows[0]}:{s.rows[1]}",
            "config": s.config,
            "sim_ms": s.simulated_ms,
        }
        for s in tuned_report.shards
    ]
    print_figure(
        "per-shard tuning on a skewed block-diagonal matrix "
        f"(critical path {tuned_report.critical_path_ms:.4f} ms)",
        rows,
    )
    benchmark.extra_info["single_sim_ms"] = single_report.simulated_ms
    benchmark.extra_info["sharded_critical_ms"] = tuned_report.critical_path_ms
    benchmark.extra_info["critical_speedup"] = critical_speedup
    benchmark.extra_info["tuning_gain"] = tuning_gain

    # the shards resolve to different configurations -- the heterogeneity
    # a single plan cannot express
    configs = {s.config for s in tuned_report.shards if s.nnz}
    assert len(configs) > 1, f"expected heterogeneous shard configs, got {configs}"
    # acceptance gates: sharded beats the single plan, and the win comes
    # (at least partly) from per-shard tuning
    assert critical_speedup > 1.0, f"sharded at {critical_speedup:.2f}x of single plan"
    assert tuning_gain > 1.0, f"per-shard tuning gained {tuning_gain:.2f}x"
