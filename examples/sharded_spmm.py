#!/usr/bin/env python3
"""Sharded SpMM: balanced partitioning with one tuned plan per shard.

One plan per matrix is the paper's sweet spot for matrices of uniform
structure -- but the best block shape and reordering vary *within* a
large matrix too.  The sharded subsystem (`repro.shard`) splits a matrix
into an nnz-balanced grid of panels, prepares one execution plan per
shard (each with its own reordering, and its own block shape when tuning
is on), computes ``C`` once from the whole matrix and prices every shard
on the simulated device, in the calling thread.

This example:

1. partitions a Table-I stand-in (``cant``) into a 2x2 grid and prints
   the per-shard breakdown (nnz share, imbalance, chosen config, time),
2. verifies the sharded result matches the single-plan pipeline, and
3. compares sharded vs single-plan warm latency.

Run:  python examples/sharded_spmm.py
"""

import time

import numpy as np

from repro import ExecutionPolicy, SMaT, SMaTConfig
from repro.analysis import format_table
from repro.matrices import suitesparse
from repro.shard import ShardedSpMM

MATRIX = "cant"
SCALE = 0.1
GRID = "2x2"
N_COLS = 8


def best_of(fn, repeats: int = 3) -> float:
    """Minimum wall-clock milliseconds of ``fn`` over ``repeats`` runs."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, 1e3 * (time.perf_counter() - start))
    return best


def main() -> None:
    A = suitesparse.load(MATRIX, scale=SCALE)
    rng = np.random.default_rng(0)
    B = rng.normal(size=(A.ncols, N_COLS)).astype(np.float32)
    print(f"matrix: {MATRIX} stand-in, {A.nrows}x{A.ncols}, nnz={A.nnz}")

    # single-plan reference: the paper's pipeline, preprocessing paid once
    smat = SMaT(A, SMaTConfig())
    C_single = smat.multiply(B)
    single_ms = best_of(lambda: smat.multiply(B))

    with ShardedSpMM(A, GRID, policy=ExecutionPolicy(max_workers=4)) as sharded:
        C_sharded, report = sharded.multiply(B, return_report=True)
        sharded_ms = best_of(lambda: sharded.multiply(B))

    print()
    print(format_table(
        report.table(),
        title=(
            f"shard table: grid {report.grid[0]}x{report.grid[1]}, "
            f"mode={report.mode}, nnz imbalance {report.imbalance:.3f}"
        ),
    ))

    max_err = float(np.max(np.abs(C_sharded - C_single)))
    print(f"sharded C matches single-plan C: max abs difference {max_err:.2e}")
    print(
        f"warm latency: sharded {sharded_ms:.2f} ms "
        f"({report.n_shards} shards on 4 workers) vs single-plan {single_ms:.2f} ms"
    )
    print(
        f"simulated device time: {report.critical_path_ms:.4f} ms critical path "
        f"({report.simulated_ms:.4f} ms serial) -- per-shard plans open the "
        "door to per-shard tuning (ShardedSpMM(..., policy=ExecutionPolicy(tune=True)))"
    )


if __name__ == "__main__":
    main()
