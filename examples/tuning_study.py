#!/usr/bin/env python3
"""Tuning study: let the auto-tuner pick block shape and reordering.

The paper chooses its configuration (MMA-matched 16 x 8 blocks, Jaccard
row reordering) through manual ablations.  The tuner (`repro.tuner`)
automates that choice per matrix: it enumerates the block-shape x
reordering space, prunes hopeless candidates with the paper's Eq. 1 /
Eq. 2 analytical model, measures the survivors, and returns the winner --
which is never worse than the paper's default, because the default is
always measured too.

This example tunes two very different matrices:

* an optimisation-style matrix with hidden row clusters (``mip1``-like),
  where a reordering pays off and the tuner must pick a good one, and
* a lattice-QCD block band matrix (``conf5``-like), which is already
  optimally ordered, where the tuner's job is to *not* waste a
  reordering pass and to find the block shape that fits the band.

It then shows the persistent tuning cache absorbing the second search,
which is how ``SMaTConfig(reorder="auto")`` and
``SpMMEngine(policy=ExecutionPolicy(tune=True))`` stay cheap in serving
workloads.

Run:  python examples/tuning_study.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from repro import ExecutionPolicy, SMaTConfig
from repro.analysis import format_table
from repro.engine import SpMMEngine
from repro.matrices import block_band_matrix, hidden_cluster_matrix
from repro.tuner import Tuner


def study(name: str, A, tuner: Tuner) -> None:
    result = tuner.tune(A)
    print()
    print(format_table(
        result.table(),
        title=(
            f"Tuning study -- {name}: {len(result.outcomes)} candidates, "
            f"{result.n_measured} measured, {result.n_pruned} pruned by the model"
        ),
    ))
    best = result.best
    default = result.default
    print(
        f"winner {best.candidate.label}: {best.simulated_ms:.4f} ms vs default "
        f"{default.candidate.label} {default.simulated_ms:.4f} ms "
        f"({result.tuned_vs_default:.2f}x), search {result.search_ms:.0f} ms"
    )


def main() -> None:
    rng = np.random.default_rng(0)

    clustered = hidden_cluster_matrix(
        4096, 4096, cluster_size=16, segments_per_cluster=12, segment_width=8,
        row_fill=0.8, shuffle=True, rng=rng,
    )
    banded = block_band_matrix(4096, block_size=8, block_bandwidth=2, rng=rng)

    with tempfile.TemporaryDirectory() as tmp:
        cache_path = Path(tmp) / "tuning_cache.json"
        tuner = Tuner(cache=cache_path)

        study("hidden row clusters (mip1-like)", clustered, tuner)
        study("block band matrix (conf5-like)", banded, tuner)

        # the persistent cache turns the second sight of a matrix into a
        # dictionary lookup -- this is what reorder="auto" relies on
        tuner.resolve(clustered)  # populates the cache
        start = time.perf_counter()
        tuned_config = tuner.resolve(clustered)
        cached_ms = 1e3 * (time.perf_counter() - start)
        print(
            f"\ncached resolve: {cached_ms:.1f} ms -> "
            f"{tuned_config.reorder} @ {tuned_config.block_shape}"
        )

        # the engine does the same transparently for every matrix it sees
        B = rng.normal(size=(clustered.ncols, 8)).astype(np.float32)
        with SpMMEngine(
            SMaTConfig(), policy=ExecutionPolicy(tune=True), tuning_cache=cache_path
        ) as engine:
            outcome = engine.multiply_many(clustered, [B] * 8)
        print(
            f"tuned engine: {len(outcome)} multiplies, "
            f"{outcome.summary.cache.misses} tuned plan build(s), "
            f"{outcome.summary.items_per_second:.0f} items/s"
        )


if __name__ == "__main__":
    main()
