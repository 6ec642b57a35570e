#!/usr/bin/env python3
"""GNN feature propagation on the workloads layer.

The paper motivates unstructured SpMM with Graph Neural Networks: the
core of a GCN layer is ``H' = act(A_hat @ H @ W)`` where ``A_hat`` is the
normalised sparse adjacency matrix and ``H`` the dense node-feature
matrix.  ``repro.workloads.gcn_forward`` runs that forward pass on the
plan-caching engine: the normalised adjacency is built once by the
formats layer (``repro.formats.gcn_normalize``), one cached execution
plan serves every layer, and the returned report shows the
preprocessing cost fading after the first layer.

This example runs the same network twice -- cold (private engine, plan
built on layer 0) and warm (shared engine, plan already cached) -- and
checks the result against a dense numpy reference.

Run:  python examples/gnn_spmm.py
"""

import numpy as np

from repro.analysis import format_table
from repro.engine import ExecutionPolicy, SpMMEngine
from repro.formats import gcn_normalize
from repro.matrices import scale_free_graph
from repro.workloads import gcn_forward

N_NODES = 4096
N_FEATURES = 64
N_LAYERS = 3


def dense_reference(adj, H, weights):
    """The same forward pass in dense numpy (float32, like the kernel)."""
    a_hat = gcn_normalize(adj).to_dense()
    for layer, W in enumerate(weights):
        H = a_hat @ (H @ W)
        if layer < len(weights) - 1:
            H = np.maximum(H, 0.0)  # ReLU
    return H


def main() -> None:
    rng = np.random.default_rng(0)
    print(f"building a scale-free graph with {N_NODES} nodes ...")
    adj = scale_free_graph(N_NODES, avg_degree=12.0, exponent=2.1, rng=rng)

    H0 = rng.normal(size=(N_NODES, N_FEATURES)).astype(np.float32)
    weights = [
        rng.normal(scale=0.3, size=(N_FEATURES, N_FEATURES)).astype(np.float32)
        for _ in range(N_LAYERS)
    ]

    with SpMMEngine(cache_size=8, policy=ExecutionPolicy(max_workers=4)) as engine:
        cold = gcn_forward(adj, H0, weights, engine=engine)
        warm = gcn_forward(adj, H0, weights, engine=engine)  # plan already cached

    reference = dense_reference(adj, H0, weights)
    err = float(np.max(np.abs(cold.H - reference)) / (np.abs(reference).max() + 1e-9))

    rows = []
    for label, run in (("cold (plan built on layer 0)", cold), ("warm (cached plan)", warm)):
        report = run.report
        rows.append(
            {
                "pass": label,
                "total_spmm_ms": report.total_spmm_ms,
                "layer0_ms": report.cold_ms,
                "warm_layer_ms": report.warm_ms,
                "cache_hits": report.cache_hits,
                "cache_misses": report.cache_misses,
            }
        )
    print(format_table(
        rows,
        title=f"{N_LAYERS}-layer GCN forward pass ({N_NODES} nodes, {N_FEATURES} features)",
    ))
    print(
        f"\ncold amortization ratio (layer 0 / warm layer): "
        f"{cold.report.amortization_ratio:.1f}x; "
        f"warm pass pays no plan build at all "
        f"({warm.report.cache_misses} misses)"
    )
    print(f"max relative error vs dense numpy reference: {err:.2e}")
    np.testing.assert_allclose(cold.H, warm.H, rtol=0, atol=0)  # bit-identical plans


if __name__ == "__main__":
    main()
