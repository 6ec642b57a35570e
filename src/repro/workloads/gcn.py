"""GCN-style forward pass on the SpMM engine.

The paper motivates unstructured SpMM with Graph Neural Networks: the
core of a GCN layer is ``H' = act(A_hat @ H @ W)`` where
``A_hat = D^-1/2 (A + I) D^-1/2`` is the normalised adjacency matrix and
``H`` the dense node-feature matrix.  ``A_hat`` is fixed across layers
(and across forward passes), so one cached
:class:`~repro.core.plan.ExecutionPlan` serves every ``A_hat @ X``
product -- the preprocessing pass is amortised over the whole network,
and over every subsequent inference call on a shared engine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..formats import CSRMatrix, gcn_normalize
from .base import SpMMOperator, WorkloadReport

__all__ = ["GCNResult", "gcn_forward"]


@dataclass
class GCNResult:
    """Final node embeddings plus the run's telemetry.

    ``report.residuals`` holds the RMS magnitude of each layer's output
    features -- a cheap per-layer health signal (collapsing activations
    show up as a plunge towards zero, exploding ones as rapid growth).
    """

    H: np.ndarray
    report: WorkloadReport


def gcn_forward(
    A: CSRMatrix,
    H: np.ndarray,
    weights: Sequence[np.ndarray],
    *,
    normalize: bool = True,
    activation: str = "relu",
    final_activation: bool = False,
    engine=None,
    config=None,
    kernel: Optional[str] = None,
    policy=None,
) -> GCNResult:
    """Run a ``len(weights)``-layer GCN forward pass.

    Each layer computes ``H <- act(A_hat @ (H @ W))``: the dense
    feature-times-weight product runs in numpy, the sparse propagation
    runs as one SpMM through the engine's cached plan.  ``A_hat`` is the
    symmetrically normalised adjacency
    (:func:`~repro.formats.graphops.gcn_normalize`, built once as setup);
    pass ``normalize=False`` when ``A`` is already normalised.

    ``activation`` is ``"relu"``, ``"tanh"`` or ``"none"``, applied after
    every layer except the last (enable ``final_activation`` to include
    it).  ``policy=`` / ``engine=`` pass through to the serving stack
    exactly as in :func:`~repro.workloads.pagerank`.
    """
    activations = {
        "relu": lambda X: np.maximum(X, 0.0),
        "tanh": np.tanh,
        "none": lambda X: X,
    }
    if activation not in activations:
        raise ValueError(f"unknown activation {activation!r}; use one of {sorted(activations)}")
    act = activations[activation]
    if len(weights) == 0:
        raise ValueError("gcn_forward needs at least one weight matrix")
    H = np.asarray(H, dtype=np.float32)
    if H.ndim != 2 or H.shape[0] != A.nrows:
        raise ValueError(f"H must be ({A.nrows}, features), got {H.shape}")

    setup_start = time.perf_counter()
    a_hat = gcn_normalize(A) if normalize else A
    setup_ms = 1e3 * (time.perf_counter() - setup_start)

    with SpMMOperator(
        a_hat,
        engine=engine,
        config=config,
        kernel=kernel,
        policy=policy,
    ) as op:
        report = op.new_report("gcn")
        report.setup_ms = setup_ms
        n_layers = len(weights)
        for layer, W in enumerate(weights):
            W = np.asarray(W, dtype=np.float32)
            if W.shape[0] != H.shape[1]:
                raise ValueError(
                    f"layer {layer}: weight shape {W.shape} does not accept "
                    f"{H.shape[1]} input features"
                )
            H = op.matmul(H @ W, report)
            if layer < n_layers - 1 or final_activation:
                H = act(H)
            rms = float(np.sqrt(np.mean(np.square(H, dtype=np.float64))))
            op.set_residual(report, rms)
        report.converged = True  # a fixed-depth pass always completes
    return GCNResult(H=H, report=report)
