"""Workload layer: iterative SpMM applications on the engine.

Every workload is verified against a dense numpy mirror of the same
algorithm (same arithmetic, dense float64 operator), across the three
matrix families the workloads target: graphs (PageRank / GCN), band
matrices (smoothers) and clustered matrices (power iteration).  The
telemetry contract -- plan reuse (one cache miss per run), early exit on
the convergence tolerance, and the sharded / tuned pass-through -- is
covered alongside.
"""

import numpy as np
import pytest

from repro.core import ExecutionPolicy, SMaTConfig
from repro.engine import SpMMEngine
from repro.formats import CSRMatrix, gcn_normalize, transition_matrix
from repro.matrices import band_matrix, hidden_cluster_matrix, scale_free_graph
from repro.workloads import (
    SpMMOperator,
    WorkloadReport,
    chebyshev_smoother,
    dense_pagerank_reference,
    estimate_spectral_bounds,
    gcn_forward,
    jacobi_smoother,
    pagerank,
    power_iteration,
)


# ---------------------------------------------------------------------------
# dense numpy references (same algorithm, dense float64 operator);
# PageRank's lives in the library (dense_pagerank_reference) because the
# benchmark gate validates against it too
# ---------------------------------------------------------------------------


def dense_gcn(A, H, weights):
    a_hat = gcn_normalize(A).to_dense().astype(np.float64)
    H = H.astype(np.float64)
    for layer, W in enumerate(weights):
        H = a_hat @ (H @ W.astype(np.float64))
        if layer < len(weights) - 1:
            H = np.maximum(H, 0.0)
    return H


def dense_jacobi(A, b, omega, tol, max_iter):
    Ad = A.to_dense().astype(np.float64)
    diag = np.diag(Ad).copy()
    x = np.zeros_like(b, dtype=np.float64)
    b_norm = max(float(np.linalg.norm(b)), 1e-300)
    for _ in range(max_iter):
        r = b - Ad @ x
        if float(np.linalg.norm(r)) / b_norm < tol:
            break
        x = x + omega * (r / diag)
    return x


def _spd_band(n: int = 192, width: int = 6, dominance: float = 1.2) -> CSRMatrix:
    """A symmetric diagonally dominant band matrix (smoother territory).

    ``dominance`` scales the diagonal boost: large values make Jacobi
    converge almost instantly, values near 1 leave a slower, more
    realistic smoothing problem.
    """
    base = band_matrix(n, width, rng=np.random.default_rng(3))
    dense = base.to_dense().astype(np.float64)
    dense = np.abs(dense) + np.abs(dense).T
    np.fill_diagonal(dense, 0.0)
    dense += np.eye(n) * (dominance * np.abs(dense).sum(axis=1).max())
    return CSRMatrix.from_dense(dense.astype(np.float32))


@pytest.fixture
def spd_band() -> CSRMatrix:
    return _spd_band()


# ---------------------------------------------------------------------------
# correctness vs dense references, across matrix families
# ---------------------------------------------------------------------------

class TestPageRankCorrectness:
    def test_matches_dense_reference_on_graph(self, rng):
        A = scale_free_graph(384, avg_degree=8.0, rng=rng)
        result = pagerank(A, tol=1e-10, max_iter=150)
        reference = dense_pagerank_reference(A, damping=0.85, tol=1e-12, max_iter=300)
        np.testing.assert_allclose(result.scores, reference, rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(result.scores.sum(), 1.0, rtol=1e-10)
        assert np.all(result.scores > 0)

    def test_matches_dense_reference_on_clustered(self, rng):
        A = hidden_cluster_matrix(256, 256, cluster_size=16, rng=rng)
        result = pagerank(A, tol=1e-10, max_iter=150)
        reference = dense_pagerank_reference(A, damping=0.85, tol=1e-12, max_iter=300)
        np.testing.assert_allclose(result.scores, reference, rtol=1e-4, atol=1e-7)

    def test_personalization_matrix_runs_chains_together(self, rng):
        A = scale_free_graph(200, avg_degree=6.0, rng=rng)
        P = np.zeros((200, 2))
        P[:100, 0] = 1.0
        P[100:, 1] = 1.0
        result = pagerank(A, personalization=P, tol=1e-9, max_iter=100)
        assert result.scores.shape == (200, 2)
        np.testing.assert_allclose(result.scores.sum(axis=0), [1.0, 1.0], rtol=1e-9)
        # the two chains teleport to disjoint halves, so they must differ
        assert np.abs(result.scores[:, 0] - result.scores[:, 1]).max() > 1e-4

    def test_input_validation(self, rng):
        A = scale_free_graph(64, avg_degree=4.0, rng=rng)
        with pytest.raises(ValueError, match="damping"):
            pagerank(A, damping=1.5)
        with pytest.raises(ValueError, match="rows"):
            pagerank(A, personalization=np.ones(32))
        with pytest.raises(ValueError, match="non-negative"):
            pagerank(A, personalization=-np.ones(64))


class TestPowerIterationCorrectness:
    def test_finds_dominant_eigenvalue_on_clustered(self, rng):
        A = hidden_cluster_matrix(192, 192, cluster_size=16, rng=rng)
        result = power_iteration(A, tol=1e-7, max_iter=400)
        true_max = np.abs(np.linalg.eigvals(A.to_dense().astype(np.float64))).max()
        np.testing.assert_allclose(abs(result.eigenvalue), true_max, rtol=1e-2)
        assert np.isclose(np.linalg.norm(result.vector), 1.0, rtol=1e-6)

    def test_rejects_non_square(self, rng):
        from repro.matrices import uniform_random

        A = uniform_random(64, 32, density=0.1, rng=rng)
        with pytest.raises(ValueError, match="square"):
            power_iteration(A)


class TestGCNCorrectness:
    def test_matches_dense_reference_on_graph(self, rng):
        A = scale_free_graph(256, avg_degree=6.0, rng=rng)
        H = rng.normal(size=(256, 16)).astype(np.float32)
        weights = [rng.normal(scale=0.3, size=(16, 16)).astype(np.float32) for _ in range(3)]
        result = gcn_forward(A, H, weights)
        reference = dense_gcn(A, H, weights)
        np.testing.assert_allclose(result.H, reference, rtol=1e-3, atol=1e-4)
        assert result.report.iterations == 3
        assert result.report.converged

    def test_activation_variants_and_validation(self, rng):
        A = scale_free_graph(96, avg_degree=4.0, rng=rng)
        H = rng.normal(size=(96, 8)).astype(np.float32)
        W = [rng.normal(size=(8, 8)).astype(np.float32)]
        out_tanh = gcn_forward(A, H, W, activation="tanh", final_activation=True)
        assert float(np.abs(out_tanh.H).max()) <= 1.0
        with pytest.raises(ValueError, match="activation"):
            gcn_forward(A, H, W, activation="sigmoid")
        with pytest.raises(ValueError, match="weight"):
            gcn_forward(A, H, [rng.normal(size=(5, 8)).astype(np.float32)])
        with pytest.raises(ValueError, match="at least one"):
            gcn_forward(A, H, [])


class TestSmootherCorrectness:
    def test_jacobi_matches_dense_reference_on_band(self, rng, spd_band):
        b = rng.normal(size=192)
        result = jacobi_smoother(spd_band, b, tol=1e-9, max_iter=30)
        reference = dense_jacobi(spd_band, b, 2.0 / 3.0, 1e-9, 30)
        np.testing.assert_allclose(result.x, reference, rtol=1e-4, atol=1e-6)
        # residuals decrease monotonically until the float32 noise floor
        residuals = [r for r in result.report.residuals if r > 1e-6]
        assert all(b <= a * 1.05 for a, b in zip(residuals, residuals[1:]))

    def test_chebyshev_beats_jacobi_at_fixed_sweeps(self, rng):
        # a barely-dominant system where Jacobi grinds; exact eigenvalue
        # bounds make the Chebyshev polynomial optimal over the spectrum
        A = _spd_band(dominance=1.05)
        eigs = np.linalg.eigvalsh(A.to_dense().astype(np.float64))
        b = rng.normal(size=192)
        sweeps = 25
        jac = jacobi_smoother(A, b, tol=0.0, max_iter=sweeps)
        cheb = chebyshev_smoother(
            A, b, tol=0.0, max_iter=sweeps, eig_bounds=(eigs[0], eigs[-1])
        )
        assert cheb.report.final_residual < jac.report.final_residual
        # the smoothed iterate approximately solves the system
        residual = np.linalg.norm(b - A.to_dense().astype(np.float64) @ cheb.x)
        assert residual / np.linalg.norm(b) < 1e-4

    def test_block_rhs_advances_all_systems(self, rng, spd_band):
        b = rng.normal(size=(192, 4))
        result = chebyshev_smoother(spd_band, b, tol=1e-6, max_iter=50)
        assert result.x.shape == (192, 4)
        dense = spd_band.to_dense().astype(np.float64)
        res = np.linalg.norm(b - dense @ result.x, axis=0) / np.linalg.norm(b, axis=0)
        assert res.max() < 1e-3

    def test_validation(self, rng, spd_band):
        hollow = np.ones((8, 8), dtype=np.float32) - np.eye(8, dtype=np.float32)
        with pytest.raises(ValueError, match="diagonal"):
            jacobi_smoother(CSRMatrix.from_dense(hollow), np.ones(8))
        with pytest.raises(ValueError, match="omega"):
            jacobi_smoother(spd_band, np.ones(192), omega=2.0)
        with pytest.raises(ValueError, match="lambda"):
            chebyshev_smoother(spd_band, np.ones(192), eig_bounds=(2.0, 1.0))
        with pytest.raises(ValueError, match="x0"):
            jacobi_smoother(spd_band, np.ones(192), x0=np.ones(10))

    def test_spectral_bounds_bound_the_spectrum(self, spd_band):
        lmin, lmax = estimate_spectral_bounds(spd_band)
        eigs = np.linalg.eigvalsh(spd_band.to_dense().astype(np.float64))
        assert lmax >= eigs.max()
        assert 0.0 < lmin < lmax


# ---------------------------------------------------------------------------
# telemetry: plan reuse, early exit, amortisation
# ---------------------------------------------------------------------------

class TestWorkloadTelemetry:
    def test_single_plan_reused_across_iterations(self, rng):
        A = scale_free_graph(256, avg_degree=6.0, rng=rng)
        result = pagerank(A, tol=1e-12, max_iter=25)
        report = result.report
        assert report.iterations == 25
        assert report.cache_misses == 1, "exactly one plan build per run"
        assert report.cache_hits == 24
        assert report.cold_ms > 0 and report.warm_ms > 0
        assert report.amortization_ratio > 1.0

    def test_tolerance_early_exit(self, rng):
        A = scale_free_graph(256, avg_degree=6.0, rng=rng)
        loose = pagerank(A, tol=1e-3, max_iter=100)
        assert loose.report.converged
        assert loose.report.iterations < 100
        assert loose.report.final_residual < 1e-3
        # a tolerance below float32 reach never triggers the early exit
        tight = pagerank(A, tol=0.0, max_iter=12)
        assert not tight.report.converged
        assert tight.report.iterations == 12

    def test_smoother_early_exit(self, rng, spd_band):
        b = rng.normal(size=192)
        result = chebyshev_smoother(spd_band, b, tol=1e-3, max_iter=100)
        assert result.report.converged
        assert result.report.iterations < 100

    def test_report_table_and_summary(self, rng):
        A = scale_free_graph(128, avg_degree=4.0, rng=rng)
        report = pagerank(A, tol=1e-6, max_iter=10).report
        rows = report.table()
        assert len(rows) == report.iterations
        assert rows[0]["cache_misses"] == 1 and rows[-1]["cache_hits"] == 1
        summary = report.summary()
        assert summary["workload"] == "pagerank"
        assert summary["amortization"] == report.amortization_ratio

    def test_empty_report_defaults(self):
        report = WorkloadReport(workload="x", matrix_shape=(4, 4), nnz=0)
        assert report.amortization_ratio == 1.0
        assert report.final_residual == float("inf")
        assert report.cold_ms == 0.0 and report.warm_ms == 0.0


# ---------------------------------------------------------------------------
# engine / sharded / tuned pass-through
# ---------------------------------------------------------------------------

class TestPassThrough:
    def test_shared_engine_reuses_plans_across_runs(self, rng):
        A = scale_free_graph(256, avg_degree=6.0, rng=rng)
        with SpMMEngine(cache_size=8, policy=ExecutionPolicy(max_workers=2)) as engine:
            first = pagerank(A, tol=1e-12, max_iter=5, engine=engine)
            second = pagerank(A, tol=1e-12, max_iter=5, engine=engine)
            assert first.report.cache_misses == 1
            # the transition matrix plan is already cached: no cold build
            assert second.report.cache_misses == 0
            np.testing.assert_array_equal(first.scores, second.scores)

    def test_sharded_and_tuned_smoke(self, rng, tmp_path):
        A = scale_free_graph(384, avg_degree=8.0, rng=rng)
        plain = pagerank(A, tol=1e-10, max_iter=40)
        with SpMMEngine(
            SMaTConfig(),
            cache_size=32,
            policy=ExecutionPolicy(max_workers=2, sharded=True, grid=2),
            tuning_cache=str(tmp_path / "tuning.json"),
        ) as engine:
            sharded = pagerank(A, tol=1e-10, max_iter=40, engine=engine)
        assert sharded.report.sharded and sharded.report.tuned
        np.testing.assert_allclose(sharded.scores, plain.scores, rtol=1e-4, atol=1e-8)

    def test_sharded_gcn_matches_unsharded(self, rng):
        A = scale_free_graph(256, avg_degree=6.0, rng=rng)
        H = rng.normal(size=(256, 8)).astype(np.float32)
        weights = [rng.normal(scale=0.3, size=(8, 8)).astype(np.float32) for _ in range(2)]
        plain = gcn_forward(A, H, weights)
        sharded = gcn_forward(A, H, weights, policy=ExecutionPolicy(sharded=True, grid=2))
        np.testing.assert_allclose(sharded.H, plain.H, rtol=1e-4, atol=1e-4)

    def test_operator_rejects_tune_with_borrowed_engine(self, rng):
        A = scale_free_graph(64, avg_degree=4.0, rng=rng)
        with SpMMEngine() as engine:
            with pytest.raises(ValueError, match="engine itself"):
                SpMMOperator(A, engine=engine, policy=ExecutionPolicy(tune=True))

    def test_operator_owns_and_closes_private_engine(self, rng):
        A = scale_free_graph(64, avg_degree=4.0, rng=rng)
        with SpMMOperator(A) as op:
            op.matmul(np.ones((64, 4), dtype=np.float32))
            engine = op.engine
        with pytest.raises(RuntimeError, match="closed"):
            engine.multiply(A, np.ones((64, 4), dtype=np.float32))

    def test_operator_leaves_borrowed_engine_open(self, rng):
        A = scale_free_graph(64, avg_degree=4.0, rng=rng)
        with SpMMEngine() as engine:
            with SpMMOperator(A, engine=engine) as op:
                op.matmul(np.ones((64, 4), dtype=np.float32))
            # borrowed engine survives the operator
            engine.multiply(A, np.ones((64, 4), dtype=np.float32))
