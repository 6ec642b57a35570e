"""The smoothers update their iterates in place: same bits, caller's x0 untouched."""

import numpy as np
import pytest

from repro.formats import CSRMatrix, extract_diagonal
from repro.matrices import band_matrix
from repro.workloads import chebyshev_smoother, estimate_spectral_bounds, jacobi_smoother
from repro.workloads.smoother import _residual_norm


def _spd_band(n=160, width=6, dominance=1.05):
    base = band_matrix(n, width, rng=np.random.default_rng(3))
    dense = base.to_dense().astype(np.float64)
    dense = np.abs(dense) + np.abs(dense).T
    np.fill_diagonal(dense, 0.0)
    dense += np.eye(n) * (dominance * np.abs(dense).sum(axis=1).max())
    return CSRMatrix.from_dense(dense.astype(np.float32))


# -- the out-of-place recurrences, as the smoothers ran them before --------------


def _old_norm(r, b_norm):
    norms = np.linalg.norm(r.reshape(r.shape[0], -1).astype(np.float64), axis=0)
    return float((norms / b_norm).max())


def _old_rhs(b, x0):
    b = np.asarray(b, dtype=np.float64)
    was_vector = b.ndim == 1
    b = b.reshape(-1, 1) if was_vector else b
    if x0 is None:
        x = np.zeros_like(b)
    else:
        x = np.array(x0, dtype=np.float64).reshape(b.shape)
    b_norm = np.linalg.norm(b, axis=0)
    return b, x, was_vector, np.where(b_norm > 0.0, b_norm, 1.0)


def _old_jacobi(A, b, x0, omega, tol, max_iter):
    diag = extract_diagonal(A).astype(np.float64)
    b, x, was_vector, b_norm = _old_rhs(b, x0)
    residuals = []
    for _ in range(max_iter):
        Ax = A.spmm(x.astype(np.float32)).astype(np.float64).reshape(b.shape)
        r = b - Ax
        residuals.append(_old_norm(r, b_norm))
        if residuals[-1] < tol:
            break
        x = x + omega * (r / diag[:, None])
    return (x.ravel() if was_vector else x), residuals


def _old_chebyshev(A, b, x0, bounds, tol, max_iter):
    lmin, lmax = bounds
    b, x, was_vector, b_norm = _old_rhs(b, x0)
    theta, delta = 0.5 * (lmax + lmin), 0.5 * (lmax - lmin)
    sigma = theta / delta
    r = b - A.spmm(x.astype(np.float32)).astype(np.float64).reshape(b.shape)
    residuals = [_old_norm(r, b_norm)]
    if residuals[-1] >= tol:
        d = r / theta
        rho = 1.0 / sigma
        for _ in range(max_iter):
            x = x + d
            Ad = A.spmm(d.astype(np.float32)).astype(np.float64)
            r = r - Ad.reshape(b.shape)
            residuals.append(_old_norm(r, b_norm))
            if residuals[-1] < tol:
                break
            rho_next = 1.0 / (2.0 * sigma - rho)
            d = rho_next * rho * d + (2.0 * rho_next / delta) * r
            rho = rho_next
    return (x.ravel() if was_vector else x), residuals


def _problem(A, k, with_x0):
    rng = np.random.default_rng([k or 1, int(with_x0)])
    shape = (A.nrows,) if k is None else (A.nrows, k)
    b = rng.normal(size=shape)
    x0 = rng.normal(size=shape) if with_x0 else None
    return b, x0


@pytest.mark.parametrize("with_x0", [False, True], ids=["zero-x0", "x0"])
@pytest.mark.parametrize("k", [None, 1, 4], ids=["vector", "k1", "k4"])
class TestBitIdenticalIterates:
    def test_jacobi(self, k, with_x0):
        A = _spd_band()
        b, x0 = _problem(A, k, with_x0)
        result = jacobi_smoother(A, b, x0=x0, tol=0.0, max_iter=12)
        x, residuals = _old_jacobi(A, b, x0, 2.0 / 3.0, 0.0, 12)
        assert result.x.shape == x.shape
        np.testing.assert_array_equal(result.x, x)
        assert result.report.residuals == residuals

    def test_chebyshev(self, k, with_x0):
        A = _spd_band()
        b, x0 = _problem(A, k, with_x0)
        bounds = estimate_spectral_bounds(A)
        result = chebyshev_smoother(A, b, x0=x0, eig_bounds=bounds, tol=0.0, max_iter=12)
        x, residuals = _old_chebyshev(A, b, x0, bounds, 0.0, 12)
        assert result.x.shape == x.shape
        np.testing.assert_array_equal(result.x, x)
        assert result.report.residuals == residuals


@pytest.mark.parametrize("smoother", [jacobi_smoother, chebyshev_smoother])
@pytest.mark.parametrize("k", [None, 3], ids=["1-D", "2-D"])
def test_caller_x0_is_left_unmodified(smoother, k):
    A = _spd_band()
    b, x0 = _problem(A, k, True)
    kept = x0.copy()
    result = smoother(A, b, x0=x0, tol=0.0, max_iter=4)
    np.testing.assert_array_equal(x0, kept)
    assert not np.shares_memory(result.x, x0)


class TestResidualNorm:
    @pytest.mark.parametrize("n,k", [(1, 2), (7, 3), (160, 4), (6240, 4), (20011, 8)])
    def test_random_blocks(self, n, k):
        rng = np.random.default_rng([n, k])
        r = rng.normal(size=(n, k)) * 10.0 ** rng.integers(-6, 6, size=k)
        b_norm = rng.random(k) + 0.5
        assert _residual_norm(r, b_norm) == _old_norm(r, b_norm)

    def test_zero_columns(self):
        rng = np.random.default_rng(5)
        r = rng.normal(size=(999, 4))
        r[:, [0, 2]] = 0.0
        b_norm = np.ones(4)
        assert _residual_norm(r, b_norm) == _old_norm(r, b_norm)
        assert _residual_norm(np.zeros((999, 4)), b_norm) == 0.0

    @pytest.mark.parametrize("n", [1, 160, 6240, 20011])
    def test_single_column_and_1d(self, n):
        r = np.random.default_rng(n).normal(size=n)
        b_norm = np.array([0.75])
        assert _residual_norm(r, b_norm) == _old_norm(r, b_norm)
        assert _residual_norm(r[:, None], b_norm) == _old_norm(r[:, None], b_norm)
