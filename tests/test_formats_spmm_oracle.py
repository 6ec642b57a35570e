"""Differential tests: the ``spmm`` of CSR, BCSR and SR-BCRS against an
independent oracle, scipy's ``A @ B`` in float64.

Edge cases the Table-I stand-ins never reach: empty matrices, empty rows
and columns, ``1 x K`` and ``M x 1`` shapes, dimensions that are not a
multiple of the block shape, a vector ``B``, ``N`` in {1, 8, 33}, an
integer ``A`` and float16/float32/float64 ``B``.  Every product must
have the dtype ``np.result_type(A.dtype, B.dtype, np.float32)``, also
when one instance is multiplied by operands of alternating dtypes (each
format caches its operator on the instance).
"""

import numpy as np
import pytest

from repro.formats import BCSRMatrix, CSRMatrix, SRBCRSMatrix, bcsr


def _dense(shape, seed, density=0.3, empty_rows=(), empty_cols=()):
    rng = np.random.default_rng(seed)
    values = rng.integers(-4, 5, size=shape) * (rng.random(shape) < density)
    values[list(empty_rows), :] = 0
    values[:, list(empty_cols)] = 0
    return values


#: name -> dense integer-valued matrix
CASES = {
    "0x0": _dense((0, 0), 0),
    "0x7": _dense((0, 7), 0),
    "7x0": _dense((7, 0), 0),
    "all_zero_9x11": np.zeros((9, 11), dtype=np.int64),
    "empty_rows_and_cols": _dense(
        (24, 20), 1, density=0.5, empty_rows=(0, 5, 6, 23), empty_cols=(0, 3, 19)
    ),
    "1xK": _dense((1, 13), 2, density=0.6),
    "Mx1": _dense((17, 1), 3, density=0.6),
    "17x13": _dense((17, 13), 4),
    "40x70": _dense((40, 70), 5, density=0.15),
}

#: format name -> builder from a CSR matrix
FORMATS = {
    "csr": lambda A: A,
    "bcsr_16x8": lambda A: BCSRMatrix.from_csr(A, (16, 8)),
    "bcsr_3x5": lambda A: BCSRMatrix.from_csr(A, (3, 5)),
    "srbcrs": lambda A: SRBCRSMatrix.from_csr(A, vector_length=8, stride=4),
    # built from its storage arrays, so the operator is derived from the
    # stored vectors instead of reusing the source CSR
    "srbcrs_from_storage": lambda A: _srbcrs_from_storage(
        SRBCRSMatrix.from_csr(A, vector_length=4, stride=2)
    ),
}

A_DTYPES = (np.float32, np.float64, np.int32)
B_DTYPES = (np.float16, np.float32, np.float64)
#: a vector ``B`` (None) and N in {1, 8, 33}
WIDTHS = (None, 1, 8, 33)


def _srbcrs_from_storage(sr):
    return SRBCRSMatrix(
        sr.panel_ptr,
        sr.vec_col,
        sr.vectors,
        sr.shape,
        vector_length=sr.vector_length,
        stride=sr.stride,
    )


def _oracle(A: CSRMatrix, B: np.ndarray) -> np.ndarray:
    C = A.to_scipy().astype(np.float64) @ B.astype(np.float64)
    # spmm treats a vector B as one column
    return C.reshape(A.nrows, 1) if B.ndim == 1 else C


def _tolerance(dtype) -> float:
    return 1e-12 if np.dtype(dtype) == np.float64 else 1e-5


def _check(matrix, A, B):
    C = matrix.spmm(B)
    expected_dtype = np.result_type(A.dtype, B.dtype, np.float32)
    assert C.dtype == expected_dtype, (A.dtype, B.dtype, C.dtype)
    reference = _oracle(A, B)
    assert C.shape == reference.shape
    tol = _tolerance(expected_dtype)
    np.testing.assert_allclose(C, reference, rtol=tol, atol=tol)


@pytest.mark.parametrize("fmt", list(FORMATS))
@pytest.mark.parametrize("case", list(CASES))
def test_spmm_matches_scipy_float64(case, fmt):
    for a_dtype in A_DTYPES:
        A = CSRMatrix.from_dense(CASES[case].astype(a_dtype))
        matrix = FORMATS[fmt](A)
        rng = np.random.default_rng(7)
        for N in WIDTHS:
            shape = (A.ncols,) if N is None else (A.ncols, N)
            B = rng.normal(size=shape)
            for b_dtype in B_DTYPES:
                _check(matrix, A, B.astype(b_dtype))


@pytest.mark.parametrize("fmt", list(FORMATS))
@pytest.mark.parametrize("a_dtype", A_DTYPES)
def test_operator_is_not_reused_across_dtypes(fmt, a_dtype):
    """One instance, operands of alternating dtypes: every product keeps
    its own dtype and full precision, whichever dtype came first."""
    # values that float32 cannot hold exactly, when A is float64
    A = CSRMatrix.from_dense((CASES["40x70"] * 1.000001).astype(a_dtype))
    matrix = FORMATS[fmt](A)
    B = np.random.default_rng(3).normal(size=(A.ncols, 8))
    for b_dtype in (np.float64, np.float16, np.float32, np.float64, np.float16):
        _check(matrix, A, B.astype(b_dtype))


@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_bcsr_chunks_that_split_block_rows(monkeypatch, chunk):
    """Chunks of stored blocks that start and end inside block rows add
    up to the same product."""
    monkeypatch.setattr(bcsr, "CHUNK_BLOCKS", chunk)
    A = CSRMatrix.from_dense(CASES["empty_rows_and_cols"].astype(np.float32))
    matrix = BCSRMatrix.from_csr(A, (3, 5))
    assert len(matrix.block_row_sums()) == -(-matrix.n_blocks // chunk)
    B = np.random.default_rng(5).normal(size=(A.ncols, 8))
    for b_dtype in B_DTYPES:
        _check(matrix, A, B.astype(b_dtype))
