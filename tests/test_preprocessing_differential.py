"""Differential tests of the sort-based preprocessing primitives.

``CSRMatrix.permute_rows`` is one row gather; it is checked against the
per-row copy it replaced, kept here as the reference.  ``sort_unique`` is
checked against ``np.unique`` (values and counts).
"""

import numpy as np
import pytest

from repro.formats import CSRMatrix
from repro.formats.base import run_starts, sort_unique
from repro.matrices import uniform_random
from repro.reorder import blocking_stats, blocks_per_block_row, count_blocks


def reference_permute_rows(A: CSRMatrix, perm: np.ndarray) -> CSRMatrix:
    """The per-row copy ``permute_rows`` used to run."""
    counts = np.diff(A.rowptr)[perm]
    rowptr = np.zeros(A.nrows + 1, dtype=A.rowptr.dtype)
    np.cumsum(counts, out=rowptr[1:])
    col = np.empty_like(A.col)
    val = np.empty_like(A.val)
    for new_i, old_i in enumerate(perm):
        lo, hi = int(A.rowptr[old_i]), int(A.rowptr[old_i + 1])
        nlo = int(rowptr[new_i])
        col[nlo : nlo + hi - lo] = A.col[lo:hi]
        val[nlo : nlo + hi - lo] = A.val[lo:hi]
    return CSRMatrix(rowptr, col, val, A.shape, check=False)


def _with_empty_rows(rng, dtype):
    dense = rng.normal(size=(23, 17)) * 8
    dense[rng.random(dense.shape) < 0.6] = 0.0
    dense[[0, 5, 6, 22]] = 0.0  # empty rows, first and last included
    return CSRMatrix.from_dense(dense.astype(dtype))


def _cases():
    rng = np.random.default_rng(3)
    yield "empty", CSRMatrix.empty((0, 0))
    yield "no-nnz", CSRMatrix.empty((7, 4))
    for dtype in (np.int32, np.float16, np.float64):
        yield f"empty-rows-{np.dtype(dtype).name}", _with_empty_rows(rng, dtype)
    yield "1xN", CSRMatrix.from_dense(np.array([[0, 2, 0, 3, 4]], dtype=np.float32))
    yield "Nx1", CSRMatrix.from_dense(np.array([[1], [0], [5], [0]], dtype=np.float32))
    yield "random", uniform_random(300, 200, density=0.03, rng=rng)


CASES = dict(_cases())


@pytest.mark.parametrize("name", sorted(CASES))
def test_permute_rows_matches_per_row_copy(name):
    A = CASES[name]
    rng = np.random.default_rng(len(name))
    for perm in (np.arange(A.nrows), rng.permutation(A.nrows), np.arange(A.nrows)[::-1]):
        got = A.permute_rows(perm)
        want = reference_permute_rows(A, perm)
        assert got.shape == want.shape
        for attr in ("rowptr", "col", "val"):
            g, w = getattr(got, attr), getattr(want, attr)
            assert g.dtype == w.dtype, attr
            assert np.array_equal(g, w), attr


def test_permute_rows_keeps_both_validation_errors():
    A = CASES["random"]
    with pytest.raises(ValueError, match="length"):
        A.permute_rows(np.arange(A.nrows - 1))
    duplicate = np.arange(A.nrows)
    duplicate[1] = 0
    with pytest.raises(ValueError, match="not a permutation"):
        A.permute_rows(duplicate)
    with pytest.raises(ValueError, match="not a permutation"):
        A.permute_rows(np.arange(1, A.nrows + 1))


def test_extract_rows_repeats_and_reorders():
    A = CASES["empty-rows-float64"]
    rows = np.array([3, 3, 0, 22, 1])
    got = A.extract_rows(rows).to_dense()
    np.testing.assert_array_equal(got, A.to_dense()[rows])


UNIQUE_INPUTS = {
    "empty": np.empty(0, dtype=np.int64),
    "one": np.array([42], dtype=np.int64),
    "all-equal": np.full(9, 7, dtype=np.int64),
    "negative": np.array([-3, 5, -3, 0, -7, 5, -7, -7], dtype=np.int64),
    "int32": np.random.default_rng(1).integers(-50, 50, size=500).astype(np.int32),
    "int64": np.random.default_rng(2).integers(0, 2**40, size=500) // 2**30,
    "sorted": np.repeat(np.arange(20, dtype=np.int64), 3),
}


@pytest.mark.parametrize("name", sorted(UNIQUE_INPUTS))
def test_sort_unique_matches_np_unique(name):
    values = UNIQUE_INPUTS[name]
    want, want_counts = np.unique(values, return_counts=True)
    got = sort_unique(values)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    got, got_counts = sort_unique(values, return_counts=True)
    assert np.array_equal(got, want)
    assert np.array_equal(got_counts, want_counts)
    assert got_counts.sum() == values.size


def test_sort_unique_leaves_input_alone():
    values = np.array([3, 1, 3, 2], dtype=np.int64)
    sort_unique(values)
    assert values.tolist() == [3, 1, 3, 2]


def test_run_starts_marks_first_of_each_run():
    assert run_starts(np.array([1, 1, 2, 5, 5, 5])).tolist() == [
        True,
        False,
        True,
        True,
        False,
        False,
    ]
    assert run_starts(np.empty(0, dtype=np.int64)).size == 0


def test_unpermuted_blocking_stats_are_memoised():
    A = CASES["random"]
    first = blocking_stats(A, (16, 8))
    assert blocking_stats(A, (16, 8)) is first
    assert count_blocks(A, (16, 8)) == first.n_blocks == int(blocks_per_block_row(A, (16, 8)).sum())
    assert blocking_stats(A, (8, 16)) is not first
    fresh = CSRMatrix(A.rowptr, A.col, A.val, A.shape, check=False)
    assert blocking_stats(fresh, (16, 8)) == first
    # permuted stats are computed, never memoised
    perm = np.random.default_rng(0).permutation(A.nrows)
    permuted = blocking_stats(A, (16, 8), row_perm=perm)
    assert blocking_stats(A, (16, 8), row_perm=perm) is not permuted
    assert blocking_stats(A, (16, 8)) is first
    assert permuted.n_blocks == count_blocks(A.permute_rows(perm), (16, 8))
