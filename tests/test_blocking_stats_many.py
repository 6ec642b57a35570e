"""Block counting: one pass for many block shapes, and the passes
themselves.

``blocking_stats_many`` counts every shape from one pass at the shapes'
gcd shape; each result must equal the per-shape ``blocking_stats`` of an
unmemoised copy, field for field.  A cold tuning search counts its whole
block-shape menu with it, so it counts the unpermuted non-zeros once.

``block_coordinates`` skips the sort of the non-zeros when their ids are
already in order, and ``RowPatterns.from_csr`` transposes its pattern
with a counting sort; both must equal a plain sort of every non-zero's
block id (and a stable argsort), on canonical and non-canonical CSR.
"""

import tracemalloc

import numpy as np
import pytest

from repro import SMaTConfig
from repro.formats import CSRMatrix
from repro.formats.base import sort_unique
from repro.matrices import hidden_cluster_matrix, suitesparse, uniform_random
from repro.reorder import blocking_stats, blocks_per_block_row, metrics
from repro.reorder._clustering import RowPatterns
from repro.reorder.hypergraph import HypergraphReorderer
from repro.reorder.metrics import block_coordinates, blocking_stats_many
from repro.tuner import Tuner, block_shape_menu

MENU = [(16, 8), (8, 8), (8, 16), (16, 16), (32, 8), (32, 16)]
SHAPE_SETS = {
    "fp16-menu": MENU,
    "gcd-4x4": [(12, 8), (8, 12)],  # gcd shape not in the set
    "gcd-1x1": [(3, 5), (7, 2), (1, 1)],
    "single": [(16, 8)],
    "repeated": [(8, 8), (16, 8), (8, 8)],
}


def _matrices():
    rng = np.random.default_rng(11)
    yield "nnz-0", CSRMatrix.empty((9, 6))
    yield "0x0", CSRMatrix.empty((0, 0))
    dense = rng.normal(size=(31, 26))
    dense[rng.random(dense.shape) < 0.7] = 0.0
    dense[[0, 4, 5, 30]] = 0.0  # empty rows, first and last included
    dense[:, [0, 9, 25]] = 0.0  # empty columns
    yield "empty-rows-cols", CSRMatrix.from_dense(dense)
    row = np.zeros((1, 37))
    row[0, [0, 3, 17, 36]] = 1.0
    yield "1x37", CSRMatrix.from_dense(row)
    col = np.zeros((45, 1))
    col[[1, 2, 30, 44], 0] = 1.0
    yield "45x1", CSRMatrix.from_dense(col)
    yield "50x29", uniform_random(50, 29, density=0.15, rng=rng)


MATRICES = dict(_matrices())


def _fresh(A):
    """An equal matrix with an empty memo."""
    return CSRMatrix(A.rowptr, A.col, A.val, A.shape, check=False)


@pytest.mark.parametrize("shapes", list(SHAPE_SETS.values()), ids=list(SHAPE_SETS))
@pytest.mark.parametrize("name", list(MATRICES))
def test_equals_per_shape_blocking_stats(name, shapes):
    A = MATRICES[name]
    got = blocking_stats_many(_fresh(A), shapes)
    assert list(got) == list(dict.fromkeys(shapes))
    for shape in shapes:
        reference = _fresh(A)
        assert got[shape] == blocking_stats(reference, shape)
        # the permuted path counts without the memo: identity permutation
        assert got[shape] == blocking_stats(
            A, shape, row_perm=np.arange(A.nrows), col_perm=np.arange(A.ncols)
        )


@pytest.mark.parametrize("name", list(MATRICES))
def test_blocks_per_block_row_read_the_memo(name):
    A = _fresh(MATRICES[name])
    stats = blocking_stats_many(A, MENU)
    for shape in MENU:
        bpr = blocks_per_block_row(A, shape)
        assert not bpr.flags.writeable
        assert blocks_per_block_row(A, shape) is bpr
        np.testing.assert_array_equal(
            bpr, blocks_per_block_row(A, shape, row_perm=np.arange(A.nrows))
        )
        assert int(bpr.sum()) == stats[shape].n_blocks


def test_one_sort_fills_every_shape(monkeypatch):
    A = _fresh(MATRICES["50x29"])
    calls = []
    block_coordinates = metrics.block_coordinates

    def counted(csr, block_shape, **kwargs):
        calls.append(tuple(block_shape))
        return block_coordinates(csr, block_shape, **kwargs)

    monkeypatch.setattr(metrics, "block_coordinates", counted)
    blocking_stats_many(A, [(12, 8), (8, 12)])
    assert calls == [(4, 4)]
    blocking_stats(A, (12, 8))
    blocking_stats_many(A, [(8, 12), (12, 8)])
    assert calls == [(4, 4)]  # memoised


def test_cold_search_counts_blocks_in_one_unpermuted_pass(monkeypatch):
    """A cold search measuring every candidate of the 6-shape FP16 menu counts
    the unpermuted non-zeros in one pass: the candidates' "before" stats and the
    plans whose reordering is not applied read the same memo (the Eq. 1
    calibration counts blocks of its own sample matrices)."""
    A = hidden_cluster_matrix(
        160, 136, cluster_size=16, segments_per_cluster=4, segment_width=8,
        row_fill=0.85, shuffle=True, rng=np.random.default_rng(4),
    )
    assert len(block_shape_menu("fp16")) == 6
    unpermuted = []
    block_coordinates = metrics.block_coordinates

    def counted(csr, block_shape, *, row_perm=None, col_perm=None):
        if csr is A and row_perm is None and col_perm is None:
            unpermuted.append(tuple(block_shape))
        return block_coordinates(csr, block_shape, row_perm=row_perm, col_perm=col_perm)

    monkeypatch.setattr(metrics, "block_coordinates", counted)
    result = Tuner(cache=False, max_measure=64).tune(A, SMaTConfig())
    assert {o.candidate.block_shape for o in result.outcomes} == set(block_shape_menu("fp16"))
    assert any(o.measured and not o.applied for o in result.outcomes)
    assert unpermuted == [(8, 8)]


def _non_canonical():
    """CSR the constructor would not produce, built with ``check=False``:
    columns shuffled within rows, and every third entry stored twice."""
    rng = np.random.default_rng(12)
    for name in ("empty-rows-cols", "50x29"):
        A = MATRICES[name]
        col = A.col.copy()
        for lo, hi in zip(A.rowptr[:-1], A.rowptr[1:]):
            col[lo:hi] = rng.permutation(col[lo:hi])
        yield f"{name}-shuffled", CSRMatrix(A.rowptr, col, A.val, A.shape, check=False)
        repeats = np.where(np.arange(A.nnz) % 3 == 0, 2, 1)
        rows = np.repeat(np.repeat(np.arange(A.nrows), np.diff(A.rowptr)), repeats)
        rowptr = np.zeros_like(A.rowptr)
        np.cumsum(np.bincount(rows, minlength=A.nrows), out=rowptr[1:])
        dup = CSRMatrix(
            rowptr, np.repeat(col, repeats), np.repeat(A.val, repeats), A.shape, check=False
        )
        yield f"{name}-duplicates", dup


DIFF_MATRICES = {**MATRICES, **dict(_non_canonical())}
DIFF_SHAPES = [(h, w) for w in (1, 8, 16) for h in (1, 8, 16)]


def _inverse(perm, n):
    return np.arange(n) if perm is None else np.argsort(perm)


def _reference_ids(A, shape, row_perm=None, col_perm=None):
    """A sort of every non-zero's linear block id, deduplicated."""
    h, w = shape
    n_block_cols = -(-A.ncols // w) if A.ncols else 0
    rows = np.repeat(np.arange(A.nrows), np.diff(A.rowptr))
    block_rows = _inverse(row_perm, A.nrows)[rows] // h
    block_cols = _inverse(col_perm, A.ncols)[A.col] // w
    return sort_unique((block_rows * n_block_cols + block_cols).astype(np.int64))


def _reference_patterns(A, w):
    """``RowPatterns`` with the transpose taken by a stable argsort."""
    n_block_cols = -(-A.ncols // w) if A.ncols else 0
    pairs = _reference_ids(A, (1, w))
    u_rows = pairs // max(1, n_block_cols)
    u_bcol = pairs - u_rows * max(1, n_block_cols)
    sizes = np.bincount(u_rows, minlength=A.nrows).astype(np.int64)
    rowptr = np.zeros(A.nrows + 1, dtype=np.int64)
    np.cumsum(sizes, out=rowptr[1:])
    col_counts = np.bincount(u_bcol, minlength=n_block_cols).astype(np.int64)
    colptr = np.zeros(n_block_cols + 1, dtype=np.int64)
    np.cumsum(col_counts, out=colptr[1:])
    return RowPatterns(
        rowptr=rowptr,
        bcol=u_bcol,
        colptr=colptr,
        rows_of_col=u_rows[np.argsort(u_bcol, kind="stable")],
        sizes=sizes,
        n_block_cols=n_block_cols,
    )


def _assert_same(got, expected):
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("name", list(DIFF_MATRICES))
def test_block_counts_equal_a_sort_of_every_non_zero(name):
    A = DIFF_MATRICES[name]
    rng = np.random.default_rng(13)
    row_perm, col_perm = rng.permutation(A.nrows), rng.permutation(A.ncols)
    perms = {
        "neither": {},
        "row": {"row_perm": row_perm},
        "col": {"col_perm": col_perm},
        "both": {"row_perm": row_perm, "col_perm": col_perm},
    }
    for h, w in DIFF_SHAPES:
        n_block_rows = -(-A.nrows // h) if A.nrows else 0
        n_block_cols = -(-A.ncols // w) if A.ncols else 0
        for kwargs in perms.values():
            expected = _reference_ids(A, (h, w), **kwargs)
            _assert_same(block_coordinates(A, (h, w), **kwargs), expected)
            brows = expected // n_block_cols if n_block_cols else expected
            _assert_same(
                blocks_per_block_row(_fresh(A), (h, w), **kwargs),
                np.bincount(brows, minlength=n_block_rows),
            )


@pytest.mark.parametrize("name", list(DIFF_MATRICES))
def test_row_patterns_equal_a_stable_argsort_transpose(name, monkeypatch):
    A = DIFF_MATRICES[name]
    for w in (1, 8, 16):
        got, expected = RowPatterns.from_csr(A, w), _reference_patterns(A, w)
        for field in ("rowptr", "bcol", "colptr", "rows_of_col", "sizes"):
            _assert_same(getattr(got, field), getattr(expected, field))
        assert type(got.n_block_cols) is int and got.n_block_cols == expected.n_block_cols
    # the hypergraph reorderer is not in the preprocessing pin
    perms = [HypergraphReorderer((16, w)).compute_row_perm(A) for w in (1, 8, 16)]
    monkeypatch.setattr(
        RowPatterns, "from_csr", classmethod(lambda cls, csr, w: _reference_patterns(csr, w))
    )
    for w, perm in zip((1, 8, 16), perms):
        _assert_same(perm, HypergraphReorderer((16, w)).compute_row_perm(A))


@pytest.mark.parametrize(
    "shape, permuted", [((8, 1), False), ((16, 8), False), ((16, 8), True), ((1, 8), False)]
)
def test_block_coordinates_memory_peak(shape, permuted):
    """The traced peak stays within 2.2 nnz-long int64 arrays: the single
    stage at ``w == 1`` (Magicube's ``(v, 1)``) keeps its boolean gather,
    and the nnz-long ids go before the pattern-long stage."""
    A = suitesparse.load("cop20k_A", scale=0.1)
    row_perm = np.random.default_rng(14).permutation(A.nrows) if permuted else None
    tracemalloc.start()
    try:
        block_coordinates(A, shape, row_perm=row_perm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * A.nnz * 8
