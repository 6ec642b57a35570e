"""One blocking pass for many block shapes.

``blocking_stats_many`` counts every shape from one sort at the shapes'
gcd shape; each result must equal the per-shape ``blocking_stats`` of an
unmemoised copy, field for field.  A cold tuning search counts its whole
block-shape menu with it, so it sorts the unpermuted non-zeros once.
"""

import numpy as np
import pytest

from repro import SMaTConfig
from repro.formats import CSRMatrix
from repro.matrices import hidden_cluster_matrix, uniform_random
from repro.reorder import blocking_stats, blocks_per_block_row, metrics
from repro.reorder.metrics import blocking_stats_many
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
    """A cold search measuring every candidate of the 6-shape FP16 menu sorts
    the unpermuted non-zeros once: the candidates' "before" stats and the
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
