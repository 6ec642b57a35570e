"""Plans keep block structure, not layouts.

A blocked plan holds ``A``, its permutation(s) and its kernel's
block-structure summary: SMaT's non-zero blocks per block row, Magicube's
vectors per row panel.  Building, tuning, engine multiplies and sharded
multiplies construct no BCSR or SR-BCRS layout: with both ``from_csr``
constructors made to raise, each returns the reports of an unpatched run.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import ExecutionPolicy, SMaTConfig
from repro.core.plan import ExecutionPlan
from repro.engine import SpMMEngine
from repro.formats import BCSRMatrix, SRBCRSMatrix
from repro.formats.base import SparseFormat
from repro.matrices import hidden_cluster_matrix
from repro.reorder import metrics
from repro.shard import ShardedSpMM
from repro.tuner import tune

BACKENDS = ("smat", "cusparse", "dasp", "magicube", "cublas")
WIDTHS = (1, 8, 17, 32)


@pytest.fixture(scope="module")
def A():
    return hidden_cluster_matrix(
        200, 184, cluster_size=16, segments_per_cluster=4, segment_width=8,
        row_fill=0.85, shuffle=True, rng=np.random.default_rng(21),
    )


@pytest.fixture(scope="module")
def B(A):
    return np.random.default_rng(2).random((A.ncols, 8), dtype=np.float32)


def _build_reports(A, B):
    out = {}
    for backend in BACKENDS:
        plan = ExecutionPlan.build(A, SMaTConfig(kernel=backend))
        out[backend] = (plan.report, [plan.price(n) for n in WIDTHS])
    return out


def _tune_outcomes(A, B):
    result = tune(A, SMaTConfig(kernel="auto"))
    # preprocess_ms is host wall time; everything else is deterministic
    return [replace(o, preprocess_ms=0.0) for o in result.outcomes], result.best_config


def _engine_reports(A, B):
    with SpMMEngine(policy=ExecutionPolicy(max_workers=1)) as engine:
        return [
            engine.multiply(A, B, config=SMaTConfig(kernel=b), return_report=True)[1]
            for b in BACKENDS
        ]


def _sharded_report(A, B):
    with ShardedSpMM(A, "2x2", policy=ExecutionPolicy(max_workers=1)) as sharded:
        C, report = sharded.multiply(B, return_report=True)
    shards = [replace(s, wall_ms=0.0) for s in report.shards]
    return C, replace(report, wall_ms=0.0, shards=shards)


@pytest.mark.parametrize(
    "run", [_build_reports, _tune_outcomes, _engine_reports, _sharded_report]
)
def test_no_layout_is_built(A, B, run, monkeypatch):
    expected = run(A, B)

    def refuse(*args, **kwargs):
        raise AssertionError("a BCSR or SR-BCRS layout was built")

    monkeypatch.setattr(BCSRMatrix, "from_csr", refuse)
    monkeypatch.setattr(SRBCRSMatrix, "from_csr", refuse)
    got = run(A, B)
    if run is _sharded_report:
        np.testing.assert_array_equal(got[0], expected[0])
        got, expected = got[1], expected[1]
    assert got == expected


@pytest.mark.parametrize("backend", ["smat", "magicube"])
def test_kernel_keeps_only_the_structure_summary(A, backend):
    plan = ExecutionPlan.build(A, SMaTConfig(kernel=backend))
    assert not hasattr(plan, "permuted")
    kernel = plan.kernel
    rows_per_unit = kernel.block_shape[0] if backend == "smat" else kernel.vector_length
    n_units = -(-A.nrows // rows_per_unit)  # block rows or row panels
    arrays = [v for v in vars(kernel).values() if isinstance(v, np.ndarray)]
    assert arrays
    assert max(a.size for a in arrays) <= n_units + 1
    formats = [v for v in vars(kernel).values() if isinstance(v, SparseFormat)]
    assert formats == [A]


def test_reordered_build_counts_the_permuted_blocks_once(A, monkeypatch):
    """SMaT prepares from the counts its plan's reorder took for
    ``stats_after`` instead of counting the permuted blocks again."""
    permuted_passes = []
    block_coordinates = metrics.block_coordinates

    def counted(csr, block_shape, *, row_perm=None, col_perm=None):
        permuted_passes.append(row_perm is not None or col_perm is not None)
        return block_coordinates(csr, block_shape, row_perm=row_perm, col_perm=col_perm)

    monkeypatch.setattr(metrics, "block_coordinates", counted)
    plan = ExecutionPlan.build(A, SMaTConfig(reorder="jaccard", auto_skip_reordering=False))
    assert plan.report.applied
    assert permuted_passes.count(True) == 1
    np.testing.assert_array_equal(plan.kernel.blocks_per_row, plan.reorder_result.blocks_per_row)


def test_multiply_on_a_plans_kernel_leaves_the_plan_alone(A, B):
    """``kernel.multiply`` on a reordered plan's kernel runs a fresh kernel
    prepared for ``A`` itself; the plan keeps pricing its permuted
    structure."""
    plan = ExecutionPlan.build(A, SMaTConfig(reorder="jaccard"))
    assert plan.report.applied and plan.report.blocks_after < plan.report.blocks_before
    price_before = plan.price(8)
    report_before = replace(plan.report)
    kernel = plan.kernel

    result = plan.kernel.multiply(plan.A, B)

    np.testing.assert_allclose(result.C, A.to_scipy() @ B, rtol=1e-5, atol=1e-5)
    assert result.meta["n_blocks"] == plan.report.blocks_before  # A unpermuted
    assert plan.kernel is kernel and plan.report == report_before
    assert plan.price(8) == price_before
    assert price_before.kernel_meta["n_blocks"] == plan.report.blocks_after
