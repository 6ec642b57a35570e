"""The memoised device price of a plan equals a fresh kernel's, bit for bit.

A plan serves ``C`` from ``A``'s CSR and prices its block structure through
:meth:`repro.kernels.SpMMKernel.price`, which keeps the counters and the
efficiency of each ``B`` width.  The fresh kernel is prepared on ``A``
with the plan's row (and column) permutation materialised, so these tests
also pin that pricing a blocked plan from block counts under the
permutation equals pricing the permuted matrix itself.  They pin that the
memo changes nothing: every counter field, ``simulated_ms``, ``bound`` and
``kernel_meta`` equal those of a newly prepared kernel that never priced
before, on the first call and on repeats, past the memo's capacity, from
concurrent callers, and on edge-case matrices.  The memo holds plain data
only, so a closed plan is freed by reference counting alone.  The layout a
blocked plan prices is ``A`` under the plan's own row (and column)
permutation.
"""

import gc
import sys
import threading
import weakref
from dataclasses import fields

import numpy as np
import pytest

from repro import SMaTConfig
from repro.core.plan import ExecutionPlan
from repro.formats import CSRMatrix, SRBCRSMatrix
from repro.gpu import A100_SXM4_40GB, KernelCounters, KernelEfficiency
from repro.kernels import (
    KERNEL_REGISTRY,
    PRICE_MEMO_SIZE,
    KernelUnsupportedError,
    get_kernel,
    magicube,
)
from repro.matrices import hidden_cluster_matrix, uniform_random

BACKENDS = ("smat", "cusparse", "dasp", "magicube", "cublas")
WIDTHS = (1, 8, 17, 32)
BLOCKED = tuple(name for name, cls in KERNEL_REGISTRY.items() if cls.wants_reordering)
#: name -> (reorder, reorder_columns)
LAYOUTS = {
    "identity": ("identity", False),
    "jaccard": ("jaccard", False),
    "rcm": ("rcm", False),
    "jaccard+columns": ("jaccard", True),
}


@pytest.fixture(scope="module")
def A():
    return uniform_random(160, 144, density=0.04, rng=np.random.default_rng(11))


def _permuted(plan: ExecutionPlan) -> CSRMatrix:
    """``A`` with the plan's row, then column, permutation applied."""
    permuted = plan.A.permute_rows(plan.row_perm)
    if plan.col_perm is not None:
        permuted = permuted.permute_cols(plan.col_perm)
    return permuted


def _fresh_price(plan: ExecutionPlan, n_cols: int):
    """Counters and timing of a kernel newly prepared on the materialised
    permuted matrix, priced without a memo."""
    cfg = plan.config
    kwargs = {}
    if plan.backend == "smat":
        kwargs = {"variant": cfg.variant, "block_shape": cfg.resolved_block_shape()}
    kernel = get_kernel(plan.backend, cfg.arch, cfg.precision, **kwargs)
    kernel.prepare(_permuted(plan))
    counters = kernel._counters(n_cols)
    timing = kernel.cost_model.simulate(
        counters,
        kernel._efficiency(counters),
        launch_overhead_us=kernel.launch_overhead_us,
        n_launches=int(counters.extra.get("launches", 1)),
    )
    return counters, timing, kernel._meta(counters, timing)


def _assert_counters_equal(got: KernelCounters, want: KernelCounters):
    for f in fields(KernelCounters):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


@pytest.mark.parametrize("backend", BACKENDS)
def test_report_equals_fresh_kernel(A, backend):
    plan = ExecutionPlan.build(A, SMaTConfig(kernel=backend))
    for repeat in range(2):
        for n in WIDTHS:
            B = np.random.default_rng(n).random((A.ncols, n), dtype=np.float32)
            _, report = plan.execute(B)
            counters, timing, meta = _fresh_price(plan, n)
            assert report.simulated_ms == timing.time_ms, (repeat, n)
            assert report.gflops == timing.gflops
            assert report.bound == timing.bound
            assert report.useful_flops == counters.useful_flops
            assert report.kernel_meta == meta
            memoised = plan.kernel.price(n).counters
            _assert_counters_equal(memoised, counters)
            assert plan.kernel.price(n).counters is memoised  # computed once


def _edge_matrix(name: str) -> CSRMatrix:
    rng = np.random.default_rng(3)
    if name == "nnz0":
        return CSRMatrix.empty((40, 24))
    shape = {"1xN": (1, 37), "Nx1": (45, 1)}.get(name, (50, 29))
    dense = np.where(rng.random(shape) < 0.3, rng.integers(1, 9, size=shape), 0)
    if name == "empty_rows_cols":
        dense[::3] = 0
        dense[:, 1::4] = 0
    return CSRMatrix.from_dense(dense.astype(np.int32 if name == "int" else np.float32))


#: nnz 0, empty rows and columns, 1xN, Nx1, 50x29 (no multiple of any h, w
#: or v), and int values
EDGES = ("nnz0", "empty_rows_cols", "1xN", "Nx1", "odd_dims", "int")


def _assert_plan_prices_fresh(plan: ExecutionPlan):
    for n in WIDTHS:
        report = plan.price(n)
        counters, timing, meta = _fresh_price(plan, n)
        _assert_counters_equal(plan.kernel.price(n).counters, counters)
        assert report.simulated_ms == timing.time_ms, n
        assert report.gflops == timing.gflops
        assert report.bound == timing.bound
        assert report.kernel_meta == meta


@pytest.mark.parametrize("edge", EDGES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_edge_matrices_price_as_the_permuted_matrix(backend, edge):
    _assert_plan_prices_fresh(ExecutionPlan.build(_edge_matrix(edge), SMaTConfig(kernel=backend)))


@pytest.mark.parametrize("matrix", ("clustered",) + EDGES)
@pytest.mark.parametrize("block_shape", [(16, 8), (8, 16)])
@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_smat_prices_block_counts_as_the_permuted_matrix(layout, block_shape, matrix):
    """SMaT's counters, timing and meta from block counts under the
    permutation equal those of a kernel prepared on the permuted matrix."""
    reorder, columns = LAYOUTS[layout]
    if matrix == "clustered":
        A = hidden_cluster_matrix(
            160, 136, cluster_size=16, segments_per_cluster=4, segment_width=8,
            row_fill=0.85, shuffle=True, rng=np.random.default_rng(9),
        )
    else:
        A = _edge_matrix(matrix)
    config = SMaTConfig(
        reorder=reorder, reorder_columns=columns, block_shape=block_shape,
        auto_skip_reordering=False,
    )
    plan = ExecutionPlan.build(A, config)
    if columns and A.nnz:
        assert plan.col_perm is not None
    _assert_plan_prices_fresh(plan)


@pytest.mark.parametrize("backend", BACKENDS)
def test_mutated_kernel_meta_does_not_leak(A, backend):
    plan = ExecutionPlan.build(A, SMaTConfig(kernel=backend))
    B = np.ones((A.ncols, 8), dtype=np.float32)
    _, first = plan.execute(B)
    expected = dict(first.kernel_meta)
    first.kernel_meta.clear()
    first.kernel_meta["format"] = "poisoned"
    _, second = plan.execute(B)
    assert second.kernel_meta == expected


def test_memo_counters_are_read_only(A):
    plan = ExecutionPlan.build(A, SMaTConfig(kernel="smat"))
    cycles = plan.kernel.price(8).counters.warp_work_cycles
    with pytest.raises(ValueError):
        cycles[0] = 0.0


@pytest.mark.parametrize("backend", BACKENDS)
def test_more_widths_than_the_memo_holds(A, backend):
    plan = ExecutionPlan.build(A, SMaTConfig(kernel=backend))
    widths = list(range(1, 2 * PRICE_MEMO_SIZE + 2))
    first = {n: plan.price(n) for n in widths}
    assert len(plan.kernel._prices) == PRICE_MEMO_SIZE
    for n in reversed(widths):  # evicted widths are priced again
        again = plan.price(n)
        assert again.simulated_ms == first[n].simulated_ms
        assert again.kernel_meta == first[n].kernel_meta
        assert again.simulated_ms == _fresh_price(plan, n)[1].time_ms
    assert len(plan.kernel._prices) == PRICE_MEMO_SIZE


@pytest.mark.parametrize("backend", BACKENDS)
def test_concurrent_callers_get_identical_reports(A, backend):
    plan = ExecutionPlan.build(A, SMaTConfig(kernel=backend))
    # more widths than the memo holds, so callers also race on eviction
    widths = (1, 8, 17, 32, 3, 9, 2, 5, 11, 40)
    operands = {n: np.ones((A.ncols, n), dtype=np.float32) for n in widths}
    expected = {}
    for n in widths:
        counters, timing, meta = _fresh_price(plan, n)
        expected[n] = (timing.time_ms, timing.bound, counters.useful_flops, meta)
    errors = []
    barrier = threading.Barrier(4)

    def caller(offset):
        barrier.wait()
        for i in range(40):
            n = widths[(i + offset) % len(widths)]
            _, r = plan.execute(operands[n])
            got = (r.simulated_ms, r.bound, r.useful_flops, r.kernel_meta)
            if got != expected[n]:
                errors.append((n, got, expected[n]))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(plan.kernel._prices) <= PRICE_MEMO_SIZE


@pytest.mark.parametrize("backend", BACKENDS)
def test_memo_holds_plain_data(A, backend):
    """No closure over the kernel in the memo: a priced plan is freed by
    reference counting alone, without the cycle collector."""
    plan = ExecutionPlan.build(A, SMaTConfig(kernel=backend))
    for n in WIDTHS:
        plan.price(n)
    for counters, efficiency in plan.kernel._prices.values():
        assert type(counters) is KernelCounters
        assert type(efficiency) is KernelEfficiency
    kernel_ref = weakref.ref(plan.kernel)
    gc.disable()
    try:
        del plan
        assert kernel_ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("layout", list(LAYOUTS))
@pytest.mark.parametrize("backend", BLOCKED)
def test_priced_layout_is_the_permuted_matrix(backend, layout):
    """The blocks a plan prices densify to ``A`` with the plan's row
    permutation, then its column permutation, applied."""
    reorder, columns = LAYOUTS[layout]
    A = hidden_cluster_matrix(
        192, 160, cluster_size=16, segments_per_cluster=4, segment_width=8,
        row_fill=0.85, shuffle=True, rng=np.random.default_rng(5),
    )
    config = SMaTConfig(
        kernel=backend, reorder=reorder, reorder_columns=columns, auto_skip_reordering=False
    )
    plan = ExecutionPlan.build(A, config)
    expected = A.permute_rows(plan.row_perm)
    if reorder != "identity":
        assert not np.array_equal(plan.row_perm, np.arange(A.nrows))
    if columns:
        assert plan.col_perm is not None
        expected = expected.permute_cols(plan.col_perm)
    else:
        assert plan.col_perm is None
    np.testing.assert_array_equal(plan.bcsr.to_dense(), expected.to_dense())


@pytest.mark.parametrize("edge", ("clustered",) + EDGES)
def test_magicube_memory_gate_counts_the_srbcrs_bytes(A, edge):
    """Magicube's footprint from vector counts is the SR-BCRS layout's
    bytes, so an HBM just below (above) six times it rejects (accepts)."""
    matrix = A if edge == "clustered" else _edge_matrix(edge)
    kernel = get_kernel("magicube")
    kernel.prepare(matrix)
    layout_bytes = SRBCRSMatrix.from_csr(matrix).memory_footprint_bytes()
    assert kernel.layout_bytes == layout_bytes
    # fits_in_device_memory keeps a 5% reserve for the CUDA context
    usable_gib = layout_bytes * magicube.MEMORY_FOOTPRINT_FACTOR / (2**30 * 0.95)
    arch = A100_SXM4_40GB.with_overrides
    roomy = get_kernel("magicube", arch(hbm_capacity_gib=usable_gib * 1.001))
    roomy.prepare(matrix)
    _assert_counters_equal(roomy.price(8).counters, kernel.price(8).counters)
    tight = get_kernel("magicube", arch(hbm_capacity_gib=usable_gib * 0.999))
    with pytest.raises(KernelUnsupportedError, match="Magicube preprocessing needs"):
        tight.prepare(matrix)


@pytest.mark.parametrize("layout", ["jaccard", "jaccard+columns"])
def test_plan_kernel_multiply_prepares_for_a_itself(A, layout):
    """A plan's kernel summarises ``A`` under a permutation, so
    ``multiply(plan.A, B)`` prepares it again for ``A`` itself: ``C`` and
    the price are those of a kernel prepared on ``A``."""
    reorder, columns = LAYOUTS[layout]
    plan = ExecutionPlan.build(
        A, SMaTConfig(reorder=reorder, reorder_columns=columns, auto_skip_reordering=False)
    )
    assert plan.report.applied
    B = np.random.default_rng(4).random((A.ncols, 8), dtype=np.float32)
    got = plan.kernel.multiply(plan.A, B)
    fresh = get_kernel("smat")
    fresh.prepare(A)
    want = fresh.run(B)
    np.testing.assert_array_equal(got.C, A.spmm(B))
    _assert_counters_equal(got.counters, want.counters)
    assert got.time_ms == want.time_ms
    assert got.meta == want.meta
