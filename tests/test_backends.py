"""Backend-pluggable execution stack: any kernel through every layer.

The paper's comparative result (Figures 8-10) is that the winning SpMM
library depends on the matrix.  These tests cover the whole-stack
plumbing that makes the backend a first-class plan dimension: config
validation, plan building per backend, backend-aware plan-cache keys,
the engine's unsupported-kernel fallback, the tuner's backend axis, the
engine-routed comparison harness, per-shard heterogeneous backends, the
workload pass-through, and the strict ``get_kernel`` argument check.
"""

import numpy as np
import pytest

from repro.core import ExecutionPolicy, SMaTConfig, compare_libraries
from repro.core.plan import ExecutionPlan, config_signature, plan_key
from repro.engine import SpMMEngine
from repro.formats import COOMatrix
from repro.gpu import A100_SXM4_40GB
from repro.kernels import (
    KERNEL_REGISTRY,
    KernelUnsupportedError,
    get_kernel,
    kernel_info,
)
from repro.matrices import band_matrix, suitesparse, uniform_random
from repro.tuner import Tuner, backend_menu, candidate_space

BACKENDS = tuple(KERNEL_REGISTRY)


@pytest.fixture
def problem(rng):
    A = uniform_random(512, 512, density=0.02, rng=rng)
    B = rng.normal(size=(512, 8)).astype(np.float32)
    return A, B


@pytest.fixture
def tiny_arch():
    """A simulated device too small for Magicube/cuBLAS preprocessing."""
    return A100_SXM4_40GB.with_overrides(hbm_capacity_gib=0.0001)


def _dense_plus_sparse(rng, *, head=512, n=4096, density=0.004):
    """Block-diagonal matrix: dense head block, sparse tail (the shape
    where per-shard tuning should mix backends)."""
    d = np.argwhere(np.ones((head, head), dtype=bool))
    sp = uniform_random(n - head, n - head, density=density, rng=rng).to_coo()
    rows = np.concatenate([d[:, 0], sp.row + head])
    cols = np.concatenate([d[:, 1], sp.col + head])
    vals = np.concatenate([rng.normal(size=len(d)).astype(np.float32), sp.val])
    return COOMatrix(rows, cols, vals, (n, n)).to_csr()


class TestConfigBackend:
    def test_default_is_smat(self):
        assert SMaTConfig().resolved_kernel() == "smat"

    def test_case_insensitive(self):
        assert SMaTConfig(kernel="CuBLAS").resolved_kernel() == "cublas"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            SMaTConfig(kernel="cudnn").validate()

    def test_auto_is_valid(self):
        assert SMaTConfig(kernel="auto").validate().resolved_kernel() == "auto"


class TestPlanPerBackend:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_all_backends_allclose_to_reference(self, problem, backend):
        A, B = problem
        plan = ExecutionPlan.build(A, SMaTConfig(kernel=backend))
        C, report = plan.execute(B)
        np.testing.assert_allclose(C, A.spmm(B), atol=1e-2)
        assert report.backend == backend
        assert report.preprocessing.backend == backend
        assert report.simulated_ms > 0

    @pytest.mark.parametrize("backend", [b for b in BACKENDS if b != "smat"])
    def test_non_blocked_backends_skip_reordering(self, problem, backend):
        A, B = problem
        plan = ExecutionPlan.build(A, SMaTConfig(kernel=backend, reorder="jaccard"))
        # the BCSR-specific permutation never ran: identity, no stats
        assert not plan.report.applied
        assert plan.report.algorithm == "identity"
        assert plan.reorder_result is None
        np.testing.assert_array_equal(plan.row_perm, np.arange(A.nrows))

    def test_smat_still_reorders(self, problem):
        A, _ = problem
        plan = ExecutionPlan.build(A, SMaTConfig(kernel="smat", reorder="jaccard"))
        assert plan.report.backend == "smat"
        assert plan.reorder_result is not None

    def test_bcsr_guarded_for_non_blocked(self, problem):
        A, _ = problem
        plan = ExecutionPlan.build(A, SMaTConfig(kernel="cusparse"))
        with pytest.raises(AttributeError, match="no BCSR representation"):
            plan.bcsr

    def test_backend_leads_config_signature(self):
        sig = config_signature(SMaTConfig(kernel="dasp"))
        assert sig[0] == "dasp"

    def test_backends_get_distinct_plan_keys(self, problem):
        A, _ = problem
        keys = {plan_key(A, SMaTConfig(kernel=b)) for b in BACKENDS}
        assert len(keys) == len(BACKENDS)

    def test_inert_smat_knobs_normalised_for_non_blocked_backends(self, problem):
        """Configs differing only in SMaT-only knobs share one plan key
        (a cuBLAS plan must not be densified twice because of --reorder)."""
        A, _ = problem
        base = plan_key(A, SMaTConfig(kernel="cublas"))
        assert plan_key(A, SMaTConfig(kernel="cublas", reorder="identity")) == base
        assert plan_key(A, SMaTConfig(kernel="cublas", block_shape=(8, 8))) == base
        assert plan_key(A, SMaTConfig(kernel="cublas", variant="BT")) == base
        # knobs that do change the prepared state still split the key
        assert plan_key(A, SMaTConfig(kernel="cublas", precision="tf32")) != base
        # ...and SMaT keeps its full signature
        assert plan_key(A, SMaTConfig(reorder="identity")) != plan_key(A, SMaTConfig())


class TestEngineBackends:
    def test_two_backends_coexist_in_one_cache(self, problem):
        """Acceptance: plans for two backends of one matrix do not evict
        each other by key collision."""
        A, B = problem
        with SpMMEngine(cache_size=4, policy=ExecutionPolicy(max_workers=1)) as engine:
            C1 = engine.multiply(A, B, config=SMaTConfig(kernel="smat"))
            C2 = engine.multiply(A, B, config=SMaTConfig(kernel="cublas"))
            stats = engine.cache_stats
            assert stats.size == 2 and stats.misses == 2 and stats.evictions == 0
            # both plans are cache hits now
            engine.multiply(A, B, config=SMaTConfig(kernel="smat"))
            engine.multiply(A, B, config=SMaTConfig(kernel="cublas"))
            assert engine.cache_stats.hits == 2
        np.testing.assert_allclose(C1, C2, atol=1e-2)

    def test_unsupported_backend_falls_back_to_smat(self, problem, tiny_arch):
        A, B = problem
        with SpMMEngine(cache_size=4, policy=ExecutionPolicy(max_workers=1)) as engine:
            C, report = engine.multiply(
                A, B, config=SMaTConfig(kernel="magicube", arch=tiny_arch), return_report=True
            )
            assert report.backend == "smat"
            assert report.preprocessing.fallback_from == "magicube"
            assert "Magicube" in report.preprocessing.fallback_error
            np.testing.assert_allclose(C, A.spmm(B), atol=1e-2)
            # the fallback plan is cached under the requested key: the
            # unsupported backend is not re-attempted per query
            _, report2 = engine.multiply(
                A, B, config=SMaTConfig(kernel="magicube", arch=tiny_arch), return_report=True
            )
            assert engine.cache_stats.hits == 1
            assert report2.preprocessing.fallback_from == "magicube"

    def test_batch_mixes_backends(self, problem):
        A, B = problem
        from repro.engine import BatchItem

        with SpMMEngine(cache_size=8, policy=ExecutionPolicy(max_workers=2)) as engine:
            outcome = engine.multiply_batch(
                [BatchItem(A, B, config=SMaTConfig(kernel=b)) for b in ("smat", "cusparse", "dasp")]
            )
        backends = [r.report.backend for r in outcome]
        assert backends == ["smat", "cusparse", "dasp"]
        for r in outcome:
            np.testing.assert_allclose(r.C, A.spmm(B), atol=1e-2)


class TestTunerBackendAxis:
    def test_backend_menu(self):
        assert backend_menu(SMaTConfig()) == ["smat"]
        menu = backend_menu(SMaTConfig(kernel="auto"))
        assert menu[0] == "smat" and set(menu) == set(BACKENDS)

    def test_auto_space_has_one_candidate_per_non_blocked_backend(self):
        space = candidate_space(SMaTConfig(kernel="auto"))
        by_kernel = {}
        for cand in space:
            by_kernel.setdefault(cand.kernel, []).append(cand)
        assert set(by_kernel) == set(BACKENDS)
        for backend, cands in by_kernel.items():
            if backend == "smat":
                assert len(cands) > 1  # block x reorder cross product
            else:
                assert len(cands) == 1  # block/reorder are inert

    def test_concrete_backend_space_degenerates(self):
        space = candidate_space(SMaTConfig(kernel="dasp"))
        assert [c.kernel for c in space] == ["dasp"]

    def test_unknown_kernels_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            candidate_space(SMaTConfig(), kernels=["smat", "nope"])

    def test_auto_picks_non_smat_on_dense_band(self, rng):
        """Acceptance: the tuner rediscovers the Figure-9 crossover."""
        A = band_matrix(768, 700, rng=rng)
        result = Tuner(cache=False, max_measure=4).tune(A, SMaTConfig(kernel="auto"))
        assert result.best.candidate.kernel != "smat"
        assert result.tuned_vs_default > 1.0
        # the fixed-SMaT default was still measured (never-lose anchor)
        assert result.default.measured
        assert result.default.candidate.kernel == "smat"

    def test_winning_backend_persists_and_resolves(self, rng, tmp_path):
        A = band_matrix(768, 700, rng=rng)
        tuner = Tuner(cache=tmp_path / "tc.json", max_measure=4)
        base = SMaTConfig(kernel="auto")
        resolved = tuner.resolve(A, base)
        assert resolved.resolved_kernel() != "auto"
        entry = tuner.cache.get(tuner.key_for(A, base))
        assert entry is not None and entry["kernel"] == resolved.resolved_kernel()
        # a second resolve is a pure cache hit with the same winner
        assert tuner.resolve(A, base).resolved_kernel() == resolved.resolved_kernel()
        assert tuner.cache.stats.hits >= 1

    def test_unsupported_backend_skipped_not_fatal(self, problem, tiny_arch):
        """A forced-unsupported backend is skipped in the search."""
        from repro.tuner import clear_calibration_cache

        A, _ = problem
        clear_calibration_cache()
        try:
            result = Tuner(cache=False, kernels=("smat", "magicube"), max_measure=4).tune(
                A, SMaTConfig(kernel="auto", arch=tiny_arch)
            )
        finally:
            clear_calibration_cache()
        assert result.best.candidate.kernel == "smat"
        unsupported = [o for o in result.outcomes if o.unsupported]
        assert len(unsupported) == 1
        assert unsupported[0].candidate.kernel == "magicube"
        assert unsupported[0].error is not None

    def test_unsupported_at_measure_time_frees_budget_slot(self, rng):
        """A candidate that fails only on the *target* matrix (calibration
        samples fit, the matrix does not) must not consume one of the
        max_measure slots: the next-best viable candidate is measured."""
        from repro.tuner import clear_calibration_cache

        # calibration matrices (dim <= 768 dense ~ 1.2 MiB) fit; the
        # 2048^2 target (8.4 MiB densified) does not
        arch = A100_SXM4_40GB.with_overrides(hbm_capacity_gib=0.004)
        A = band_matrix(2048, 1800, rng=rng)
        clear_calibration_cache()
        try:
            result = Tuner(cache=False, max_measure=3).tune(
                A, SMaTConfig(kernel="auto", arch=arch)
            )
        finally:
            clear_calibration_cache()
        cublas = next(o for o in result.outcomes if o.candidate.kernel == "cublas")
        assert cublas.unsupported and not cublas.measured
        # the freed slot went to a supported candidate: full budget used
        assert result.n_measured == 3
        assert result.best.candidate.kernel != "cublas"

    def test_all_backends_unsupported_raises_kernel_error(self, problem, tiny_arch):
        from repro.tuner import clear_calibration_cache

        A, _ = problem
        clear_calibration_cache()
        try:
            with pytest.raises(KernelUnsupportedError, match="no tuning candidate"):
                Tuner(cache=False).tune(A, SMaTConfig(kernel="magicube", arch=tiny_arch))
        finally:
            clear_calibration_cache()

    def test_engine_tune_auto_selects_non_smat(self, rng, tmp_path):
        """Acceptance: SpMMEngine(tune=True) + kernel='auto' picks a
        non-SMaT backend on the dense band and stays correct."""
        A = band_matrix(768, 700, rng=rng)
        B = rng.normal(size=(768, 8)).astype(np.float32)
        with SpMMEngine(
            SMaTConfig(kernel="auto"),
            policy=ExecutionPolicy(tune=True),
            tuning_cache=tmp_path / "tc.json",
        ) as engine:
            C, report = engine.multiply(A, B, return_report=True)
            assert report.backend != "smat"
            np.testing.assert_allclose(C, A.spmm(B), atol=1e-2)


class TestComparisonOnEngine:
    def test_default_libraries_unchanged(self, problem):
        A, B = problem
        results = compare_libraries(A, B)
        assert [r.library for r in results] == ["SMaT", "DASP", "Magicube", "cuSPARSE"]
        assert all(r.supported and r.correct for r in results)
        assert all("backend" in r.meta for r in results)

    def test_shared_engine_caches_all_libraries(self, problem):
        A, B = problem
        with SpMMEngine(cache_size=16, policy=ExecutionPolicy(max_workers=1)) as engine:
            compare_libraries(A, B, libraries=("smat", "cusparse", "cublas"), engine=engine)
            warm = compare_libraries(
                A, B, libraries=("smat", "cusparse", "cublas"), engine=engine
            )
            assert all(r.meta["cache_hit"] for r in warm)

    def test_unsupported_reported_via_fallback_record(self, problem, tiny_arch):
        A, B = problem
        results = compare_libraries(
            A, B, libraries=["magicube"], config=SMaTConfig(arch=tiny_arch)
        )
        assert not results[0].supported
        assert results[0].error is not None
        assert results[0].time_ms == float("inf")
        assert results[0].meta.get("fallback") == "smat"

    def test_auto_pseudo_library_row(self, rng):
        A = band_matrix(768, 700, rng=rng)
        B = rng.normal(size=(768, 8)).astype(np.float32)
        with SpMMEngine(
            SMaTConfig(), policy=ExecutionPolicy(tune=True), tuning_cache=False
        ) as engine:
            (row,) = compare_libraries(A, B, libraries=["auto"], engine=engine)
        assert row.supported and row.correct
        assert row.library.startswith("auto(")
        assert row.meta["backend"] in KERNEL_REGISTRY

    def test_tune_with_borrowed_engine_rejected(self, problem):
        A, B = problem
        with SpMMEngine() as engine:
            with pytest.raises(ValueError, match="tune=True"):
                compare_libraries(A, B, engine=engine, tune=True)


class TestShardedHeterogeneousBackends:
    def test_per_shard_backends_can_differ(self, rng, tmp_path):
        A = _dense_plus_sparse(rng)
        B = rng.normal(size=(A.ncols, 8)).astype(np.float32)
        with SpMMEngine(
            SMaTConfig(kernel="auto"),
            policy=ExecutionPolicy(tune=True, max_workers=2),
            tuning_cache=tmp_path / "tc.json",
            cache_size=32,
        ) as engine:
            C, report = engine.multiply_sharded(A, B, grid=2, return_report=True)
        np.testing.assert_allclose(C, A.spmm(B), atol=1e-2)
        assert len(report.backends) >= 2, (
            f"expected a heterogeneous backend mix, got {report.backends}"
        )
        assert all("backend" in row for row in report.table())

    def test_sharded_unsupported_backend_falls_back_per_shard(self, rng, tiny_arch):
        """multiply_sharded absorbs KernelUnsupportedError exactly like
        multiply: the failing shard falls back to SMaT with a record."""
        A = uniform_random(512, 512, density=0.02, rng=rng)
        B = rng.normal(size=(512, 8)).astype(np.float32)
        config = SMaTConfig(kernel="magicube", arch=tiny_arch)
        with SpMMEngine(config, cache_size=16, policy=ExecutionPolicy(max_workers=1)) as engine:
            C, report = engine.multiply_sharded(A, B, grid=2, return_report=True)
            partition = engine.partition_for(A, 2, config=config)
            entries = engine.shard_plans_for(partition, config)
        np.testing.assert_allclose(C, A.spmm(B), atol=1e-2)
        assert report.backends == ["smat"]
        for entry in entries:
            assert entry.plan.report.fallback_from == "magicube"


class TestWorkloadKernelPassthrough:
    def test_pagerank_kernel_override(self, rng):
        from repro.matrices import scale_free_graph
        from repro.workloads import pagerank

        G = scale_free_graph(512, avg_degree=6.0, rng=rng)
        default = pagerank(G, tol=1e-10, max_iter=30)
        cusparse = pagerank(G, tol=1e-10, max_iter=30, kernel="cusparse")
        np.testing.assert_allclose(default.scores, cusparse.scores, atol=1e-5)
        assert default.report.kernel == "smat"
        assert cusparse.report.kernel == "cusparse"

    def test_operator_kernel_merges_into_config(self, problem):
        from repro.workloads import SpMMOperator

        A, B = problem
        with SpMMOperator(A, kernel="cublas") as op:
            C = op.matmul(B)
            assert op.kernel == "cublas"
            assert op.config.resolved_kernel() == "cublas"
        np.testing.assert_allclose(C, A.spmm(B), atol=1e-2)

    def test_smoother_kernel_passthrough_runs(self, rng):
        from repro.workloads import jacobi_smoother

        A, _ = (uniform_random(256, 256, density=0.03, rng=rng), None)
        coo = A.to_coo()
        rows = np.concatenate([coo.row, coo.col, np.arange(256)])
        cols = np.concatenate([coo.col, coo.row, np.arange(256)])
        vals = np.concatenate(
            [np.abs(coo.val), np.abs(coo.val), np.full(256, 50.0, dtype=np.float32)]
        )
        S = COOMatrix(rows, cols, vals, (256, 256)).to_csr()
        b = rng.normal(size=(256, 4)).astype(np.float32)
        result = jacobi_smoother(S, b, max_iter=5, kernel="dasp")
        assert result.report.kernel == "dasp"


class TestGetKernelStrictArgs:
    def test_rejects_unknown_kwarg_naming_backend(self):
        with pytest.raises(TypeError, match="'cusparse'.*variant"):
            get_kernel("cusparse", variant="CBT")

    def test_rejects_excess_positional(self):
        with pytest.raises(TypeError, match="'cublas'"):
            get_kernel("cublas", A100_SXM4_40GB, "fp16", "extra")

    def test_smat_accepts_its_own_kwargs(self):
        k = get_kernel("smat", block_shape=(8, 8), variant="BT")
        assert k.block_shape == (8, 8)

    def test_unknown_name_still_value_error(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            get_kernel("nope")

    def test_kernel_info_rows(self):
        rows = kernel_info()
        assert {r["kernel"] for r in rows} == set(BACKENDS)
        for row in rows:
            assert row["library"] and row["format"] and row["cost_model"]
            assert isinstance(row["reordered"], bool)
        assert next(r for r in rows if r["kernel"] == "smat")["reordered"] is True


class TestFingerprintReprepare:
    """Satellite: SpMMKernel.multiply re-prepares on content, not identity."""

    def test_equal_matrix_loaded_twice_reuses_preparation(self, rng):
        A1 = uniform_random(256, 256, density=0.02, rng=np.random.default_rng(5))
        A2 = uniform_random(256, 256, density=0.02, rng=np.random.default_rng(5))
        assert A1 is not A2
        B = rng.normal(size=(256, 8)).astype(np.float32)
        kernel = get_kernel("smat")
        kernel.multiply(A1, B)
        prepared = kernel.bcsr
        kernel.multiply(A2, B)  # same bytes, different object: no re-prepare
        assert kernel.bcsr is prepared

    def test_different_matrix_reprepares(self, rng):
        A1 = uniform_random(256, 256, density=0.02, rng=np.random.default_rng(5))
        A2 = uniform_random(256, 256, density=0.02, rng=np.random.default_rng(6))
        B = rng.normal(size=(256, 8)).astype(np.float32)
        kernel = get_kernel("smat")
        C1 = kernel.multiply(A1, B).C
        prepared = kernel.bcsr
        C2 = kernel.multiply(A2, B).C
        assert kernel.bcsr is not prepared
        np.testing.assert_allclose(C2, A2.spmm(B), atol=1e-2)
        assert not np.allclose(C1, C2)

    def test_first_multiply_prepares(self, rng):
        A = uniform_random(128, 128, density=0.05, rng=rng)
        B = rng.normal(size=(128, 4)).astype(np.float32)
        kernel = get_kernel("cusparse")
        assert not kernel.is_prepared()
        result = kernel.multiply(A, B)
        np.testing.assert_allclose(result.C, A.spmm(B), atol=1e-2)
