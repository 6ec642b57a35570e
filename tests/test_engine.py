"""Tests for the batched execution engine (engine.cache / engine.engine)
and the shared execution plans (core.plan)."""

import numpy as np
import pytest

from repro import ExecutionPolicy, SMaT, SMaTConfig
from repro.core.plan import ExecutionPlan, config_signature, matrix_fingerprint, plan_key
from repro.engine import BatchItem, BatchSummary, PlanCache, SpMMEngine
from repro.matrices import band_matrix, hidden_cluster_matrix, uniform_random


@pytest.fixture
def clustered(rng):
    return hidden_cluster_matrix(
        384,
        384,
        cluster_size=16,
        segments_per_cluster=6,
        segment_width=8,
        row_fill=0.85,
        shuffle=True,
        rng=rng,
    )


@pytest.fixture
def B(clustered, rng):
    return rng.normal(size=(clustered.ncols, 8)).astype(np.float32)


@pytest.fixture
def engine():
    with SpMMEngine(cache_size=4, policy=ExecutionPolicy(max_workers=2)) as eng:
        yield eng


class TestFingerprint:
    def test_deterministic(self, clustered):
        assert matrix_fingerprint(clustered) == matrix_fingerprint(clustered)

    def test_memoised_on_instance(self, clustered):
        first = matrix_fingerprint(clustered)
        assert clustered._fingerprint == first  # cached: batch lookups are O(1)

    def test_structure_changes_fingerprint(self, rng):
        a = uniform_random(64, 64, density=0.05, rng=np.random.default_rng(0))
        b = uniform_random(64, 64, density=0.05, rng=np.random.default_rng(1))
        assert matrix_fingerprint(a) != matrix_fingerprint(b)

    def test_values_change_fingerprint(self, rng):
        """Same sparsity pattern, different values: must NOT share a plan."""
        a = uniform_random(64, 64, density=0.05, rng=np.random.default_rng(0))
        scaled = type(a)(a.rowptr, a.col, a.val * 2.0, a.shape)
        assert matrix_fingerprint(a) != matrix_fingerprint(scaled)

    def test_config_signature_distinguishes(self):
        assert config_signature(SMaTConfig()) != config_signature(SMaTConfig(reorder="rcm"))
        assert config_signature(SMaTConfig()) == config_signature(SMaTConfig())

    def test_plan_key_combines_both(self, clustered):
        k1 = plan_key(clustered, SMaTConfig())
        k2 = plan_key(clustered, SMaTConfig(variant="BT"))
        assert k1 != k2 and k1[0] == k2[0]


class TestExecutionPlan:
    def test_shared_between_smat_and_engine(self, clustered, B):
        """SMaT and the engine run the same plan machinery."""
        smat = SMaT(clustered)
        plan = ExecutionPlan.build(clustered, SMaTConfig())
        C_plan, report = plan.execute(B)
        np.testing.assert_array_equal(C_plan, smat.multiply(B))
        assert report.preprocessing.blocks_after == smat.preprocess_report.blocks_after

    def test_rejects_non_csr(self, clustered):
        with pytest.raises(TypeError):
            ExecutionPlan.build(clustered.to_dense())

    def test_concurrent_execution_is_consistent(self, clustered, B):
        from concurrent.futures import ThreadPoolExecutor

        plan = ExecutionPlan.build(clustered, SMaTConfig())
        expected, _ = plan.execute(B)
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda _: plan.execute(B)[0], range(8)))
        for C in results:
            np.testing.assert_array_equal(C, expected)


class TestPlanCache:
    def test_hit_miss_counters(self):
        cache = PlanCache(maxsize=2)
        value, hit = cache.get_or_build("a", lambda: 1)
        assert (value, hit) == (1, False)
        value, hit = cache.get_or_build("a", lambda: 2)
        assert (value, hit) == (1, True)  # cached value, factory not re-run
        stats = cache.stats
        assert stats.hits == 1 and stats.misses == 1
        assert stats.hit_rate == 0.5

    def test_lru_eviction(self):
        cache = PlanCache(maxsize=2)
        cache.get_or_build("a", lambda: "A")
        cache.get_or_build("b", lambda: "B")
        cache.get_or_build("a", lambda: "A")  # refresh a: b becomes LRU
        cache.get_or_build("c", lambda: "C")  # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats.evictions == 1
        assert len(cache) == 2

    def test_maxsize_validation(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)

    def test_factory_failure_counts_miss_and_releases_key(self):
        cache = PlanCache(maxsize=2)
        with pytest.raises(RuntimeError):
            cache.get_or_build("k", self._boom)
        assert cache.stats.misses == 1
        assert "k" not in cache
        # the per-key build lock must not leak: a retry builds normally
        value, hit = cache.get_or_build("k", lambda: "ok")
        assert (value, hit) == ("ok", False)

    @staticmethod
    def _boom():
        raise RuntimeError("build failed")

    def test_concurrent_misses_build_once(self):
        import threading

        cache = PlanCache(maxsize=2)
        builds = []
        barrier = threading.Barrier(4)

        def factory():
            builds.append(1)
            return "value"

        def worker():
            barrier.wait()
            cache.get_or_build("key", factory)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(builds) == 1
        assert cache.stats.misses == 1 and cache.stats.hits == 3

    def test_concurrent_distinct_shard_keys_under_eviction(self):
        """Many threads building distinct (shard-style) keys through a
        tiny cache: the per-key lock still deduplicates builds per key,
        every caller gets its own key's value (eviction can drop *cached*
        entries but never an in-flight build), and eviction pressure is
        accounted."""
        import threading

        cache = PlanCache(maxsize=2)
        n_keys, per_key = 8, 4
        builds = {k: 0 for k in range(n_keys)}
        build_lock = threading.Lock()
        barrier = threading.Barrier(n_keys * per_key)
        results = []
        results_lock = threading.Lock()

        def factory(key):
            with build_lock:
                builds[key] += 1
            return ("plan", key)

        def worker(key):
            barrier.wait()
            value, _ = cache.get_or_build(("shard", key), lambda: factory(key))
            with results_lock:
                results.append((key, value))

        threads = [
            threading.Thread(target=worker, args=(k,))
            for k in range(n_keys)
            for _ in range(per_key)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        # every caller observed the value of its own key -- an in-flight
        # build is never satisfied by (or lost to) an eviction
        assert len(results) == n_keys * per_key
        for key, value in results:
            assert value == ("plan", key)
        # the per-key build lock deduplicates concurrent first builds; a
        # key may rebuild only after eviction, never concurrently
        for key, count in builds.items():
            assert 1 <= count <= per_key
        stats = cache.stats
        assert stats.size <= 2
        assert stats.evictions >= n_keys - 2
        assert stats.misses == sum(builds.values())


class TestEngineBatching:
    def test_batch_matches_sequential_smat(self, engine, clustered, rng):
        Bs = [rng.normal(size=(clustered.ncols, 8)).astype(np.float32) for _ in range(5)]
        outcome = engine.multiply_many(clustered, Bs)
        smat = SMaT(clustered)
        assert len(outcome) == 5
        for result, B in zip(outcome, Bs):
            np.testing.assert_array_equal(result.C, smat.multiply(B))

    def test_one_preprocess_per_matrix(self, engine, clustered, rng):
        Bs = [rng.normal(size=(clustered.ncols, 4)).astype(np.float32) for _ in range(6)]
        outcome = engine.multiply_many(clustered, Bs)
        stats = outcome.summary.cache
        assert stats.misses == 1
        assert stats.hits == 5
        assert sum(1 for r in outcome if not r.cache_hit) == 1

    def test_mixed_matrices_in_one_batch(self, engine, rng):
        a = uniform_random(96, 96, density=0.05, rng=np.random.default_rng(0))
        b = band_matrix(128, 8, rng=np.random.default_rng(1))
        Ba = rng.normal(size=(96, 4)).astype(np.float32)
        Bb = rng.normal(size=(128, 4)).astype(np.float32)
        outcome = engine.multiply_batch([(a, Ba), (b, Bb), (a, Ba)])
        np.testing.assert_allclose(outcome[0].C, a.spmm(Ba), rtol=1e-3, atol=1e-3)
        np.testing.assert_allclose(outcome[1].C, b.spmm(Bb), rtol=1e-3, atol=1e-3)
        np.testing.assert_array_equal(outcome[2].C, outcome[0].C)
        assert outcome.summary.cache.misses == 2  # two distinct plans

    def test_vector_operands_spmv(self, engine, clustered, rng):
        xs = [rng.normal(size=clustered.ncols).astype(np.float32) for _ in range(3)]
        outcome = engine.multiply_batch([BatchItem(clustered, x, tag=i) for i, x in enumerate(xs)])
        for result, x in zip(outcome, xs):
            assert result.C.shape == (clustered.nrows,)
            np.testing.assert_allclose(result.C, clustered.spmv(x), rtol=1e-3, atol=1e-3)

    def test_results_keep_submission_order(self, engine, clustered, rng):
        Bs = [rng.normal(size=(clustered.ncols, 2)).astype(np.float32) for _ in range(8)]
        outcome = engine.multiply_many(clustered, Bs)
        assert [r.index for r in outcome] == list(range(8))
        assert [r.tag for r in outcome] == list(range(8))

    def test_multi_worker_pool(self, clustered, rng):
        Bs = [rng.normal(size=(clustered.ncols, 4)).astype(np.float32) for _ in range(8)]
        with SpMMEngine(cache_size=2, policy=ExecutionPolicy(max_workers=4)) as eng:
            outcome = eng.multiply_many(clustered, Bs)
            smat = SMaT(clustered)
            for result, B in zip(outcome, Bs):
                np.testing.assert_array_equal(result.C, smat.multiply(B))

    def test_per_item_reports_and_summary(self, engine, clustered, B):
        outcome = engine.multiply_many(clustered, [B, B])
        for r in outcome:
            assert r.report.gflops > 0
            assert r.report.preprocessing is not None
            assert r.wall_ms > 0
        assert outcome.summary.n_items == 2
        assert outcome.summary.useful_flops == pytest.approx(2 * 2.0 * clustered.nnz * 8)
        assert outcome.summary.items_per_second > 0
        assert outcome.summary.simulated_gflops > 0

    def test_empty_batch(self, engine):
        outcome = engine.multiply_batch([])
        assert len(outcome) == 0
        assert outcome.summary.n_items == 0

    def test_config_override_per_item(self, engine, clustered, B):
        fast = BatchItem(clustered, B, config=SMaTConfig(variant="CBT"))
        slow = BatchItem(clustered, B, config=SMaTConfig(variant="naive"))
        outcome = engine.multiply_batch([fast, slow])
        assert outcome[0].report.simulated_ms <= outcome[1].report.simulated_ms
        np.testing.assert_array_equal(outcome[0].C, outcome[1].C)


class TestBatchSummaryGuards:
    def test_zero_wall_ms_yields_zero_rates(self):
        """Very small batches can complete inside one timer tick; the
        throughput properties must report 0.0, not raise or go inf."""
        summary = BatchSummary(n_items=2, wall_ms=0.0, simulated_ms=0.0, useful_flops=1e6)
        assert summary.items_per_second == 0.0
        assert summary.wall_gflops == 0.0
        assert summary.simulated_gflops == 0.0

    def test_real_small_batch_rates_are_finite(self, engine, clustered, B):
        outcome = engine.multiply_batch([(clustered, B)])
        assert np.isfinite(outcome.summary.items_per_second)
        assert np.isfinite(outcome.summary.wall_gflops)


class TestEngineCacheBehaviour:
    def test_repeat_queries_hit_cache(self, engine, clustered, B):
        engine.multiply(clustered, B)
        engine.multiply(clustered, B)
        engine.multiply(clustered, B)
        stats = engine.cache_stats
        assert stats.misses == 1 and stats.hits == 2

    def test_lru_eviction_in_engine(self, rng):
        mats = [
            uniform_random(64, 64, density=0.08, rng=np.random.default_rng(seed))
            for seed in range(3)
        ]
        B = rng.normal(size=(64, 2)).astype(np.float32)
        with SpMMEngine(cache_size=2, policy=ExecutionPolicy(max_workers=1)) as eng:
            for A in mats:
                eng.multiply(A, B)
            assert eng.cache_stats.evictions == 1
            eng.multiply(mats[0], B)  # was evicted: rebuilt
            assert eng.cache_stats.misses == 4

    def test_clear_cache_forces_rebuild(self, engine, clustered, B):
        engine.multiply(clustered, B)
        engine.clear_cache()
        engine.multiply(clustered, B)
        assert engine.cache_stats.misses == 2

    def test_same_pattern_different_values_not_shared(self, engine, rng):
        a = uniform_random(64, 64, density=0.08, rng=np.random.default_rng(0))
        doubled = type(a)(a.rowptr, a.col, a.val * 2.0, a.shape)
        B = rng.normal(size=(64, 2)).astype(np.float32)
        C1 = engine.multiply(a, B)
        C2 = engine.multiply(doubled, B)
        np.testing.assert_allclose(C2, 2.0 * C1, rtol=1e-3, atol=1e-3)
        assert engine.cache_stats.misses == 2


class TestAsyncAPI:
    def test_submit_result_roundtrip(self, engine, clustered, B):
        smat = SMaT(clustered)
        tickets = [engine.submit(clustered, B, tag=f"job{i}") for i in range(4)]
        assert engine.pending() == 4  # tickets uncollected (work may already be done)
        results = [engine.result(t) for t in tickets]
        assert engine.pending() == 0
        for i, result in enumerate(results):
            assert result.tag == f"job{i}"
            np.testing.assert_array_equal(result.C, smat.multiply(B))

    def test_result_consumes_ticket(self, engine, clustered, B):
        ticket = engine.submit(clustered, B)
        engine.result(ticket)
        with pytest.raises(KeyError):
            engine.result(ticket)

    def test_unknown_ticket(self, engine):
        with pytest.raises(KeyError):
            engine.result(12345)

    def test_stream_preserves_order(self, engine, clustered, rng):
        Bs = [rng.normal(size=(clustered.ncols, 2)).astype(np.float32) for _ in range(10)]
        results = list(engine.stream(clustered, iter(Bs), window=3))
        smat = SMaT(clustered)
        assert [r.index for r in results] == list(range(10))
        for result, B in zip(results, Bs):
            np.testing.assert_array_equal(result.C, smat.multiply(B))

    def test_stream_window_validation(self, engine, clustered, B):
        with pytest.raises(ValueError):
            list(engine.stream(clustered, [B], window=0))

    def test_closed_engine_rejects_work(self, clustered, B):
        eng = SpMMEngine(policy=ExecutionPolicy(max_workers=1))
        eng.close()
        with pytest.raises(RuntimeError):
            eng.submit(clustered, B)
        with pytest.raises(RuntimeError):
            eng.multiply(clustered, B)
        with pytest.raises(RuntimeError):
            eng.multiply_batch([(clustered, B)])

    def test_concurrent_submits_get_unique_tickets(self, engine, clustered, B):
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=8) as pool:
            tickets = list(pool.map(lambda _: engine.submit(clustered, B), range(32)))
        assert len(set(tickets)) == 32
        for t in tickets:
            engine.result(t)
        assert engine.pending() == 0

    def test_close_is_idempotent(self):
        eng = SpMMEngine()
        eng.close()
        eng.close()


class TestEngineValidation:
    def test_worker_count_validation(self):
        with pytest.raises(ValueError):
            SpMMEngine(policy=ExecutionPolicy(max_workers=0))

    def test_plan_for_returns_shared_instance(self, engine, clustered):
        p1 = engine.plan_for(clustered)
        p2 = engine.plan_for(clustered)
        assert p1 is p2


class TestEngineTelemetry:
    def test_execute_one_returns_full_batch_result(self, engine, clustered, B):
        first = engine.execute_one(clustered, B, tag="cold")
        second = engine.execute_one(clustered, B, tag="warm")
        assert not first.cache_hit and second.cache_hit
        assert first.tag == "cold" and second.tag == "warm"
        assert first.wall_ms > 0 and second.wall_ms > 0
        np.testing.assert_array_equal(second.C, SMaT(clustered).multiply(B))

    def test_telemetry_counts_completed_work(self, engine, clustered, B):
        snap = engine.telemetry()
        assert snap.completed == 0 and snap.queue_depth == 0
        assert snap.mean_ms == snap.p50_ms == snap.p99_ms == 0.0
        engine.execute_one(clustered, B)
        engine.multiply_batch([(clustered, B), (clustered, B)])
        snap = engine.telemetry()
        assert snap.completed == 3
        assert snap.queue_depth == 0
        assert 0.0 < snap.p50_ms <= snap.p99_ms
        assert snap.mean_ms > 0.0

    def test_queue_depth_tracks_unfinished_submits(self, engine, clustered, B):
        tickets = [engine.submit(clustered, B) for _ in range(3)]
        for t in tickets:
            engine.result(t)
        # all collected: nothing unfinished, telemetry saw every item
        assert engine.queue_depth() == 0
        assert engine.telemetry().completed >= 3

    def test_latency_window_bounds_percentiles(self, clustered, B):
        with SpMMEngine(policy=ExecutionPolicy(max_workers=1, latency_window=2)) as eng:
            for _ in range(5):
                eng.execute_one(clustered, B)
            snap = eng.telemetry()
            assert snap.completed == 5  # counter is lifetime...
            # ...but percentiles summarise only the bounded recent window

    def test_latency_window_validation(self):
        with pytest.raises(ValueError):
            SpMMEngine(policy=ExecutionPolicy(latency_window=0))
