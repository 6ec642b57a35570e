"""Sharded execution: scatter-gather correctness, caching, reports."""

import numpy as np
import pytest

from repro import ExecutionPolicy, SMaT, SMaTConfig, ShardedSpMM
from repro.engine import SpMMEngine
from repro.matrices import block_band_matrix, suitesparse
from repro.shard import ShardPlanner, execute_partition, make_partition
from repro.tuner import Tuner


def _operand(A, n=8, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(A.ncols, n)).astype(np.float32)


class TestCorrectnessOnTableI:
    """Acceptance: sharded C equals unsharded SMaT.multiply on all nine
    Table-I stand-ins, for 1D and 2D partitions."""

    @pytest.mark.parametrize("name", suitesparse.TABLE1_NAMES)
    @pytest.mark.parametrize("grid", ["4", "2x2"])
    def test_matches_single_plan(self, name, grid):
        A = suitesparse.load(name, scale=0.04)
        B = _operand(A)
        reference = SMaT(A, SMaTConfig()).multiply(B)
        with ShardedSpMM(A, grid, policy=ExecutionPolicy(max_workers=2)) as sharded:
            C = sharded.multiply(B)
        np.testing.assert_allclose(C, reference, rtol=1e-3, atol=1e-3)


class TestFacade:
    def test_multiply_and_report(self, medium_random):
        B = _operand(medium_random)
        with ShardedSpMM(medium_random, "2x2") as sharded:
            C, report = sharded.multiply(B, return_report=True)
        np.testing.assert_allclose(C, medium_random.spmm(B), rtol=1e-3, atol=1e-3)
        assert report.n_shards == 4
        assert report.grid == (2, 2)
        assert report.nnz == medium_random.nnz
        assert len(report.table()) == 4
        rows = report.table()
        assert {"shard", "rows", "cols", "nnz", "imbalance", "config"} <= set(rows[0])

    def test_vector_operand_spmv(self, medium_random):
        x = _operand(medium_random, n=1).ravel()
        with ShardedSpMM(medium_random, 3) as sharded:
            y = sharded.multiply(x)
        assert y.ndim == 1
        np.testing.assert_allclose(
            y, medium_random.spmm(x[:, None]).ravel(), rtol=1e-3, atol=1e-3
        )

    def test_preprocess_once_then_cache_hits(self, medium_random):
        B = _operand(medium_random)
        with ShardedSpMM(medium_random, 4) as sharded:
            misses_after_init = sharded.engine.cache_stats.misses
            sharded.multiply(B)
            sharded.multiply(B)
            # no further plan builds after the eager preprocess
            assert sharded.engine.cache_stats.misses == misses_after_init

    def test_shared_engine_reuses_plans_and_stays_open(self, medium_random):
        B = _operand(medium_random)
        with SpMMEngine(cache_size=32, policy=ExecutionPolicy(max_workers=2)) as engine:
            with ShardedSpMM(medium_random, 4, engine=engine) as first:
                C1 = first.multiply(B)
            # closing the facade must not close a shared engine
            with ShardedSpMM(medium_random, 4, engine=engine) as second:
                assert all(e.cache_hit for e in second.entries)
                C2 = second.multiply(B)
        np.testing.assert_array_equal(C1, C2)

    def test_rejects_tuning_knobs_with_shared_engine(self, medium_random):
        with SpMMEngine() as engine:
            with pytest.raises(ValueError, match="engine"):
                ShardedSpMM(medium_random, 2, engine=engine, policy=ExecutionPolicy(tune=True))

    def test_rejects_non_csr(self):
        with pytest.raises(TypeError):
            ShardedSpMM(np.eye(8), 2)

    def test_failed_preprocess_closes_owned_engine(self, medium_random):
        import threading

        class BoomTuner:
            def resolve(self, A, cfg):
                raise RuntimeError("boom")

        # pinned to the thread executor: only it consults the host-side
        # tuner during prepare (process workers build their own tuner)
        before = {t.name for t in threading.enumerate()}
        with pytest.raises(RuntimeError, match="boom"):
            ShardedSpMM(
                medium_random,
                2,
                policy=ExecutionPolicy(executor="thread", tune=True),
                tuner=BoomTuner(),
            )
        leaked = [
            t.name
            for t in threading.enumerate()
            if t.name.startswith("spmm-engine") and t.name not in before
        ]
        assert not leaked

    def test_mode_defaults_to_policy(self, medium_random):
        policy = ExecutionPolicy(grid=2, shard_mode="cost")
        with ShardedSpMM(medium_random, policy=policy) as sharded:
            assert (sharded.grid, sharded.mode) == ((2, 1), "cost")
            _, report = sharded.multiply(_operand(medium_random), return_report=True)
        assert report.mode == "cost"

    def test_rejects_bad_mode(self, medium_random):
        with pytest.raises(ValueError, match="mode"):
            ShardedSpMM(medium_random, 2, mode="banana")

    def test_rejects_wrong_operand_shape(self, medium_random):
        with ShardedSpMM(medium_random, 2) as sharded:
            with pytest.raises(ValueError, match="rows"):
                sharded.multiply(np.ones((medium_random.ncols + 1, 4), dtype=np.float32))


class TestEngineIntegration:
    def test_multiply_sharded_matches_multiply(self, medium_random):
        B = _operand(medium_random)
        with SpMMEngine(cache_size=32) as engine:
            C_plain = engine.multiply(medium_random, B)
            C_sharded, report = engine.multiply_sharded(
                medium_random, B, grid="2x2", return_report=True
            )
        np.testing.assert_allclose(C_sharded, C_plain, rtol=1e-3, atol=1e-3)
        assert report.imbalance >= 1.0

    def test_partition_and_plans_cached_across_calls(self, medium_random):
        B = _operand(medium_random)
        with SpMMEngine(cache_size=32) as engine:
            engine.multiply_sharded(medium_random, B, grid=4)
            misses = engine.cache_stats.misses
            _, report = engine.multiply_sharded(medium_random, B, grid=4, return_report=True)
            assert engine.cache_stats.misses == misses
            assert all(s.cache_hit for s in report.shards)

    def test_undersized_cache_grows_instead_of_thrashing(self, medium_random):
        """A default-sized plan cache must hold the partition plus every
        shard plan at once; grid >= cache_size used to rebuild shards on
        every warm call."""
        B = _operand(medium_random)
        with SpMMEngine(cache_size=2) as engine:
            engine.multiply_sharded(medium_random, B, grid=4)
            misses = engine.cache_stats.misses
            _, report = engine.multiply_sharded(medium_random, B, grid=4, return_report=True)
            assert engine.cache_stats.misses == misses
            assert all(s.cache_hit for s in report.shards)
            assert engine.cache_stats.evictions == 0

    def test_distinct_grids_get_distinct_partitions(self, medium_random):
        B = _operand(medium_random)
        with SpMMEngine(cache_size=32) as engine:
            C1 = engine.multiply_sharded(medium_random, B, grid=2)
            C2 = engine.multiply_sharded(medium_random, B, grid="2x2")
        np.testing.assert_allclose(C1, C2, rtol=1e-3, atol=1e-3)

    def test_single_worker_engine_runs_sequentially(self, medium_random):
        B = _operand(medium_random)
        with SpMMEngine(policy=ExecutionPolicy(max_workers=1), cache_size=32) as engine:
            C = engine.multiply_sharded(medium_random, B, grid="2x2")
        np.testing.assert_allclose(C, medium_random.spmm(B), rtol=1e-3, atol=1e-3)

    def test_closed_engine_rejects_sharded_work(self, medium_random):
        engine = SpMMEngine()
        part = engine.partition_for(medium_random, 2)
        engine.close()
        with pytest.raises(RuntimeError):
            engine.multiply_sharded(medium_random, _operand(medium_random))
        with pytest.raises(RuntimeError):
            engine.partition_for(medium_random, 2)
        with pytest.raises(RuntimeError):
            engine.shard_plans_for(part)


class TestEmptyShards:
    def test_block_diagonal_2x2_off_cells_empty(self):
        # block-diagonal: a 2x2 grid leaves the off-diagonal cells (nearly)
        # empty; they must contribute nothing and not build plans
        rng = np.random.default_rng(3)
        half = block_band_matrix(256, block_size=8, block_bandwidth=1, rng=rng)
        dense = np.zeros((512, 512), dtype=np.float32)
        dense[:256, :256] = half.to_dense()
        dense[256:, 256:] = block_band_matrix(
            256, block_size=8, block_bandwidth=1, rng=rng
        ).to_dense()
        from repro.formats import CSRMatrix

        A = CSRMatrix.from_dense(dense)
        B = _operand(A)
        with ShardedSpMM(A, "2x2") as sharded:
            C, report = sharded.multiply(B, return_report=True)
        np.testing.assert_allclose(C, A.spmm(B), rtol=1e-3, atol=1e-3)
        empties = [s for s in report.shards if s.nnz == 0]
        for s in empties:
            assert s.config == "-"
            assert s.blocks == 0


class TestPerShardTuning:
    def test_tuned_shards_match_and_may_diverge_in_config(self, medium_random):
        B = _operand(medium_random)
        tuner = Tuner(cache=False, max_measure=4)
        with ShardedSpMM(
            medium_random, 2, policy=ExecutionPolicy(tune=True), tuner=tuner
        ) as sharded:
            C, report = sharded.multiply(B, return_report=True)
        np.testing.assert_allclose(C, medium_random.spmm(B), rtol=1e-3, atol=1e-3)
        # every non-empty shard carries the config its own search chose
        for s in report.shards:
            if s.nnz:
                assert "/" in s.config


class TestExecutorValidation:
    def test_entry_count_mismatch_rejected(self, medium_random):
        part = make_partition(medium_random, 2)
        from repro.engine.cache import PlanCache

        entries = ShardPlanner(PlanCache(8)).plans_for(part)
        with pytest.raises(ValueError, match="per shard"):
            execute_partition(part, entries[:1], _operand(medium_random))
