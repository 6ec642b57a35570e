"""The shard-executor seam: process pool parity, placement, leaks, telemetry.

The thread executor's behaviour is pinned by ``test_shard_execution``;
this module covers what is new at the seam: the shared-memory process
pool must produce bit-compatible results on the Table-I stand-ins, keep
its plans warm inside sticky worker sessions, warm those workers from
the persistent tuning cache, clean up every shared-memory segment on
any exit path (normal close, worker crash, KeyboardInterrupt), and
report its counters through engine telemetry and the serving
``/metrics`` document.
"""

import json
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro import SMaT, SMaTConfig, ShardedSpMM
from repro.core.policy import ExecutionPolicy
from repro.engine import SpMMEngine
from repro.engine.executors import (
    Placement,
    ProcessShardExecutor,
    ThreadShardExecutor,
    leaked_segments,
    make_shard_executor,
    place_shards,
)
from repro.matrices import suitesparse
from repro.serve import SpMMClient, SpMMServer

PROCESS = ExecutionPolicy(executor="process", max_workers=2)
THREAD = ExecutionPolicy(executor="thread", max_workers=2)

#: two process pools one after the other in one interpreter
BACK_TO_BACK_POOLS = """
import numpy as np
from repro.core.policy import ExecutionPolicy
from repro.matrices import suitesparse
from repro.shard import ShardedSpMM

A = suitesparse.load("cant", scale=0.05, use_cache=False)
policy = ExecutionPolicy(executor="process", max_workers=2)
for n in (4, 8):
    B = np.ones((A.ncols, n), dtype=np.float32)
    with ShardedSpMM(A, 2, policy=policy) as sharded:
        for _ in range(3):
            sharded.multiply(B)
"""


def _operand(A, n=8, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(A.ncols, n)).astype(np.float32)


class TestProcessParityOnTableI:
    """Acceptance: the process pool's C equals unsharded SMaT.multiply on
    all nine Table-I stand-ins, for 1D and 2D partitions."""

    @pytest.mark.parametrize("name", suitesparse.TABLE1_NAMES)
    @pytest.mark.parametrize("grid", ["4", "2x2"])
    def test_matches_single_plan(self, name, grid):
        A = suitesparse.load(name, scale=0.04)
        B = _operand(A)
        reference = SMaT(A, SMaTConfig()).multiply(B)
        with ShardedSpMM(A, grid, policy=PROCESS) as sharded:
            C = sharded.multiply(B)
        np.testing.assert_allclose(C, reference, rtol=1e-3, atol=1e-3)


class TestProcessExecution:
    def test_vector_operand_spmv(self, medium_random):
        x = _operand(medium_random, n=1).ravel()
        with ShardedSpMM(medium_random, 3, policy=PROCESS) as sharded:
            y = sharded.multiply(x)
        assert y.ndim == 1
        np.testing.assert_allclose(
            y, medium_random.spmm(x[:, None]).ravel(), rtol=1e-3, atol=1e-3
        )

    def test_repeated_multiplies_are_stable(self, medium_random):
        B = _operand(medium_random)
        with ShardedSpMM(medium_random, "2x2", policy=PROCESS) as sharded:
            C1 = sharded.multiply(B)
            C2 = sharded.multiply(B)
        np.testing.assert_array_equal(C1, C2)

    def test_warm_session_reuses_worker_plans(self, medium_random):
        with SpMMEngine(policy=PROCESS, cache_size=32) as engine:
            partition = engine.partition_for(medium_random, 2)
            cold = engine.shard_plans_for(partition, engine.config)
            assert not any(e.cache_hit for e in cold if e.shard.nnz > 0)
            warm = engine.shard_plans_for(partition, engine.config)
            assert all(e.cache_hit for e in warm)
            assert engine.telemetry().executor.sessions == 1

    def test_shard_plans_stay_in_workers_not_host_cache(self, medium_random):
        """The process executor builds plans inside the workers; the
        host plan cache holds only the partition entry.  The thread
        executor shares the host cache (plans visible in keys())."""
        with ShardedSpMM(medium_random, 2, policy=PROCESS) as sharded:
            keys = sharded.engine.plan_cache.keys()
            assert all(k[0] == "shard-partition" for k in keys)
        with ShardedSpMM(medium_random, 2, policy=THREAD) as sharded:
            keys = sharded.engine.plan_cache.keys()
            assert any(k[0] != "shard-partition" for k in keys)

    def test_report_matches_thread_report_shape(self, medium_random):
        B = _operand(medium_random)
        with ShardedSpMM(medium_random, "2x2", policy=PROCESS) as sharded:
            _, report = sharded.multiply(B, return_report=True)
        assert report.n_shards == 4
        assert report.grid == (2, 2)
        assert report.nnz == medium_random.nnz
        rows = report.table()
        assert {"shard", "rows", "cols", "nnz", "backend", "config"} <= set(rows[0])
        assert all(r["backend"] != "-" for r in rows)

    def test_env_default_selects_process_executor(self, medium_random, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        with SpMMEngine(policy=ExecutionPolicy(max_workers=2)) as engine:
            assert isinstance(engine.shard_executor, ProcessShardExecutor)
        monkeypatch.setenv("REPRO_EXECUTOR", "thread")
        with SpMMEngine(policy=ExecutionPolicy(max_workers=2)) as engine:
            assert isinstance(engine.shard_executor, ThreadShardExecutor)


class TestTuningWarmup:
    def test_workers_warm_plan_caches_from_tuning_cache(self, medium_random, tmp_path):
        cache_path = tmp_path / "tuning.json"
        B = _operand(medium_random)
        # populate the persistent cache: per-shard tuning on the thread pool
        with ShardedSpMM(
            medium_random, 2, policy=THREAD, tuning_cache=cache_path
        ) as sharded:
            C_thread = sharded.multiply(B)
        assert cache_path.exists()
        # a fresh process pool warms its workers from the same cache: the
        # tuning searches must be disk hits, not re-runs
        with ShardedSpMM(
            medium_random, 2, policy=PROCESS, tuning_cache=cache_path
        ) as sharded:
            C_process = sharded.multiply(B)
            executor = sharded.engine.telemetry().executor
        np.testing.assert_allclose(C_process, C_thread, rtol=1e-3, atol=1e-3)
        assert executor.warmup_hits >= 2  # one per non-empty shard


class TestLeakHygiene:
    def test_normal_close_leaves_no_segments(self, medium_random):
        B = _operand(medium_random)
        with ShardedSpMM(medium_random, 4, policy=PROCESS) as sharded:
            sharded.multiply(B)
            assert sharded.engine.telemetry().executor.segment_bytes > 0
        assert leaked_segments() == []

    def test_worker_crash_raises_and_leaves_no_segments(self, medium_random):
        B = _operand(medium_random)
        with ShardedSpMM(medium_random, 4, policy=PROCESS) as sharded:
            sharded.multiply(B)
            executor = sharded.engine.shard_executor
            victim, _ = executor._workers[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(5.0)
            with pytest.raises(RuntimeError, match="died unexpectedly"):
                sharded.multiply(B)
            # the executor is broken from here on, not hanging
            with pytest.raises(RuntimeError, match="broken"):
                sharded.multiply(B)
        assert leaked_segments() == []

    def test_keyboard_interrupt_leaves_no_segments(self, medium_random):
        B = _operand(medium_random)
        with pytest.raises(KeyboardInterrupt):
            with ShardedSpMM(medium_random, 2, policy=PROCESS) as sharded:
                sharded.multiply(B)
                raise KeyboardInterrupt
        assert leaked_segments() == []

    def test_close_is_idempotent(self, medium_random):
        sharded = ShardedSpMM(medium_random, 2, policy=PROCESS)
        sharded.close()
        sharded.close()
        assert leaked_segments() == []

    def test_back_to_back_pools_write_nothing_to_stderr(self):
        # the resource tracker reports a double unregister on stderr, which
        # leaked_segments() cannot see: run two pools in a fresh interpreter
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", BACK_TO_BACK_POOLS],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""


class TestPlacement:
    def test_lpt_is_deterministic(self):
        costs = [5.0, 3.0, 3.0, 2.0, 1.0]
        first = place_shards(costs, 2)
        second = place_shards(costs, 2)
        assert first.assignment == second.assignment == [0, 1, 1, 0, 1]
        assert first.loads == [7.0, 7.0]
        assert first.imbalance == pytest.approx(1.0)

    def test_imbalance_counts_idle_workers(self):
        placement = Placement(assignment=[0], loads=[4.0, 0.0], costs=[4.0])
        assert placement.imbalance == pytest.approx(2.0)

    def test_imbalance_of_empty_placement_is_one(self):
        assert place_shards([], 4).imbalance == 1.0

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="n_workers"):
            place_shards([1.0], 0)


class TestFactory:
    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown executor kind"):
            make_shard_executor("fiber", cache=None)

    def test_process_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="max_workers"):
            ProcessShardExecutor(0)

    def test_closed_executor_refuses_work(self, medium_random):
        with SpMMEngine(policy=PROCESS, cache_size=32) as engine:
            partition = engine.partition_for(medium_random, 2)
            executor = engine.shard_executor
        with pytest.raises(RuntimeError, match="closed"):
            executor.prepare(partition, engine.config)


class TestTelemetry:
    def test_counter_deltas_across_multiplies(self, medium_random):
        B = _operand(medium_random)
        with ShardedSpMM(medium_random, 4, policy=PROCESS) as sharded:
            t0 = sharded.engine.telemetry().executor
            assert t0.kind == "process" and t0.workers == 2
            assert t0.sessions == 1 and t0.shards_executed == 0
            sharded.multiply(B)
            t1 = sharded.engine.telemetry().executor
            assert t1.shards_executed == 4
            sharded.multiply(B)
            t2 = sharded.engine.telemetry().executor
            assert t2.shards_executed == 8
            assert sum(t2.per_worker_shards.values()) == t2.shards_executed
            assert set(t2.per_worker_shards) <= {0, 1}
            assert t2.placement_imbalance >= 1.0
            assert t2.segment_bytes > 0

    def test_stub_before_first_sharded_call(self):
        with SpMMEngine(policy=ExecutionPolicy(executor="process")) as engine:
            executor = engine.telemetry().executor
            assert executor.kind == "process"
            assert executor.sessions == executor.shards_executed == 0

    def test_metrics_document_exposes_executor_section(self):
        with SpMMServer(policy=ExecutionPolicy(executor="process", max_workers=2)) as server:
            doc = SpMMClient(server.url).metrics()
        json.dumps(doc)  # the whole document must stay JSON-serializable
        executor = doc["engine"]["executor"]
        assert executor["kind"] == "process"
        assert executor["workers"] == 2
        assert {
            "sessions",
            "shards_executed",
            "per_worker_shards",
            "placement_imbalance",
            "segment_bytes",
            "warmup_hits",
        } <= set(executor)
