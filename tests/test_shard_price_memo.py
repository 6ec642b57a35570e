"""Each shard grid is priced once per width: the partition's price memo."""

import dataclasses
import sys

import numpy as np
import pytest

from repro import ExecutionPolicy
from repro.core.plan import ExecutionPlan
from repro.engine import SpMMEngine
from repro.engine.cache import PlanCache
from repro.kernels import PRICE_MEMO_SIZE
from repro.obs import ObservabilityConfig
from repro.shard import ShardPlanner, execute_partition, make_partition
from repro.tuner import Tuner

WIDTHS = [None, 1, 8, 17, 33]  # None: a vector B


def _operand(A, n, seed=0):
    shape = (A.ncols,) if n is None else (A.ncols, n)
    return np.random.default_rng(seed).normal(size=shape).astype(np.float32)


@pytest.fixture
def price_calls(monkeypatch):
    """Counts ``ExecutionPlan.price`` calls (one per shard priced)."""
    calls = []
    original = ExecutionPlan.price

    def counted(self, n_cols):
        calls.append((self, n_cols))
        return original(self, n_cols)

    monkeypatch.setattr(ExecutionPlan, "price", counted)
    return calls


def _fields(report, skip=("wall_ms",)):
    """Every field of a ShardedReport and its rows but those in ``skip``."""
    head = {k: v for k, v in dataclasses.asdict(report).items() if k not in skip + ("shards",)}
    rows = [{k: v for k, v in dataclasses.asdict(s).items() if k not in skip} for s in report.shards]
    return head, rows


class TestWarmReportMatchesFreshPrice:
    @pytest.mark.parametrize("tune", [False, True], ids=["default", "tuned"])
    @pytest.mark.parametrize("grid,mode", [(2, "nnz"), ("2x2", "nnz"), ("2x2", "cost")])
    def test_fields_equal(self, medium_random, price_calls, grid, mode, tune):
        tuner = Tuner(cache=False, max_measure=4) if tune else None
        policy = ExecutionPolicy(tune=tune, max_workers=1)
        with SpMMEngine(policy=policy, tuner=tuner, cache_size=32) as engine:
            for n in WIDTHS:
                B = _operand(medium_random, n, seed=n or 0)
                cold_C, cold = engine.multiply_sharded(
                    medium_random, B, grid=grid, mode=mode, return_report=True
                )
                price_calls.clear()  # a tuned cold call also prices candidates
                warm_C, warm = engine.multiply_sharded(
                    medium_random, B, grid=grid, mode=mode, return_report=True
                )
                assert price_calls == []
                # a fresh price of the same plans at the same width
                partition = engine.partition_for(
                    medium_random, grid, mode=mode, n_cols=1 if n is None else n
                )
                partition.prices.clear()
                _, fresh = engine.multiply_sharded(
                    medium_random, B, grid=grid, mode=mode, return_report=True
                )
                assert len(price_calls) == sum(1 for s in fresh.shards if s.nnz)
                assert _fields(warm) == _fields(fresh)
                # the cold call built the plans: only its cache hits differ
                assert _fields(warm, ("wall_ms", "cache_hit")) == _fields(cold, ("wall_ms", "cache_hit"))
                assert warm_C.ndim == B.ndim
                np.testing.assert_array_equal(warm_C, cold_C)

    def test_one_span_per_non_empty_shard_on_a_hit(self, medium_random):
        B = _operand(medium_random, 8)
        policy = ExecutionPolicy(obs=ObservabilityConfig(tracing=True))
        with SpMMEngine(policy=policy, cache_size=32) as engine:
            engine.multiply_sharded(medium_random, B, grid="2x2")
            engine.tracer.drain()
            _, report = engine.multiply_sharded(medium_random, B, grid="2x2", return_report=True)
            runs = [s for s in engine.tracer.drain() if s.name == "shard.run"]
        assert len(runs) == sum(1 for s in report.shards if s.nnz) == 4


class TestEvictedPlanIsPricedAgain:
    def test_rebuilt_plan_gets_a_new_price(self, medium_random, price_calls):
        partition = make_partition(medium_random, 2)
        # one slot for two shard plans: every plans_for call rebuilds both
        planner = ShardPlanner(PlanCache(1))
        B = _operand(medium_random, 8)
        first = planner.plans_for(partition)
        _, report = execute_partition(partition, first, B)
        assert len(price_calls) == 2
        execute_partition(partition, first, B)
        assert len(price_calls) == 2

        rebuilt = planner.plans_for(partition)
        assert not any(e.cache_hit for e in rebuilt)
        assert all(new.plan is not old.plan for new, old in zip(rebuilt, first))
        _, again = execute_partition(partition, rebuilt, B)
        assert [p for p, _ in price_calls[2:]] == [e.plan for e in rebuilt]
        assert _fields(again) == _fields(report)
        execute_partition(partition, rebuilt, B)
        assert len(price_calls) == 4


class TestMemoBound:
    def test_memo_keeps_the_newest_widths(self, medium_random):
        partition = make_partition(medium_random, "2x2")
        entries = ShardPlanner(PlanCache(8)).plans_for(partition)
        widths = list(range(1, PRICE_MEMO_SIZE + 4))
        for n in widths:
            execute_partition(partition, entries, _operand(medium_random, n))
            assert len(partition.prices) <= PRICE_MEMO_SIZE
        assert [key[1] for key in partition.prices] == widths[-PRICE_MEMO_SIZE:]


class TestConcurrentPricing:
    def test_pool_callers_get_identical_reports(self, medium_random):
        """Pool threads price and evict on one partition at once: every
        report equals the serial one for its width, and the memo stays
        bounded."""
        widths = list(range(1, PRICE_MEMO_SIZE + 5))
        operands = {n: _operand(medium_random, n) for n in widths}
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with SpMMEngine(policy=ExecutionPolicy(max_workers=4), cache_size=32) as engine:
                engine.multiply_sharded(medium_random, operands[1], grid="2x2")  # builds the plans
                expected = {
                    n: _fields(
                        engine.multiply_sharded(
                            medium_random, B, grid="2x2", return_report=True
                        )[1]
                    )
                    for n, B in operands.items()
                }
                partition = engine.partition_for(medium_random, "2x2")
                partition.prices.clear()
                pool = engine._ensure_executor()
                futures = [
                    (n, pool.submit(
                        engine.multiply_sharded, medium_random, operands[n],
                        grid="2x2", return_report=True,
                    ))
                    for _ in range(4)
                    for n in widths
                ]
                reports = [(n, _fields(f.result(timeout=120)[1])) for n, f in futures]
                assert len(partition.prices) <= PRICE_MEMO_SIZE
        finally:
            sys.setswitchinterval(old_interval)
        assert all(report == expected[n] for n, report in reports)
