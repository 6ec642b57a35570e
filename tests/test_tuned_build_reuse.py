"""A tuned build pays for each plan once: the plan the search built for
its winner is the plan the caller gets.

Covers the three tuned paths (the engine's ``build_with_fallback``, the
per-shard planner, and ``ExecutionPlan.build`` with ``"auto"``): a cold
matrix costs exactly the search's measured builds, a tuning-cache hit
costs one build, the served plan equals a fresh build of the winning
configuration, and concurrent tuned builds on one shared tuner each get
their own matrix's plan.
"""

import sys

import numpy as np
import pytest

from repro import ExecutionPolicy, SMaTConfig
from repro.core.plan import ExecutionPlan
from repro.engine import SpMMEngine
from repro.matrices import band_matrix, hidden_cluster_matrix
from repro.shard import ShardedSpMM
from repro.tuner import Tuner

WIDTHS = (1, 8, 32)


def _clustered(seed: int, n: int = 256):
    return hidden_cluster_matrix(
        n,
        n,
        cluster_size=16,
        segments_per_cluster=5,
        segment_width=8,
        row_fill=0.85,
        shuffle=True,
        rng=np.random.default_rng(seed),
    )


@pytest.fixture
def A():
    return _clustered(11)


@pytest.fixture
def builds(monkeypatch):
    """Matrices of every plan build that ``ExecutionPlan.build`` runs (a
    call with an ``"auto"`` configuration only resolves; the builds it
    triggers are counted, not the call itself)."""
    built = []
    for name in ("_build_blocked", "_build_unblocked"):
        original = getattr(ExecutionPlan, name).__func__

        def counting(cls, A, *args, _original=original):
            built.append(A)
            return _original(cls, A, *args)

        monkeypatch.setattr(ExecutionPlan, name, classmethod(counting))
    return built


@pytest.fixture
def searches(monkeypatch):
    """Every :class:`TuningResult` a ``Tuner.tune`` call returns."""
    results = []
    original = Tuner.tune

    def recording(self, A, config=None, *, store=False):
        result = original(self, A, config, store=store)
        results.append(result)
        return result

    monkeypatch.setattr(Tuner, "tune", recording)
    return results


def assert_same_plan(served: ExecutionPlan, fresh: ExecutionPlan) -> None:
    assert served.config == fresh.config
    assert np.array_equal(served.row_perm, fresh.row_perm)
    if fresh.col_perm is None:
        assert served.col_perm is None
    else:
        assert np.array_equal(served.col_perm, fresh.col_perm)
    assert served.report == fresh.report
    assert type(served.kernel) is type(fresh.kernel)
    if fresh.kernel.wants_reordering:
        for name in ("brow_ptr", "bcol", "blocks"):
            got, want = getattr(served.bcsr, name), getattr(fresh.bcsr, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
    for n in WIDTHS:
        assert served.price(n) == fresh.price(n)


class TestBuildCount:
    def test_engine_builds_measured_plans_only(self, A, builds, searches, tmp_path):
        B = np.ones((A.ncols, 8), dtype=np.float32)
        path = tmp_path / "tuning.json"
        with SpMMEngine(tuner=Tuner(max_measure=2, cache=path)) as engine:
            engine.execute_one(A, B)
        assert len(searches) == 1
        assert len(builds) == searches[0].n_measured == 2

        builds.clear()
        with SpMMEngine(tuner=Tuner(max_measure=2, cache=path)) as engine:
            item = engine.execute_one(A, B)
        assert len(searches) == 1, "a tuning-cache hit must not search"
        assert len(builds) == 1
        assert item.report.preprocessing.backend == "smat"

    def test_auto_plan_build(self, A, builds, searches, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TUNING_CACHE", str(tmp_path / "tuning.json"))
        plan = ExecutionPlan.build(A, SMaTConfig(reorder="auto"))
        assert len(searches) == 1
        assert len(builds) == searches[0].n_measured
        assert plan.config == searches[0].best_config

        builds.clear()
        again = ExecutionPlan.build(A, SMaTConfig(reorder="auto"))
        assert len(searches) == 1
        assert len(builds) == 1
        assert_same_plan(again, plan)

    def test_auto_kernel_plan_build(self, builds, searches, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TUNING_CACHE", str(tmp_path / "tuning.json"))
        dense = band_matrix(512, 460, rng=np.random.default_rng(7))
        plan = ExecutionPlan.build(dense, SMaTConfig(kernel="auto"))
        assert len(searches) == 1
        assert len(builds) == searches[0].n_measured
        assert plan.backend == searches[0].best.candidate.kernel

    def test_tuned_sharded_builds_measured_plans_only(self, A, builds, searches, tmp_path):
        path = tmp_path / "tuning.json"
        policy = ExecutionPolicy(tune=True, max_workers=1)
        with ShardedSpMM(A, grid="2x2", policy=policy, tuner=Tuner(max_measure=2, cache=path)):
            pass
        n_shards = len(searches)
        assert n_shards == 4
        assert len(builds) == sum(r.n_measured for r in searches)

        builds.clear()
        searches.clear()
        with ShardedSpMM(A, grid="2x2", policy=policy, tuner=Tuner(max_measure=2, cache=path)):
            pass
        assert searches == []
        assert len(builds) == n_shards


class TestServedPlan:
    @pytest.mark.parametrize("kernel", ["smat", "auto"])
    def test_resolve_with_plan_equals_fresh_build(self, A, kernel):
        config, plan = Tuner(cache=False, max_measure=3).resolve_with_plan(
            A, SMaTConfig(kernel=kernel)
        )
        assert plan is not None
        assert_same_plan(plan, ExecutionPlan.build(A, config))

    def test_non_smat_winner_equals_fresh_build(self):
        dense = band_matrix(512, 460, rng=np.random.default_rng(7))
        config, plan = Tuner(cache=False).resolve_with_plan(dense, SMaTConfig(kernel="auto"))
        assert plan.backend != "smat"
        assert_same_plan(plan, ExecutionPlan.build(dense, config))

    def test_tune_result_carries_winner_plan(self, A):
        result = Tuner(cache=False, max_measure=3).tune(A, SMaTConfig())
        assert result.plan.config == result.best_config
        assert result.plan.report.blocks_after == result.best.blocks_after
        assert "plan" not in result.cache_entry()
        assert_same_plan(result.plan, ExecutionPlan.build(A, result.best_config))

    def test_cache_hit_returns_no_plan(self, A, tmp_path):
        path = tmp_path / "tuning.json"
        first, plan = Tuner(cache=path, max_measure=2).resolve_with_plan(A)
        assert plan is not None
        second, again = Tuner(cache=path, max_measure=2).resolve_with_plan(A)
        assert (second, again) == (first, None)

    def test_engine_serves_equal_plan(self, A, tmp_path):
        with SpMMEngine(tuner=Tuner(max_measure=2, cache=tmp_path / "t.json")) as engine:
            plan = engine.plan_for(A)
        assert_same_plan(plan, ExecutionPlan.build(A, plan.config))


def test_concurrent_tuned_builds_share_one_tuner(tmp_path):
    """Two pool threads tune different matrices through one tuner; each
    plan belongs to its own matrix and each ``C`` matches scipy."""
    matrices = [_clustered(100 + i, n=128 + 16 * i) for i in range(8)]
    rng = np.random.default_rng(5)
    operands = [rng.random((A.ncols, 4), dtype=np.float32) for A in matrices]
    tuner = Tuner(max_measure=2, cache=tmp_path / "tuning.json")

    def check(A, B, C):
        expected = A.to_scipy().astype(np.float64) @ B.astype(np.float64)
        np.testing.assert_allclose(C, expected, rtol=1e-4, atol=1e-4)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with SpMMEngine(policy=ExecutionPolicy(max_workers=2), tuner=tuner) as engine:
            tickets = [engine.submit(A, B) for A, B in zip(matrices[:4], operands[:4])]
            outcomes = [
                engine.multiply_many(A, [B, 2 * B])
                for A, B in zip(matrices[4:], operands[4:])
            ]
            submitted = [engine.result(t, timeout=120) for t in tickets]
            for A, B, item in zip(matrices[:4], operands[:4], submitted):
                check(A, B, item.C)
            for A, B, outcome in zip(matrices[4:], operands[4:], outcomes):
                check(A, B, outcome[0].C)
                check(A, 2 * B, outcome[1].C)
            for A in matrices:
                assert engine.plan_for(A).A is A
    finally:
        sys.setswitchinterval(old)
