"""ExecutionPolicy: validation, env resolution, and the surfaces that take it."""

import pickle
import warnings

import numpy as np
import pytest

from repro import SMaTConfig
from repro.core.plan import PlanSpec
from repro.core.policy import (
    EXECUTOR_ENV,
    ExecutionPolicy,
    OnlineTuningConfig,
    default_executor,
)
from repro.engine import SpMMEngine
from repro.serve import SpMMServer
from repro.shard import ShardedSpMM
from repro.workloads import (
    SpMMOperator,
    chebyshev_smoother,
    gcn_forward,
    jacobi_smoother,
    pagerank,
    power_iteration,
)


def _operand(A, n=8, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(A.ncols, n)).astype(np.float32)


class TestPolicyValue:
    def test_defaults(self):
        policy = ExecutionPolicy()
        assert policy.executor is None
        assert policy.max_workers == 4
        assert not policy.tune
        assert not policy.sharded
        assert policy.grid == 4
        assert policy.shard_mode == "nnz"
        assert policy.latency_window == 1024
        assert policy.online_tune is None

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ExecutionPolicy().max_workers = 8

    def test_replace_returns_new_value(self):
        base = ExecutionPolicy()
        tuned = base.replace(tune=True, executor="process")
        assert tuned.tune and tuned.executor == "process"
        assert not base.tune and base.executor is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"executor": "banana"},
            {"max_workers": 0},
            {"shard_mode": "banana"},
            {"latency_window": 0},
        ],
    )
    def test_rejects_invalid_fields(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionPolicy(**kwargs)

    def test_picklable(self):
        policy = ExecutionPolicy(executor="process", grid="2x2", tune=True)
        assert pickle.loads(pickle.dumps(policy)) == policy

    def test_online_tune_rides_along(self):
        cfg = OnlineTuningConfig(explore=0.25)
        policy = ExecutionPolicy(online_tune=cfg)
        assert policy.online_tune == cfg
        assert pickle.loads(pickle.dumps(policy)) == policy
        hash(policy)  # still hashable with the nested frozen config

    def test_online_tune_replace(self):
        base = ExecutionPolicy()
        enabled = base.replace(online_tune=OnlineTuningConfig())
        assert base.online_tune is None
        assert enabled.online_tune == OnlineTuningConfig()


class TestEnvResolution:
    def test_default_is_thread(self, monkeypatch):
        monkeypatch.delenv(EXECUTOR_ENV, raising=False)
        assert default_executor() == "thread"
        assert ExecutionPolicy().resolved_executor() == "thread"

    def test_env_picks_process(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV, "process")
        assert ExecutionPolicy().resolved_executor() == "process"

    def test_explicit_field_beats_env(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV, "process")
        assert ExecutionPolicy(executor="thread").resolved_executor() == "thread"

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV, "banana")
        with pytest.raises(ValueError, match="REPRO_EXECUTOR"):
            default_executor()

    def test_resolution_happens_at_use_time(self, monkeypatch):
        monkeypatch.delenv(EXECUTOR_ENV, raising=False)
        policy = ExecutionPolicy()
        assert policy.resolved_executor() == "thread"
        monkeypatch.setenv(EXECUTOR_ENV, "process")
        assert policy.resolved_executor() == "process"


class TestDeprecationGuard:
    def test_deprecation_warning_from_repro_fails_the_suite(self):
        # pyproject's filterwarnings turns repro's own DeprecationWarnings
        # into errors, so a deprecated spelling cannot return silently
        with pytest.raises(DeprecationWarning):
            warnings.warn_explicit(
                "deprecated", DeprecationWarning, "policy.py", 1, module="repro.core.policy"
            )


class TestSurfaceShims:
    """Every surface reads its execution options from policy= only."""

    def test_engine_policy_sets_pool_width(self, medium_random):
        B = _operand(medium_random)
        policy = ExecutionPolicy(max_workers=2, latency_window=64)
        with SpMMEngine(policy=policy) as engine:
            assert engine.policy == policy
            assert engine.max_workers == 2
            C = engine.execute_one(medium_random, B).C
            telemetry = engine.telemetry()
        np.testing.assert_allclose(C, medium_random.spmm(B), rtol=1e-3, atol=1e-3)
        assert telemetry.completed == 1
        assert telemetry.executor.workers == 2

    def test_engine_rejects_policy_plus_legacy(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            SpMMEngine(policy=ExecutionPolicy(), max_workers=2)

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda A, b: SpMMEngine(tune=True), id="SpMMEngine"),
            pytest.param(lambda A, b: ShardedSpMM(A, 2, max_workers=2), id="ShardedSpMM"),
            pytest.param(lambda A, b: SpMMServer(tune=True), id="SpMMServer"),
            pytest.param(lambda A, b: SpMMOperator(A, mode="cost"), id="SpMMOperator"),
            pytest.param(lambda A, b: pagerank(A, sharded=True), id="pagerank"),
            pytest.param(lambda A, b: power_iteration(A, grid=2), id="power_iteration"),
            pytest.param(lambda A, b: jacobi_smoother(A, b, tune=True), id="jacobi_smoother"),
            pytest.param(
                lambda A, b: chebyshev_smoother(A, b, max_workers=2), id="chebyshev_smoother"
            ),
            pytest.param(lambda A, b: gcn_forward(A, b, [], sharded=True), id="gcn_forward"),
        ],
    )
    def test_removed_legacy_kwargs_raise_type_error(self, medium_random, call):
        b = np.ones((medium_random.nrows, 1), dtype=np.float32)
        with pytest.raises(TypeError, match="unexpected keyword"):
            call(medium_random, b)

    def test_engine_policy_sharded_routes_multiply(self, medium_random):
        B = _operand(medium_random)
        with SpMMEngine(
            policy=ExecutionPolicy(sharded=True, grid="2x2"), cache_size=32
        ) as engine:
            C = engine.multiply(medium_random, B)
        np.testing.assert_allclose(C, medium_random.spmm(B), rtol=1e-3, atol=1e-3)

    def test_sharded_facade_grid_from_policy(self, medium_random):
        with ShardedSpMM(
            medium_random, policy=ExecutionPolicy(grid="2x2")
        ) as sharded:
            assert sharded.grid == (2, 2)

    def test_sharded_facade_rejects_policy_with_shared_engine(self, medium_random):
        with SpMMEngine() as engine:
            with pytest.raises(ValueError, match="engine"):
                ShardedSpMM(
                    medium_random, 2, engine=engine, policy=ExecutionPolicy()
                )

    def test_operator_policy_routes_sharded(self, medium_random):
        B = _operand(medium_random)
        with SpMMOperator(medium_random, policy=ExecutionPolicy(sharded=True, grid="2x2")) as op:
            assert op.sharded
            C = op.matmul(B)
            shards = op.engine.telemetry().executor.shards_executed
        np.testing.assert_allclose(C, medium_random.spmm(B), rtol=1e-3, atol=1e-3)
        assert shards == 4

    def test_operator_rejects_policy_with_shared_engine(self, medium_random):
        with SpMMEngine() as engine:
            with pytest.raises(ValueError, match="engine"):
                SpMMOperator(medium_random, engine=engine, policy=ExecutionPolicy())

    def test_server_policy_sets_workers_and_admission(self):
        with SpMMServer(policy=ExecutionPolicy(max_workers=2)) as server:
            assert server.engine.max_workers == 2
            assert server.admission.max_inflight == 2

    def test_server_rejects_policy_with_shared_engine(self):
        with SpMMEngine() as engine:
            with pytest.raises(ValueError, match="engine"):
                SpMMServer(engine=engine, policy=ExecutionPolicy())


class TestPlanSpecPicklable:
    def test_config_and_spec_roundtrip(self):
        spec = PlanSpec(SMaTConfig(reorder_columns=True), tuned=True)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.signature() == spec.signature()
        assert clone.tuned

    def test_spec_builds_equivalent_plan(self, medium_random):
        spec = PlanSpec(SMaTConfig())
        clone = pickle.loads(pickle.dumps(spec))
        B = _operand(medium_random)
        C1, _ = spec.build(medium_random).execute(B)
        C2, _ = clone.build(medium_random).execute(B)
        np.testing.assert_array_equal(C1, C2)
