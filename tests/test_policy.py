"""ExecutionPolicy: validation, removed-field compat, and the surfaces that take it."""

import pickle
import threading
import warnings

import numpy as np
import pytest

from repro.core.policy import ExecutionPolicy
from repro.engine import SpMMEngine
from repro.serve import SpMMServer
from repro.shard import ShardedReport, ShardedSpMM
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
        tuned = base.replace(tune=True, executor="thread")
        assert tuned.tune and tuned.executor == "thread"
        assert not base.tune and base.executor is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_workers": -1},
            {"max_workers": 0},
            {"shard_mode": "banana"},
            {"latency_window": 0},
            {"grid": "bogus"},
            {"grid": 0},
            {"grid": "0x2"},
            {"grid": (2, 0)},
            {"grid": -1},
        ],
    )
    def test_rejects_invalid_fields(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionPolicy(**kwargs)

    def test_picklable(self):
        policy = ExecutionPolicy(executor="thread", grid="2x2", tune=True)
        assert pickle.loads(pickle.dumps(policy)) == policy

    # online tuning was removed: ``online_tune=None`` is the only legal value
    def test_online_tune_rides_along(self):
        policy = ExecutionPolicy(online_tune=None)
        assert policy.online_tune is None
        assert pickle.loads(pickle.dumps(policy)) == policy
        hash(policy)

    def test_online_tune_replace(self):
        base = ExecutionPolicy(tune=True)
        again = base.replace(online_tune=None)
        assert again == base and again.online_tune is None

    def test_resolved_online_tune_is_none(self, monkeypatch):
        monkeypatch.setenv("REPRO_ONLINE_TUNE", "1")
        assert ExecutionPolicy().resolved_online_tune() is None

    @pytest.mark.parametrize("value", [True, 1, "on", {}, object()])
    def test_any_other_value_raises(self, value):
        with pytest.raises(TypeError, match="online tuning was removed"):
            ExecutionPolicy(online_tune=value)
        with pytest.raises(TypeError, match="online tuning was removed"):
            ExecutionPolicy().replace(online_tune=value)

    def test_env_starts_no_tuner_thread(self, monkeypatch, medium_random):
        monkeypatch.setenv("REPRO_ONLINE_TUNE", "1")
        with SpMMEngine(policy=ExecutionPolicy(max_workers=1)) as engine:
            engine.execute_one(medium_random, _operand(medium_random))
            names = [t.name for t in threading.enumerate()]
        assert not any(name.startswith("spmm-online") for name in names)


class TestExecutorCompat:
    """The process executor was removed: ``executor`` only accepts ``None``
    or ``"thread"`` and resolves to ``"thread"`` whatever the environment."""

    @pytest.mark.parametrize("value", [None, "thread"])
    def test_legal_values_construct_pickle_and_replace(self, value):
        policy = ExecutionPolicy(executor=value, max_workers=1)
        assert policy.executor == value
        assert pickle.loads(pickle.dumps(policy)) == policy
        assert ExecutionPolicy().replace(executor=value).executor == value
        hash(policy)

    def test_process_raises(self):
        with pytest.raises(TypeError, match="process executor was removed"):
            ExecutionPolicy(executor="process")
        with pytest.raises(TypeError, match="process executor was removed"):
            ExecutionPolicy().replace(executor="process")

    @pytest.mark.parametrize("value", ["banana", "", 1, True])
    def test_any_other_value_raises(self, value):
        with pytest.raises(TypeError, match="process executor was removed"):
            ExecutionPolicy(executor=value)

    def test_resolved_executor_ignores_env(self, monkeypatch):
        # the variable that used to select the process pool for a whole run
        monkeypatch.setenv("_".join(("REPRO", "EXECUTOR")), "process")
        assert ExecutionPolicy().resolved_executor() == "thread"
        assert ExecutionPolicy(executor="thread").resolved_executor() == "thread"


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
            _, report = op.engine.multiply(
                medium_random, B, config=op.config, return_report=True
            )
        np.testing.assert_allclose(C, medium_random.spmm(B), rtol=1e-3, atol=1e-3)
        assert isinstance(report, ShardedReport)
        assert report.n_shards == 4

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

