"""Tests for the auto-tuning subsystem (tuner.space / model / cache /
search) and its wiring into the plan builder and the engine."""

import json

import numpy as np
import pytest

from repro import ExecutionPolicy, SMaT, SMaTConfig
from repro.core.plan import ExecutionPlan
from repro.engine import SpMMEngine
from repro.matrices import hidden_cluster_matrix
from repro.tuner import (
    Candidate,
    Tuner,
    TuningCache,
    block_shape_menu,
    candidate_space,
    calibrate,
    estimate_candidate,
    tune,
)


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


class TestCandidateSpace:
    def test_menu_contains_mma_default(self):
        assert (16, 8) in block_shape_menu("fp16")
        assert block_shape_menu("fp16")[0] == (16, 8)  # default first
        assert (8, 8) in block_shape_menu("fp64")

    def test_space_contains_paper_default(self):
        space = candidate_space(SMaTConfig())
        assert Candidate(block_shape=(16, 8), reorder="jaccard") in space

    def test_space_covers_shapes_x_reorderers(self):
        space = candidate_space(
            SMaTConfig(), block_shapes=[(16, 8), (8, 8)], reorderers=["jaccard", "identity"]
        )
        labels = {c.label for c in space}
        assert labels == {"16x8/jaccard", "16x8/identity", "8x8/jaccard", "8x8/identity"}

    def test_column_permutation_knob(self):
        space = candidate_space(SMaTConfig(), include_column_permutation=True)
        assert any(c.reorder_columns for c in space)
        # the identity never gets a column variant (nothing to permute for)
        assert not any(c.reorder_columns and c.reorder == "identity" for c in space)

    def test_candidate_expand_inherits_base(self):
        base = SMaTConfig(precision="fp16", variant="BT")
        cfg = Candidate(block_shape=(8, 8), reorder="rcm").expand(base)
        assert cfg.block_shape == (8, 8)
        assert cfg.reorder == "rcm"
        assert cfg.variant == "BT"

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            candidate_space(SMaTConfig(), reorderers=[])
        with pytest.raises(ValueError):
            candidate_space(SMaTConfig(), block_shapes=[])


class TestAnalyticalModel:
    def test_calibration_fits_linear_model(self):
        fit = calibrate(SMaTConfig(), (16, 8), n_cols=8)
        assert fit.t_e > 0
        assert fit.t_init >= 0
        assert fit.n_samples >= 2

    def test_calibration_memoised(self):
        first = calibrate(SMaTConfig(), (16, 8), n_cols=8)
        second = calibrate(SMaTConfig(), (16, 8), n_cols=8)
        assert first is second

    def test_estimate_brackets_time(self, clustered):
        est = estimate_candidate(
            clustered, SMaTConfig(), (16, 8), reorders=True, n_cols=8
        )
        assert 0 < est.blocks_lower_bound <= est.blocks_now
        assert 0 < est.optimistic_s <= est.guaranteed_s

    def test_identity_estimate_has_no_bracket(self, clustered):
        est = estimate_candidate(
            clustered, SMaTConfig(), (16, 8), reorders=False, n_cols=8
        )
        assert est.blocks_lower_bound == est.blocks_now
        assert est.optimistic_s == est.guaranteed_s


class TestTuningCache:
    def test_roundtrip(self, tmp_path):
        cache = TuningCache(tmp_path / "t.json")
        assert cache.get("k") is None
        cache.put("k", {"reorder": "jaccard"})
        assert cache.get("k") == {"reorder": "jaccard"}
        assert len(cache) == 1

    def test_persists_across_instances(self, tmp_path):
        path = tmp_path / "t.json"
        TuningCache(path).put("k", {"x": 1})
        assert TuningCache(path).get("k") == {"x": 1}

    def test_merges_concurrent_writers(self, tmp_path):
        path = tmp_path / "t.json"
        a, b = TuningCache(path), TuningCache(path)
        a.put("ka", {"x": 1})
        b.put("kb", {"x": 2})
        assert a.get("ka") == {"x": 1}
        assert a.get("kb") == {"x": 2}

    def test_corrupt_file_treated_as_empty(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text("{not json")
        cache = TuningCache(path)
        assert cache.get("k") is None
        cache.put("k", {"x": 1})  # and it recovers by rewriting
        assert cache.get("k") == {"x": 1}

    def test_clear_and_stats(self, tmp_path):
        cache = TuningCache(tmp_path / "t.json")
        cache.put("k", {})
        cache.get("k")
        cache.get("missing")
        stats = cache.stats
        assert stats.hits == 1 and stats.misses == 1 and stats.stores == 1
        cache.clear()
        assert len(cache) == 0


class TestSearch:
    def test_winner_never_loses_to_default(self, clustered):
        result = tune(clustered)
        assert result.best is not None and result.default is not None
        assert result.default.measured, "the default configuration must be measured"
        assert result.best.simulated_ms <= result.default.simulated_ms
        assert result.tuned_vs_default >= 1.0

    def test_pruning_shrinks_measured_set(self, clustered):
        result = tune(clustered, max_measure=4)
        assert result.n_measured <= 4
        assert result.n_measured < len(result.outcomes)
        assert result.n_pruned > 0

    def test_winning_config_builds_correct_plan(self, clustered, B):
        result = tune(clustered)
        plan = ExecutionPlan.build(clustered, result.best_config)
        C, _ = plan.execute(B)
        np.testing.assert_allclose(C, clustered.spmm(B), rtol=1e-2, atol=1e-2)

    def test_table_marks_single_winner(self, clustered):
        rows = tune(clustered).table()
        assert sum(1 for r in rows if r["winner"] == "*") == 1
        assert {"candidate", "predicted_ms", "measured_ms", "status"} <= set(rows[0])

    def test_resolve_searches_once(self, clustered, tmp_path, monkeypatch):
        tuner = Tuner(cache=TuningCache(tmp_path / "t.json"))
        first = tuner.resolve(clustered, SMaTConfig())

        def boom(*a, **k):
            raise AssertionError("resolve() must not re-search on a cache hit")

        monkeypatch.setattr(Tuner, "tune", boom)
        second = tuner.resolve(clustered, SMaTConfig())
        assert second == first

    def test_custom_budget_and_space_validated(self):
        with pytest.raises(ValueError):
            Tuner(cache=False, max_measure=0)
        with pytest.raises(ValueError):
            Tuner(cache=False, repeats=0)


class TestAutoConfig:
    def test_reorder_auto_resolves_through_tuner(self, clustered, B, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TUNING_CACHE", str(tmp_path / "auto.json"))
        smat = SMaT(clustered, SMaTConfig(reorder="auto"))
        assert smat.plan.config.reorder not in ("auto", "")
        np.testing.assert_allclose(
            smat.multiply(B), clustered.spmm(B), rtol=1e-2, atol=1e-2
        )
        # the search was persisted for the next process
        entries = json.loads((tmp_path / "auto.json").read_text())["entries"]
        assert len(entries) == 1


class TestEngineTuning:
    def test_tuning_cache_implies_tune_and_results_stay_correct(
        self, clustered, B, tmp_path
    ):
        path = tmp_path / "t.json"
        with SpMMEngine(tuning_cache=path) as engine:
            assert engine.tuner is not None  # tuning_cache alone enables tuning
            C = engine.multiply(clustered, B)
        np.testing.assert_allclose(C, clustered.spmm(B), rtol=1e-2, atol=1e-2)
        assert len(TuningCache(path)) == 1  # the search was persisted

    def test_tuning_cache_reused_across_engine_instances(
        self, clustered, B, tmp_path, monkeypatch
    ):
        path = tmp_path / "shared.json"
        with SpMMEngine(policy=ExecutionPolicy(tune=True), tuning_cache=path) as first:
            first.multiply(clustered, B)
        assert len(TuningCache(path)) == 1

        # a fresh engine (fresh plan cache) must reuse the persisted tuning
        # result instead of searching again
        def boom(*a, **k):
            raise AssertionError("second engine must not re-tune")

        monkeypatch.setattr(Tuner, "tune", boom)
        with SpMMEngine(policy=ExecutionPolicy(tune=True), tuning_cache=path) as second:
            C = second.multiply(clustered, B)
        np.testing.assert_allclose(C, clustered.spmm(B), rtol=1e-2, atol=1e-2)

    def test_repeat_queries_resolve_once(self, clustered, B, tmp_path):
        with SpMMEngine(
            policy=ExecutionPolicy(tune=True), tuning_cache=tmp_path / "t.json"
        ) as engine:
            outcome = engine.multiply_many(clustered, [B] * 4)
        assert outcome.summary.cache.misses == 1  # one tuned plan build
        assert outcome.summary.cache.hits == 3

    def test_engine_without_tune_has_no_tuner(self):
        with SpMMEngine() as engine:
            assert engine.tuner is None
