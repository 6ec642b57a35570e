"""Tests for the public SMaT pipeline (core.smat / core.config)."""

import numpy as np
import pytest

from repro import SMaT, SMaTConfig
from repro.gpu import V100_SXM2_16GB
from repro.matrices import band_matrix, hidden_cluster_matrix


@pytest.fixture
def clustered(rng):
    return hidden_cluster_matrix(
        384, 384, cluster_size=16, segments_per_cluster=6, segment_width=8,
        row_fill=0.85, shuffle=True, rng=rng,
    )


@pytest.fixture
def B(clustered, rng):
    return rng.normal(size=(clustered.ncols, 8)).astype(np.float32)


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = SMaTConfig()
        assert cfg.precision == "fp16"
        assert cfg.reorder == "jaccard"
        assert cfg.variant == "CBT"
        assert cfg.resolved_block_shape() == (16, 8)
        assert cfg.arch.name.startswith("A100")

    def test_custom_block_shape(self):
        cfg = SMaTConfig(block_shape=(8, 8))
        assert cfg.resolved_block_shape() == (8, 8)

    def test_invalid_block_shape(self):
        with pytest.raises(ValueError):
            SMaTConfig(block_shape=(0, 8)).validate()

    def test_invalid_precision(self):
        with pytest.raises(ValueError):
            SMaTConfig(precision="fp8").validate()

    def test_invalid_reorder_name(self):
        with pytest.raises(ValueError):
            SMaTConfig(reorder="").validate()


class TestPipeline:
    def test_requires_csr_input(self, clustered):
        with pytest.raises(TypeError):
            SMaT(clustered.to_dense())

    def test_correct_result_in_original_order(self, clustered, B):
        smat = SMaT(clustered, SMaTConfig())
        C = smat.multiply(B)
        np.testing.assert_allclose(C, clustered.spmm(B), rtol=1e-3, atol=1e-3)

    def test_correct_with_column_permutation(self, clustered, B):
        smat = SMaT(clustered, SMaTConfig(reorder_columns=True))
        C = smat.multiply(B)
        np.testing.assert_allclose(C, clustered.spmm(B), rtol=1e-3, atol=1e-3)

    def test_correct_without_reordering(self, clustered, B):
        smat = SMaT(clustered, SMaTConfig(reorder="none"))
        C = smat.multiply(B)
        np.testing.assert_allclose(C, clustered.spmm(B), rtol=1e-3, atol=1e-3)

    def test_vector_input(self, clustered, rng):
        smat = SMaT(clustered)
        x = rng.normal(size=clustered.ncols).astype(np.float32)
        y = smat.multiply(x)
        assert y.shape == (clustered.nrows,)
        np.testing.assert_allclose(y, clustered.spmv(x), rtol=1e-3, atol=1e-3)

    def test_unpermute_restores_original_row_order(self, clustered, B):
        """A non-trivial row permutation only prices the device: ``C`` is
        ``A``'s own product, row for row in the original order."""
        smat = SMaT(clustered)
        perm = smat.row_permutation
        assert not np.array_equal(perm, np.arange(clustered.nrows))
        np.testing.assert_array_equal(smat.multiply(B), clustered.spmm(B))

    def test_report_contents(self, clustered, B):
        smat = SMaT(clustered)
        _, report = smat.multiply(B, return_report=True)
        assert report.gflops > 0
        assert report.simulated_ms > 0
        assert report.n_blocks > 0
        assert report.useful_flops == pytest.approx(2.0 * clustered.nnz * 8)
        assert report.preprocessing is not None

    def test_multiple_multiplications_reuse_preprocessing(self, clustered, B, rng):
        smat = SMaT(clustered)
        first = smat.preprocess_report
        smat.multiply(B)
        B2 = rng.normal(size=(clustered.ncols, 8)).astype(np.float32)
        smat.multiply(B2)
        assert smat.preprocess_report is first  # same object: done once

    def test_lazy_preprocessing(self, clustered, B):
        smat = SMaT(clustered, preprocess=False)
        assert smat._preprocess_report is None
        smat.multiply(B)
        assert smat._preprocess_report is not None


class TestPreprocessing:
    def test_reordering_reduces_blocks_on_clustered_matrix(self, clustered):
        smat = SMaT(clustered, SMaTConfig(reorder="jaccard"))
        report = smat.preprocess_report
        assert report.applied
        assert report.block_reduction > 1.2
        assert report.blocks_after < report.blocks_before

    def test_band_matrix_skips_reordering(self):
        """Section IV-C: band matrices are already optimally ordered; the
        pipeline must fall back to the identity permutation."""
        A = band_matrix(512, 32, rng=np.random.default_rng(0))
        smat = SMaT(A, SMaTConfig(reorder="jaccard", auto_skip_reordering=True))
        report = smat.preprocess_report
        assert not report.applied
        np.testing.assert_array_equal(smat.row_permutation, np.arange(A.nrows))

    def test_auto_skip_can_be_disabled(self):
        A = band_matrix(256, 16, rng=np.random.default_rng(0))
        smat = SMaT(A, SMaTConfig(reorder="jaccard", auto_skip_reordering=False))
        assert smat.preprocess_report.applied

    def test_bcsr_accessor(self, clustered):
        smat = SMaT(clustered)
        bcsr = smat.bcsr
        assert bcsr.n_blocks == smat.preprocess_report.blocks_after

    @pytest.mark.parametrize(
        "algorithm", ["jaccard", "rcm", "saad", "graycode", "hypergraph", "identity"]
    )
    def test_all_reorderers_produce_correct_results(self, clustered, B, algorithm):
        smat = SMaT(clustered, SMaTConfig(reorder=algorithm))
        C = smat.multiply(B)
        np.testing.assert_allclose(C, clustered.spmm(B), rtol=1e-3, atol=1e-3)

    def test_reorder_params_forwarded(self, clustered):
        strict = SMaT(clustered, SMaTConfig(reorder="jaccard", reorder_params={"threshold": 0.0}))
        loose = SMaT(clustered, SMaTConfig(reorder="jaccard", reorder_params={"threshold": 0.9}))
        assert strict.preprocess_report.blocks_after >= loose.preprocess_report.blocks_after * 0.8


class TestAlternativeConfigurations:
    def test_other_architecture(self, clustered, B):
        smat = SMaT(clustered, SMaTConfig(arch=V100_SXM2_16GB))
        C, report = smat.multiply(B, return_report=True)
        np.testing.assert_allclose(C, clustered.spmm(B), rtol=1e-3, atol=1e-3)
        assert report.gflops > 0

    def test_other_precision_block_shape(self, clustered, B):
        smat = SMaT(clustered, SMaTConfig(precision="fp64"))
        assert smat.preprocess_report.block_shape == (8, 8)
        C = smat.multiply(B)
        np.testing.assert_allclose(C, clustered.spmm(B), rtol=1e-3, atol=1e-3)

    def test_variant_selection(self, clustered, B):
        slow = SMaT(clustered, SMaTConfig(variant="naive"))
        fast = SMaT(clustered, SMaTConfig(variant="CBT"))
        _, slow_rep = slow.multiply(B, return_report=True)
        _, fast_rep = fast.multiply(B, return_report=True)
        assert fast_rep.simulated_ms <= slow_rep.simulated_ms
