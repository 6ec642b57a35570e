"""The documentation suite and its executable-code-block checker.

``repro.analysis.doccheck`` is the machinery behind the CI docs job:
it extracts every fenced ```python block from README.md / docs/ and
executes it.  These tests cover the extraction and rescaling logic on
synthetic markdown, then keep the real documentation honest: every
block must at least compile here (full execution runs in the CI docs
job at ``--scale 0.05``), and the architecture guide -- whose blocks are
small -- is executed outright.
"""

from pathlib import Path

import pytest

from repro.analysis.doccheck import (
    check_file,
    extract_code_blocks,
    main,
    rescale_source,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = [
    REPO_ROOT / "README.md",
    REPO_ROOT / "docs" / "architecture.md",
    REPO_ROOT / "docs" / "serving.md",
    REPO_ROOT / "docs" / "observability.md",
    REPO_ROOT / "docs" / "tuning.md",
]


class TestExtraction:
    def test_extracts_python_blocks_with_line_numbers(self, tmp_path):
        md = tmp_path / "doc.md"
        md.write_text(
            "# title\n\n```python\nx = 1\n```\n\nprose\n\n```bash\nls\n```\n\n"
            "```python\ny = x + 1\n```\n"
        )
        blocks = extract_code_blocks(md)
        assert len(blocks) == 2  # the bash block is ignored
        assert blocks[0].source == "x = 1\n"
        assert blocks[0].lineno == 4
        assert blocks[1].source == "y = x + 1\n"

    def test_unterminated_fence_raises(self, tmp_path):
        md = tmp_path / "bad.md"
        md.write_text("```python\nx = 1\n")
        with pytest.raises(ValueError, match="unterminated"):
            extract_code_blocks(md)

    def test_skip_marker(self, tmp_path):
        md = tmp_path / "doc.md"
        md.write_text("```python\n# doccheck: skip\nraise RuntimeError\n```\n")
        (block,) = extract_code_blocks(md)
        assert block.skipped
        assert check_file(md, verbose=False) == 0  # skipped, so no failure

    def test_rescale_rewrites_loader_scale_kwargs_only(self):
        src = (
            'suitesparse.load("cant", scale=0.1)\n'
            "load(name, scale = 0.25)\n"
            "rng.normal(scale=0.3, size=(4, 4))\n"
            "upscale=3\n"
        )
        out = rescale_source(src, 0.05)
        assert 'suitesparse.load("cant", scale=0.05)' in out
        assert "load(name, scale = 0.05)" in out
        # non-loader scale kwargs stay exactly as the docs show them
        assert "rng.normal(scale=0.3, size=(4, 4))" in out
        assert "upscale=3" in out
        assert rescale_source(src, None) == src


class TestExecution:
    def test_blocks_share_a_namespace(self, tmp_path):
        md = tmp_path / "doc.md"
        md.write_text("```python\nx = 2\n```\n\n```python\nassert x == 2\n```\n")
        assert check_file(md, verbose=False) == 0

    def test_failures_are_counted_and_reported(self, tmp_path, capsys):
        md = tmp_path / "doc.md"
        md.write_text("```python\nraise ValueError('boom')\n```\n\n```python\nok = 1\n```\n")
        assert check_file(md, verbose=False) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_main_exit_codes(self, tmp_path):
        good = tmp_path / "good.md"
        good.write_text("```python\npass\n```\n")
        bad = tmp_path / "bad.md"
        bad.write_text("```python\n1 / 0\n```\n")
        assert main([str(good), "-q"]) == 0
        assert main([str(bad), "-q"]) == 1
        assert main([str(tmp_path / "missing.md")]) == 1

    def test_main_applies_scale_override(self, tmp_path):
        md = tmp_path / "doc.md"
        md.write_text(
            "```python\n"
            "def load(name, scale):\n"
            "    return scale\n"
            "assert load('cant', scale=0.9) == 0.05\n"
            "```\n"
        )
        assert main([str(md), "--scale", "0.05", "-q"]) == 0


class TestRealDocumentation:
    """README.md and the docs/ guides exist and cannot rot silently."""

    def test_doc_files_exist_with_python_blocks(self):
        for path in DOC_FILES:
            assert path.exists(), f"{path} is part of the documentation suite"
            assert len(extract_code_blocks(path)) >= 3

    @pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
    def test_all_blocks_compile(self, path):
        for block in extract_code_blocks(path):
            compile(rescale_source(block.source, 0.05), f"{path}:{block.lineno}", "exec")

    def test_architecture_guide_executes(self):
        # small blocks (cant at scale 0.05); the full README runs in CI
        assert check_file(DOC_FILES[1], scale=0.05, verbose=False) == 0

    def test_readme_covers_every_subsystem(self):
        text = DOC_FILES[0].read_text()
        for needle in (
            "pip install -e",
            "SpMMEngine",
            "ShardedSpMM",
            "repro.workloads",
            "repro workload",
            "SpMMServer",
            "repro serve",
            "BENCH_baseline.json",
            "docs/architecture.md",
            "docs/serving.md",
        ):
            assert needle in text, f"README lost its {needle!r} section"

    def test_serving_manual_covers_operations(self):
        text = DOC_FILES[2].read_text()
        for needle in (
            "POST /matrices",
            "POST /multiply",
            "GET /jobs/{id}",
            "POST /stream",
            "GET /metrics",
            "Retry-After",
            "max_body_bytes",
            "repro serve",
            "application/x-npy",
        ):
            assert needle in text, f"serving manual lost its {needle!r} coverage"
