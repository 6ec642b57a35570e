"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.matrix == "cop20k_A"
        assert args.n == 8

    def test_band_arguments(self):
        args = build_parser().parse_args(["band", "--size", "1024", "--n", "16"])
        assert args.size == 1024
        assert args.n == 16

    def test_engine_defaults(self):
        args = build_parser().parse_args(["engine"])
        assert args.matrix == "cant"
        assert args.batch == 16
        assert args.workers == 4
        assert args.cache_size == 8
        assert args.tune is False

    def test_tune_defaults(self):
        args = build_parser().parse_args(["tune"])
        assert args.matrix == "cant"
        assert args.scale == 0.1
        assert args.budget == 8
        assert args.no_cache is False
        assert args.cache is None

    def test_shard_defaults(self):
        args = build_parser().parse_args(["shard"])
        assert args.matrix == "cant"
        assert args.grid == "4"
        assert args.mode == "nnz"
        assert args.workers == 4
        assert args.tune is False

    def test_shard_grid_argument(self):
        args = build_parser().parse_args(["shard", "--grid", "2x2", "--mode", "cost"])
        assert args.grid == "2x2"
        assert args.mode == "cost"

    def test_workload_defaults(self):
        args = build_parser().parse_args(["workload"])
        assert args.workload == "pagerank"
        assert args.matrix == "cant"
        assert args.iters == 30
        assert args.tol == 1e-6
        assert args.sharded is False
        assert args.tune is False

    def test_workload_arguments(self):
        args = build_parser().parse_args(
            ["workload", "--workload", "gcn", "--sharded", "--grid", "2x2", "--iters", "4"]
        )
        assert args.workload == "gcn"
        assert args.sharded is True
        assert args.grid == "2x2"
        assert args.iters == 4

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8942
        assert args.workers == 4
        assert args.cache_size == 32
        assert args.kernel == "smat"
        assert args.token == []
        assert args.max_inflight is None
        assert args.max_queue == 16
        assert args.max_body_mb == 64
        assert args.registry_capacity == 256
        assert args.quiet is False

    def test_serve_token_arguments_accumulate(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--token", "alice=sekret", "--token", "bob:4:9=hunter2"]
        )
        assert args.port == 0
        assert args.token == ["alice=sekret", "bob:4:9=hunter2"]


class TestArgumentValidation:
    """Bad arguments exit with argparse's code 2 and a clean message,
    not a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["engine", "--scale", "0"],
            ["engine", "--scale", "1.5"],
            ["engine", "--scale", "nope"],
            ["engine", "--batch", "0"],
            ["engine", "--workers", "0"],
            ["engine", "--workers", "-2"],
            ["engine", "--cache-size", "0"],
            ["engine", "--n", "0"],
            ["tune", "--scale", "2"],
            ["tune", "--budget", "0"],
            ["tune", "--repeats", "0"],  # removed flag: a usage error
            ["compare", "--scale", "-0.1"],
            ["compare", "--n", "0"],
            ["band", "--size", "0"],
            ["reorder", "--scale", "0"],
            ["shard", "--scale", "0"],
            ["shard", "--workers", "0"],
            ["shard", "--grid", "0x2"],
            ["shard", "--grid", "2x2x2"],
            ["shard", "--n", "0"],
            ["shard", "--mode", "banana"],
            ["workload", "--workload", "banana"],
            ["workload", "--damping", "1.5"],
            ["workload", "--damping", "0"],
            ["workload", "--damping", "nope"],
            ["workload", "--scale", "0"],
            ["workload", "--iters", "0"],
            ["workload", "--grid", "0x1"],
            ["workload", "--workers", "0"],
            # the --executor flag was removed: passing it is a usage error
            ["engine", "--executor", "process"],
            ["shard", "--executor", "process"],
            ["workload", "--executor", "thread"],
            ["serve", "--executor", "process"],
        ],
    )
    def test_bad_arguments_exit_code_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2


class TestSharedExecutionFlags:
    """The args -> ExecutionPolicy mapping comes from one shared module
    (repro.cli_args), wired through every subcommand."""

    def test_policy_from_args_maps_fields(self):
        from repro.cli_args import policy_from_args

        args = build_parser().parse_args(
            ["shard", "--workers", "3", "--grid", "2x2", "--mode", "cost"]
        )
        policy = policy_from_args(args)
        assert policy.executor is None
        assert policy.max_workers == 3
        assert policy.grid == "2x2"
        assert policy.shard_mode == "cost"

    def test_policy_from_args_overrides_win(self):
        from repro.cli_args import policy_from_args

        args = build_parser().parse_args(["engine", "--workers", "3"])
        policy = policy_from_args(args, max_workers=1)
        assert policy.max_workers == 1

    def test_absent_flags_keep_policy_defaults(self):
        from repro.cli_args import policy_from_args
        from repro.core.policy import ExecutionPolicy

        args = build_parser().parse_args(["compare"])
        assert policy_from_args(args) == ExecutionPolicy(tune=False)


class TestCommands:
    def test_matrices_listing(self, capsys):
        assert main(["matrices"]) == 0
        out = capsys.readouterr().out
        assert "cop20k_A" in out and "dc2" in out
        assert "Table I" in out

    def test_compare_command(self, capsys):
        code = main([
            "compare", "--matrix", "dc2", "--scale", "0.03", "--n", "4",
            "--libraries", "smat,cusparse",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "SMaT" in out and "cuSPARSE" in out
        assert "GFLOP/s" in out

    def test_reorder_command(self, capsys):
        code = main([
            "reorder", "--matrix", "cop20k_A", "--scale", "0.03",
            "--algorithms", "jaccard,graycode",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "jaccard" in out and "graycode" in out
        assert "reduction" in out

    def test_engine_command(self, capsys):
        code = main([
            "engine", "--matrix", "dc2", "--scale", "0.03", "--n", "4",
            "--batch", "4", "--workers", "2", "--cache-size", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "cold" in out and "warm" in out
        assert "cache_hits" in out
        assert "speedup" in out

    def test_band_command(self, capsys):
        code = main(["band", "--size", "512", "--n", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cuBLAS" in out and "SMaT" in out

    def test_tune_command_no_cache(self, capsys):
        code = main([
            "tune", "--matrix", "dc2", "--scale", "0.03", "--n", "4",
            "--budget", "3", "--reorderers", "identity,jaccard", "--no-cache",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "auto-tuning dc2" in out
        assert "winner:" in out
        assert "pruned" in out
        assert "persisted" not in out  # --no-cache skips persistence

    def test_tune_command_persists_cache(self, capsys, tmp_path):
        cache = tmp_path / "tune.json"
        code = main([
            "tune", "--matrix", "dc2", "--scale", "0.03", "--n", "4",
            "--budget", "3", "--reorderers", "identity,jaccard",
            "--cache", str(cache),
        ])
        assert code == 0
        assert "entries: 1" in capsys.readouterr().out
        assert cache.exists()

    def test_shard_command_prints_table_and_imbalance(self, capsys):
        code = main([
            "shard", "--matrix", "cant", "--scale", "0.1", "--grid", "2x2",
            "--workers", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "sharded SpMM on cant" in out
        assert "grid 2x2" in out
        # the per-shard table and its headline metric
        assert "config" in out and "16x8/" in out
        assert "nnz imbalance factor:" in out
        # acceptance criterion: nnz-balanced 2x2 on cant stays <= 1.25
        imbalance = float(out.split("nnz imbalance factor:", 1)[1].strip().split()[0])
        assert imbalance <= 1.25
        assert "single-plan" in out

    def test_shard_command_bad_grid_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["shard", "--matrix", "dc2", "--scale", "0.03", "--grid", "axb"])
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_shard_command_cost_mode(self, capsys):
        code = main([
            "shard", "--matrix", "dc2", "--scale", "0.03", "--grid", "2",
            "--mode", "cost", "--workers", "1", "--n", "4",
        ])
        assert code == 0
        assert "mode=cost" in capsys.readouterr().out

    def test_workload_pagerank_prints_convergence_and_amortization(self, capsys):
        code = main([
            "workload", "--matrix", "cant", "--scale", "0.1",
            "--workload", "pagerank", "--workers", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "pagerank on cant" in out
        assert "residual" in out and "spmm_ms" in out
        assert "converged:" in out
        # acceptance criterion: the plan-amortization ratio is > 1
        ratio = float(
            out.split("plan amortization ratio (cold/warm):", 1)[1].strip().split("x")[0]
        )
        assert ratio > 1.0

    def test_workload_gcn_sharded(self, capsys):
        code = main([
            "workload", "--matrix", "dc2", "--scale", "0.03", "--workload", "gcn",
            "--iters", "3", "--n", "4", "--sharded", "--grid", "2", "--workers", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "gcn on dc2" in out and "sharded" in out

    def test_workload_power_prints_eigenvalue(self, capsys):
        code = main([
            "workload", "--matrix", "dc2", "--scale", "0.03",
            "--workload", "power", "--iters", "5", "--workers", "1",
        ])
        assert code == 0
        assert "dominant eigenvalue estimate:" in capsys.readouterr().out

    def test_workload_smoothers_run_on_spd_surrogate(self, capsys):
        for name in ("jacobi", "chebyshev"):
            code = main([
                "workload", "--matrix", "dc2", "--scale", "0.03",
                "--workload", name, "--iters", "5", "--n", "2", "--workers", "1",
            ])
            assert code == 0
            assert f"{name} on dc2" in capsys.readouterr().out

    def test_engine_command_tuned(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TUNING_CACHE", str(tmp_path / "t.json"))
        code = main([
            "engine", "--matrix", "dc2", "--scale", "0.03", "--n", "4",
            "--batch", "2", "--workers", "1", "--tune",
        ])
        assert code == 0
        assert "speedup" in capsys.readouterr().out

    def test_kernels_listing(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "smat" in out and "cublas" in out
        assert "bcsr" in out and "dense" in out
        assert "cost_model" in out

    def test_compare_engine_flag_reports_warm_pass(self, capsys):
        code = main([
            "compare", "--matrix", "dc2", "--scale", "0.03", "--n", "4",
            "--libraries", "smat,cusparse", "--engine",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "cold_wall_ms" in out and "warm_wall_ms" in out
        assert "served from the plan cache" in out
        assert "backend" in out

    def test_compare_tune_flag_adds_auto_row(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TUNING_CACHE", str(tmp_path / "t.json"))
        code = main([
            "compare", "--matrix", "dc2", "--scale", "0.03", "--n", "4",
            "--libraries", "smat", "--tune",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "auto(" in out

    def test_tune_command_kernel_auto(self, capsys):
        code = main([
            "tune", "--matrix", "dc2", "--scale", "0.03", "--n", "4",
            "--budget", "3", "--reorderers", "identity,jaccard",
            "--kernel", "auto", "--no-cache",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "winner:" in out
        assert "cublas" in out or "cusparse" in out  # backend rows in the table

    def test_workload_kernel_flag(self, capsys):
        code = main([
            "workload", "--workload", "pagerank", "--matrix", "dc2",
            "--scale", "0.03", "--iters", "5", "--kernel", "cusparse",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "pagerank" in out and "amortization" in out

    def test_workload_bad_kernel_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["workload", "--kernel", "tensorrt"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestTraceCommand:
    def test_trace_parser_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.matrix == "cant"
        assert args.workload == "pagerank"
        assert args.out == "trace.json"
        assert args.sample_rate == 1.0

    def test_trace_flag_registered_on_engine_and_workload(self):
        args = build_parser().parse_args(["engine", "--trace", "t.json"])
        assert args.trace == "t.json"
        args = build_parser().parse_args(["workload", "--trace", "t.json"])
        assert args.trace == "t.json"

    def test_trace_command_writes_valid_chrome_trace(self, capsys, tmp_path):
        import json

        from repro.obs import validate_chrome_trace

        out = tmp_path / "trace.json"
        code = main([
            "trace", "--matrix", "cant", "--scale", "0.05",
            "--workload", "pagerank", "--iters", "3", "--out", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        # the ASCII span tree and the run's tables share stdout
        assert "repro.trace" in printed
        assert "engine.multiply" in printed
        assert "plan.lookup" in printed
        assert f"-> {out}" in printed
        doc = json.loads(out.read_text())
        n_events = validate_chrome_trace(doc)
        assert n_events >= 5

    def test_workload_trace_flag_writes_file(self, capsys, tmp_path):
        import json

        from repro.obs import validate_chrome_trace

        out = tmp_path / "wl.json"
        code = main([
            "workload", "--matrix", "cant", "--scale", "0.05",
            "--workload", "pagerank", "--iters", "3", "--trace", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        # --trace stays quiet (no span tree), just the summary line
        assert "repro.trace" not in printed.split("amortization")[1]
        assert validate_chrome_trace(json.loads(out.read_text())) >= 5

    def test_engine_trace_flag_writes_file(self, capsys, tmp_path):
        import json

        from repro.obs import validate_chrome_trace

        out = tmp_path / "engine.json"
        code = main([
            "engine", "--matrix", "cant", "--scale", "0.05", "--batch", "2",
            "--workers", "1", "--trace", str(out),
        ])
        assert code == 0
        assert "trace:" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) >= 2
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert "engine.execute" in names
