"""Command-line interface.

``python -m repro`` gives quick access to the library without writing a
script:

* ``python -m repro compare --matrix cop20k_A --scale 0.1 --n 8``
  runs one Table-I stand-in through SMaT and the baselines and prints the
  comparison table (a single row of Figure 8);
* ``python -m repro band --size 4096 --n 8`` runs the band-matrix sweep of
  Figure 9 at a configurable size;
* ``python -m repro reorder --matrix mip1 --scale 0.1`` reports the
  block-count reduction of every reordering algorithm (the Section IV-C
  ablation);
* ``python -m repro engine --matrix cant --scale 0.1 --batch 16`` pushes a
  batch of operands through the plan-caching :class:`~repro.engine.SpMMEngine`
  twice (cold then warm) and reports the cache-hit speedup and batched
  throughput;
* ``python -m repro tune --matrix cant --scale 0.1`` runs the per-matrix
  auto-tuner (block shape x reordering search) and prints the search
  table: every candidate with its predicted and simulated device time,
  and the winner;
* ``python -m repro shard --matrix cant --scale 0.1 --grid 2x2`` splits
  the matrix into a balanced shard grid, prepares one plan per shard, and
  prints the per-shard breakdown (nnz, imbalance, chosen config, time)
  plus the sharded-vs-single-plan comparison;
* ``python -m repro workload --matrix cant --scale 0.1 --workload pagerank``
  runs an iterative SpMM application (PageRank, power iteration, GCN
  forward pass, Jacobi / Chebyshev smoother) on the engine and prints the
  convergence table plus the plan-amortisation ratio;
* ``python -m repro serve --port 8942`` starts the SpMM-as-a-service HTTP
  daemon (register matrices by fingerprint, then multiply over JSON; see
  ``docs/serving.md`` for the operations manual);
* ``python -m repro trace --matrix cant --workload pagerank --out trace.json``
  runs a workload with tracing on, prints the ASCII span tree, and writes
  a Chrome trace-event JSON (see ``docs/observability.md``);
* ``python -m repro matrices`` lists the available Table-I stand-ins;
* ``python -m repro kernels`` lists the execution backends (name, internal
  format, cost-model summary) selectable via ``kernel=`` / ``--kernel``.
"""

from __future__ import annotations

import argparse
import time
from typing import List, Optional

import numpy as np

from .analysis import format_table
from .cli_args import (
    KERNEL_CHOICES,
    add_batch_arg,
    add_grid_arg,
    add_shard_mode_arg,
    add_trace_arg,
    add_workers_arg,
    damping_type as _damping_type,
    policy_from_args,
    positive_int as _positive_int,
    scale_type as _scale_type,
)
from .core import ExecutionPolicy, SMaTConfig, compare_libraries
from .engine import SpMMEngine
from .matrices import band_matrix, band_sparsity, suitesparse
from .reorder import get_reorderer

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro`` argument parser with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SMaT reproduction: simulated Tensor-Core SpMM experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compare = sub.add_parser("compare", help="compare libraries on one matrix")
    p_compare.add_argument("--matrix", default="cop20k_A", help="Table-I matrix name")
    p_compare.add_argument("--scale", type=_scale_type, default=0.1, help="stand-in scale (0..1]")
    p_compare.add_argument(
        "--n", type=_positive_int, default=8, help="columns of the dense matrix B"
    )
    p_compare.add_argument(
        "--libraries",
        default="smat,dasp,magicube,cusparse",
        help="comma-separated library list ('auto' adds the tuned-backend row)",
    )
    p_compare.add_argument("--reorder", default="jaccard", help="SMaT preprocessing algorithm")
    p_compare.add_argument(
        "--engine",
        action="store_true",
        help="route every library through a shared plan-caching SpMMEngine and "
        "report the cold vs warm (cached-plan) wall-clock per library",
    )
    p_compare.add_argument(
        "--tune",
        action="store_true",
        help="tune plans through the auto-tuner and add the 'auto' backend row "
        "(implies --engine)",
    )

    p_band = sub.add_parser("band", help="band-matrix sweep against cuBLAS (Figure 9)")
    p_band.add_argument("--size", type=_positive_int, default=4096, help="matrix dimension")
    p_band.add_argument("--n", type=_positive_int, default=8, help="columns of B")

    p_reorder = sub.add_parser("reorder", help="reordering-algorithm ablation")
    p_reorder.add_argument("--matrix", default="mip1")
    p_reorder.add_argument("--scale", type=_scale_type, default=0.1)
    p_reorder.add_argument(
        "--algorithms", default="jaccard,saad,rcm,graycode,hypergraph"
    )

    p_engine = sub.add_parser(
        "engine", help="batched SpMM through the plan-caching execution engine"
    )
    p_engine.add_argument("--matrix", default="cant", help="Table-I matrix name")
    p_engine.add_argument("--scale", type=_scale_type, default=0.1, help="stand-in scale (0..1]")
    p_engine.add_argument(
        "--n", type=_positive_int, default=8, help="columns of each dense operand B"
    )
    add_batch_arg(p_engine)
    add_workers_arg(p_engine)
    p_engine.add_argument(
        "--cache-size", type=_positive_int, default=8, help="plan-cache capacity"
    )
    p_engine.add_argument("--reorder", default="jaccard", help="preprocessing algorithm")
    p_engine.add_argument(
        "--tune",
        action="store_true",
        help="build tuned plans through the auto-tuner (persistent tuning cache)",
    )
    add_trace_arg(p_engine)

    p_tune = sub.add_parser(
        "tune", help="auto-tune block shape x reordering for one matrix"
    )
    p_tune.add_argument("--matrix", default="cant", help="Table-I matrix name")
    p_tune.add_argument("--scale", type=_scale_type, default=0.1, help="stand-in scale (0..1]")
    p_tune.add_argument(
        "--n", type=_positive_int, default=8, help="operand width N the search optimises for"
    )
    p_tune.add_argument(
        "--budget",
        type=_positive_int,
        default=8,
        help="measurement budget (candidates built and priced on the simulated device)",
    )
    p_tune.add_argument(
        "--reorderers",
        default=None,
        help="comma-separated algorithm list (default: the Section IV-C ablation set)",
    )
    p_tune.add_argument(
        "--kernel",
        choices=KERNEL_CHOICES,
        default="smat",
        help="backend to tune for: a library name, or 'auto' to grow the search "
        "space with a backend axis (the per-matrix library winner)",
    )
    p_tune.add_argument(
        "--cache",
        default=None,
        metavar="PATH",
        help="tuning-cache file (default: $REPRO_TUNING_CACHE or the user cache dir)",
    )
    p_tune.add_argument(
        "--no-cache",
        action="store_true",
        help="search fresh and do not persist the result",
    )

    p_shard = sub.add_parser(
        "shard", help="sharded SpMM: balanced partition with per-shard plans"
    )
    p_shard.add_argument("--matrix", default="cant", help="Table-I matrix name")
    p_shard.add_argument("--scale", type=_scale_type, default=0.1, help="stand-in scale (0..1]")
    add_grid_arg(p_shard)
    add_shard_mode_arg(p_shard)
    p_shard.add_argument(
        "--n", type=_positive_int, default=8, help="columns of the dense operand B"
    )
    add_workers_arg(p_shard)
    p_shard.add_argument(
        "--tune",
        action="store_true",
        help="tune every shard individually (block shape x reordering per shard)",
    )

    p_work = sub.add_parser(
        "workload", help="iterative SpMM application on the serving engine"
    )
    p_work.add_argument(
        "--workload",
        choices=("pagerank", "power", "gcn", "jacobi", "chebyshev"),
        default="pagerank",
        help="which iterative algorithm to run",
    )
    p_work.add_argument("--matrix", default="cant", help="Table-I matrix name")
    p_work.add_argument("--scale", type=_scale_type, default=0.1, help="stand-in scale (0..1]")
    p_work.add_argument(
        "--iters", type=_positive_int, default=30, help="maximum iterations (or GCN layers)"
    )
    p_work.add_argument(
        "--tol", type=float, default=1e-6, help="convergence tolerance (early exit)"
    )
    p_work.add_argument(
        "--damping", type=_damping_type, default=0.85, help="PageRank damping factor in (0, 1)"
    )
    p_work.add_argument(
        "--n", type=_positive_int, default=16, help="GCN feature width / smoother RHS count"
    )
    add_workers_arg(p_work)
    p_work.add_argument(
        "--kernel",
        choices=KERNEL_CHOICES,
        default="smat",
        help="execution backend for every SpMM ('auto' = per-matrix tuner choice)",
    )
    p_work.add_argument(
        "--tune",
        action="store_true",
        help="build the workload's plan(s) through the auto-tuner",
    )
    p_work.add_argument(
        "--sharded",
        action="store_true",
        help="run every SpMM through the sharded subsystem",
    )
    add_grid_arg(
        p_work, help="shard grid when --sharded: row panels 'R' or 2D grid 'RxC'"
    )
    add_shard_mode_arg(p_work, help="shard balancing mode when --sharded")
    add_trace_arg(p_work)

    p_trace = sub.add_parser(
        "trace",
        help="run a workload with tracing on; print the span tree and "
        "export a Chrome trace",
    )
    p_trace.add_argument("--matrix", default="cant", help="Table-I matrix name")
    p_trace.add_argument("--scale", type=_scale_type, default=0.1, help="stand-in scale (0..1]")
    p_trace.add_argument(
        "--workload",
        choices=("pagerank", "power", "gcn", "jacobi", "chebyshev"),
        default="pagerank",
        help="which iterative algorithm to trace",
    )
    p_trace.add_argument(
        "--iters", type=_positive_int, default=10, help="maximum iterations (or GCN layers)"
    )
    p_trace.add_argument(
        "--tol", type=float, default=1e-6, help="convergence tolerance (early exit)"
    )
    p_trace.add_argument(
        "--damping", type=_damping_type, default=0.85, help="PageRank damping factor in (0, 1)"
    )
    p_trace.add_argument(
        "--n", type=_positive_int, default=16, help="GCN feature width / smoother RHS count"
    )
    add_workers_arg(p_trace)
    p_trace.add_argument(
        "--kernel",
        choices=KERNEL_CHOICES,
        default="smat",
        help="execution backend for every SpMM ('auto' = per-matrix tuner choice)",
    )
    p_trace.add_argument(
        "--tune",
        action="store_true",
        help="build the workload's plan(s) through the auto-tuner",
    )
    p_trace.add_argument(
        "--sharded",
        action="store_true",
        help="run every SpMM through the sharded subsystem",
    )
    add_grid_arg(
        p_trace, help="shard grid when --sharded: row panels 'R' or 2D grid 'RxC'"
    )
    add_shard_mode_arg(p_trace, help="shard balancing mode when --sharded")
    p_trace.add_argument(
        "--sample-rate",
        type=float,
        default=1.0,
        help="root-span sampling rate in (0, 1] (1.0 records every trace)",
    )
    p_trace.add_argument(
        "--out",
        default="trace.json",
        metavar="FILE",
        help="Chrome trace-event JSON output path",
    )

    p_serve = sub.add_parser(
        "serve", help="run the SpMM-as-a-service HTTP daemon"
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument(
        "--port", type=int, default=8942, help="bind port (0 picks an ephemeral port)"
    )
    add_workers_arg(p_serve)
    p_serve.add_argument(
        "--cache-size", type=_positive_int, default=32, help="plan-cache capacity"
    )
    p_serve.add_argument(
        "--kernel",
        choices=KERNEL_CHOICES,
        default="smat",
        help="default execution backend (requests may override per call)",
    )
    p_serve.add_argument("--reorder", default="jaccard", help="default preprocessing algorithm")
    p_serve.add_argument(
        "--tune",
        action="store_true",
        help="build every plan through the auto-tuner",
    )
    p_serve.add_argument(
        "--token",
        action="append",
        default=[],
        metavar="NAME=TOKEN",
        help="tenant token 'name=token' or 'name:max_matrices:max_plans=token'; "
        "repeatable; no tokens = open (anonymous) mode",
    )
    p_serve.add_argument(
        "--max-inflight",
        type=_positive_int,
        default=None,
        help="concurrent executions admitted (default: worker count)",
    )
    p_serve.add_argument(
        "--max-queue",
        type=int,
        default=16,
        help="requests allowed to wait for an execution slot before 429",
    )
    p_serve.add_argument(
        "--max-body-mb",
        type=_positive_int,
        default=64,
        help="request-body size limit in MiB (larger uploads get 413)",
    )
    p_serve.add_argument(
        "--registry-capacity",
        type=_positive_int,
        default=256,
        help="global cap on distinct registered matrices",
    )
    p_serve.add_argument(
        "--quiet", action="store_true", help="suppress the JSON request log on stderr"
    )

    sub.add_parser("matrices", help="list the Table-I stand-ins")
    sub.add_parser(
        "kernels", help="list the execution backends (name, format, cost model)"
    )
    return parser


def _cmd_compare(args) -> int:
    A = suitesparse.load(args.matrix, scale=args.scale)
    rng = np.random.default_rng(0)
    B = rng.normal(size=(A.ncols, args.n)).astype(np.float32)
    libraries = [x.strip() for x in args.libraries.split(",") if x.strip()]
    config = SMaTConfig(reorder=args.reorder)
    use_engine = args.engine or args.tune
    if args.tune and "auto" not in [x.lower() for x in libraries]:
        libraries.append("auto")

    if not use_engine:
        results = compare_libraries(A, B, libraries=libraries, config=config)
        warm = None
    else:
        with SpMMEngine(
            config,
            policy=ExecutionPolicy(max_workers=1, tune=args.tune),
            cache_size=2 * len(libraries) + 2,
        ) as engine:
            results = compare_libraries(A, B, libraries=libraries, config=config, engine=engine)
            # second pass: every library's plan now comes from the cache
            warm = compare_libraries(
                A, B, libraries=libraries, config=config, engine=engine,
                check_correctness=False,
            )

    rows = []
    for i, r in enumerate(results):
        row = {
            "library": r.library,
            "backend": r.meta.get("backend", "-"),
            "GFLOP/s": r.gflops,
            "time_ms": r.time_ms,
            "supported": r.supported,
            "correct": r.correct,
        }
        if warm is not None:
            row["cold_wall_ms"] = r.meta.get("wall_ms", float("nan"))
            row["warm_wall_ms"] = warm[i].meta.get("wall_ms", float("nan"))
        rows.append(row)
    print(format_table(
        rows,
        title=f"{args.matrix} stand-in (scale={args.scale}), N={args.n}, simulated A100"
        + (", engine-cached" if use_engine else ""),
    ))
    if warm is not None:
        hits = sum(1 for r in warm if r.meta.get("cache_hit"))
        print(
            f"warm pass: {hits}/{len(warm)} libraries served from the plan cache "
            "(cold pays each backend's preprocessing once)"
        )
    return 0


def _cmd_band(args) -> int:
    rng = np.random.default_rng(0)
    B = rng.normal(size=(args.size, args.n)).astype(np.float32)
    rows = []
    for bw in (64, 256, 1024, args.size // 4, args.size - 1):
        bw = min(max(1, bw), args.size - 1)
        A = band_matrix(args.size, bw, rng=rng)
        res = compare_libraries(
            A, B, libraries=("smat", "cublas", "cusparse", "dasp"), check_correctness=False
        )
        rows.append(
            {
                "bandwidth": bw,
                "sparsity_%": 100 * band_sparsity(args.size, bw),
                **{r.library: r.gflops for r in res},
            }
        )
    print(format_table(rows, title=f"band sweep {args.size}x{args.size}, N={args.n}"))
    return 0


def _cmd_reorder(args) -> int:
    A = suitesparse.load(args.matrix, scale=args.scale)
    rows = []
    for algo in (x.strip() for x in args.algorithms.split(",") if x.strip()):
        result = get_reorderer(algo, block_shape=(16, 8)).reorder(A)
        rows.append(
            {
                "algorithm": algo,
                "blocks_before": result.stats_before.n_blocks,
                "blocks_after": result.stats_after.n_blocks,
                "reduction": result.block_reduction,
                "std_after": result.stats_after.std_blocks_per_row,
            }
        )
    print(format_table(rows, title=f"reordering ablation on {args.matrix} (scale={args.scale})"))
    return 0


def _cmd_engine(args) -> int:
    A = suitesparse.load(args.matrix, scale=args.scale)
    rng = np.random.default_rng(0)
    Bs = [
        rng.normal(size=(A.ncols, args.n)).astype(np.float32) for _ in range(max(1, args.batch))
    ]
    rows = []
    with SpMMEngine(
        SMaTConfig(reorder=args.reorder),
        policy=policy_from_args(args),
        cache_size=args.cache_size,
    ) as engine:
        for label in ("cold", "warm"):
            before = engine.cache_stats
            outcome = engine.multiply_many(A, Bs)
            after = outcome.summary.cache
            rows.append(
                {
                    "pass": label,
                    "items": outcome.summary.n_items,
                    "wall_ms": outcome.summary.wall_ms,
                    "items/s": outcome.summary.items_per_second,
                    "sim_GFLOP/s": outcome.summary.simulated_gflops,
                    "cache_hits": after.hits - before.hits,
                    "cache_misses": after.misses - before.misses,
                }
            )
        # single-item latency: cold preprocessing vs cached plan
        engine.clear_cache()
        start = time.perf_counter()
        engine.multiply(A, Bs[0])
        cold_ms = 1e3 * (time.perf_counter() - start)
        start = time.perf_counter()
        engine.multiply(A, Bs[0])
        warm_ms = 1e3 * (time.perf_counter() - start)
    print(format_table(
        rows,
        title=(
            f"engine batching on {args.matrix} (scale={args.scale}), N={args.n}, "
            f"batch={args.batch}, workers={args.workers}"
        ),
    ))
    speedup = cold_ms / warm_ms if warm_ms > 0 else float("inf")
    print(
        f"single-query latency: cold (preprocess + execute) {cold_ms:.2f} ms, "
        f"cached plan {warm_ms:.2f} ms -> {speedup:.1f}x speedup"
    )
    if args.trace:
        _write_trace(engine.tracer, args.trace)
    return 0


def _cmd_tune(args) -> int:
    from .tuner import Tuner

    A = suitesparse.load(args.matrix, scale=args.scale)
    reorderers = (
        [x.strip() for x in args.reorderers.split(",") if x.strip()]
        if args.reorderers
        else None
    )
    tuner_kwargs = dict(n_cols=args.n, max_measure=args.budget)
    if reorderers:
        tuner_kwargs["reorderers"] = reorderers
    tuner = Tuner(cache=False if args.no_cache else args.cache, **tuner_kwargs)

    config = SMaTConfig(kernel=args.kernel)
    result = tuner.tune(A, config, store=True)
    print(format_table(
        result.table(),
        title=(
            f"auto-tuning {args.matrix} (scale={args.scale}), N={args.n}: "
            f"{len(result.outcomes)} candidates, {result.n_measured} measured, "
            f"{result.n_pruned} pruned by the analytical model"
        ),
    ))
    best = result.best
    default = result.default
    print(
        f"winner: {best.candidate.label} "
        f"(simulated {best.simulated_ms:.4f} ms vs default "
        f"{default.candidate.label} {default.simulated_ms:.4f} ms -> "
        f"{result.tuned_vs_default:.2f}x); search took {result.search_ms:.0f} ms"
    )
    if tuner.cache is not None:
        print(f"result persisted to {tuner.cache.path} (entries: {len(tuner.cache)})")
    return 0


def _cmd_shard(args) -> int:
    from .shard import ShardedSpMM

    A = suitesparse.load(args.matrix, scale=args.scale)
    rng = np.random.default_rng(0)
    B = rng.normal(size=(A.ncols, args.n)).astype(np.float32)

    with SpMMEngine(
        SMaTConfig(), policy=policy_from_args(args), cache_size=64
    ) as engine:
        # single-plan reference (warm: preprocessing paid, plan cached)
        engine.multiply(A, B)
        start = time.perf_counter()
        _, single_report = engine.multiply(A, B, return_report=True)
        single_wall_ms = 1e3 * (time.perf_counter() - start)

        with ShardedSpMM(A, args.grid, mode=args.mode, engine=engine) as sharded:
            sharded.multiply(B)  # warm every shard plan
            start = time.perf_counter()
            _, report = sharded.multiply(B, return_report=True)
            sharded_wall_ms = 1e3 * (time.perf_counter() - start)

    print(format_table(
        report.table(),
        title=(
            f"sharded SpMM on {args.matrix} (scale={args.scale}): "
            f"grid {report.grid[0]}x{report.grid[1]}, mode={report.mode}, N={args.n}"
            + (", per-shard tuned" if args.tune else "")
        ),
    ))
    print(
        f"nnz imbalance factor: {report.imbalance:.3f} "
        f"(max shard / ideal shard, mode={report.mode})"
    )
    print(
        f"simulated device time: sharded {report.simulated_ms:.4f} ms serial / "
        f"{report.critical_path_ms:.4f} ms critical path vs single-plan "
        f"{single_report.simulated_ms:.4f} ms"
    )
    print(
        f"warm wall-clock: sharded {sharded_wall_ms:.2f} ms vs single-plan "
        f"{single_wall_ms:.2f} ms"
    )
    return 0


def _sample_rows(rows: List[dict], limit: int = 12) -> List[dict]:
    """At most ``limit`` evenly spaced rows (first and last always kept),
    so long convergence tables stay readable."""
    if len(rows) <= limit:
        return rows
    idx = np.unique(np.linspace(0, len(rows) - 1, limit).round().astype(int))
    return [rows[i] for i in idx]


def _spd_system(A):
    """A symmetric diagonally dominant system built from a stand-in.

    The Table-I stand-ins are generic sparse matrices; smoothers need an
    SPD-like, zero-free-diagonal operator, so the CLI runs them on
    ``|A| + |A|^T + c I`` (the standard graph-Laplacian-style surrogate
    with the same sparsity structure).
    """
    from .formats import COOMatrix, degree_vector

    coo = A.to_coo()
    rows = np.concatenate([coo.row, coo.col])
    cols = np.concatenate([coo.col, coo.row])
    vals = np.abs(np.concatenate([coo.val, coo.val]))
    sym = COOMatrix(rows, cols, vals, (A.nrows, A.ncols)).to_csr()
    shift = float(degree_vector(sym).max())
    eye = np.arange(A.nrows, dtype=np.int64)
    scoo = sym.to_coo()
    return COOMatrix(
        np.concatenate([scoo.row, eye]),
        np.concatenate([scoo.col, eye]),
        np.concatenate([scoo.val, np.full(A.nrows, shift, dtype=scoo.val.dtype)]),
        (A.nrows, A.ncols),
    ).to_csr()


def _write_trace(tracer, path: str, *, tree: bool = False) -> None:
    """Export a tracer's spans as Chrome trace-event JSON (optionally
    printing the ASCII span tree first)."""
    from .obs import span_tree, write_chrome_trace

    spans = tracer.snapshot()
    if tree:
        print(span_tree(spans))
    write_chrome_trace(spans, path)
    dropped = f" ({tracer.dropped} dropped)" if tracer.dropped else ""
    print(
        f"trace: {len(spans)} spans{dropped} -> {path} "
        "(open with Perfetto or chrome://tracing)"
    )


def _run_workload(A, args, passthrough) -> "object":
    """Dispatch one ``repro workload`` / ``repro trace`` run; returns the
    :class:`~repro.workloads.base.WorkloadReport`."""
    from . import workloads

    rng = np.random.default_rng(0)
    if args.workload == "pagerank":
        result = workloads.pagerank(
            A, damping=args.damping, tol=args.tol, max_iter=args.iters, **passthrough
        )
        report = result.report
    elif args.workload == "power":
        result = workloads.power_iteration(A, tol=args.tol, max_iter=args.iters, **passthrough)
        report = result.report
        print(f"dominant eigenvalue estimate: {result.eigenvalue:.6g}")
    elif args.workload == "gcn":
        H = rng.normal(size=(A.nrows, args.n)).astype(np.float32)
        weights = [
            rng.normal(scale=0.3, size=(args.n, args.n)).astype(np.float32)
            for _ in range(args.iters)
        ]
        result = workloads.gcn_forward(A, H, weights, **passthrough)
        report = result.report
    else:  # jacobi / chebyshev
        S = _spd_system(A)
        b = rng.normal(size=(A.nrows, args.n)).astype(np.float32)
        smoother = (
            workloads.jacobi_smoother
            if args.workload == "jacobi"
            else workloads.chebyshev_smoother
        )
        result = smoother(S, b, tol=args.tol, max_iter=args.iters, **passthrough)
        report = result.report
    return report


def _cmd_workload(args) -> int:
    A = suitesparse.load(args.matrix, scale=args.scale)
    trace_path = getattr(args, "trace", None)
    engine = None
    if trace_path:
        # tracing needs the tracer to outlive the workload, so the CLI
        # owns the engine and lends it to the workload; the engine's
        # policy carries the sharded/tuned routing
        engine = SpMMEngine(
            SMaTConfig(kernel=args.kernel), policy=policy_from_args(args), cache_size=16
        )
        passthrough = dict(kernel=args.kernel, engine=engine)
    else:
        passthrough = dict(kernel=args.kernel, policy=policy_from_args(args))
    try:
        if engine is not None:
            # one root span makes the whole run a single stitched trace
            with engine.tracer.span(
                "repro.trace", workload=args.workload, matrix=args.matrix
            ):
                report = _run_workload(A, args, passthrough)
        else:
            report = _run_workload(A, args, passthrough)
    finally:
        if engine is not None:
            engine.close()

    title = (
        f"{report.workload} on {args.matrix} (scale={args.scale}): "
        f"{report.iterations} iterations"
        + (", sharded" if report.sharded else "")
        + (", tuned" if report.tuned else "")
    )
    print(format_table(_sample_rows(report.table()), title=title))
    print(
        f"converged: {report.converged} (tol={report.tol:g}), "
        f"final residual {report.final_residual:.3e}"
    )
    print(
        f"SpMM time: {report.total_spmm_ms:.2f} ms total, cold first iteration "
        f"{report.cold_ms:.2f} ms, warm median {report.warm_ms:.3f} ms"
    )
    print(
        f"plan amortization ratio (cold/warm): {report.amortization_ratio:.1f}x "
        f"(cache hits {report.cache_hits}, misses {report.cache_misses})"
    )
    if engine is not None:
        _write_trace(
            engine.tracer, trace_path, tree=getattr(args, "trace_tree", False)
        )
    return 0


def _cmd_trace(args) -> int:
    """``repro trace``: a traced workload run with span-tree output."""
    args.trace = args.out
    args.trace_tree = True
    return _cmd_workload(args)


def _cmd_serve(args) -> int:
    import sys

    from .serve import SpMMServer, parse_token_specs

    try:
        tokens = parse_token_specs(args.token)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    server = SpMMServer(
        SMaTConfig(kernel=args.kernel, reorder=args.reorder),
        host=args.host,
        port=args.port,
        cache_size=args.cache_size,
        policy=policy_from_args(args),
        tokens=tokens,
        registry_capacity=args.registry_capacity,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        max_body_bytes=args.max_body_mb * 1024 * 1024,
        log_stream=None if args.quiet else sys.stderr,
    )
    mode = f"{len(tokens)} tenant(s)" if tokens else "open (anonymous) mode"
    print(
        f"serving SpMM on {server.url} [{mode}, {args.workers} workers, "
        f"kernel={args.kernel}]; Ctrl-C to stop",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def _cmd_kernels(_args) -> int:
    from .kernels import kernel_info

    print(format_table(
        kernel_info(),
        title="execution backends (select with SMaTConfig(kernel=...) or kernel='auto')",
    ))
    return 0


def _cmd_matrices(_args) -> int:
    rows = [
        {
            "name": m.name,
            "domain": m.domain,
            "rows": m.nrows,
            "nnz": m.nnz,
            "sparsity_%": 100 * m.sparsity,
        }
        for m in suitesparse.TABLE1
    ]
    print(format_table(rows, title="Table I matrices (paper metadata)"))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "compare": _cmd_compare,
        "band": _cmd_band,
        "reorder": _cmd_reorder,
        "engine": _cmd_engine,
        "tune": _cmd_tune,
        "shard": _cmd_shard,
        "workload": _cmd_workload,
        "trace": _cmd_trace,
        "serve": _cmd_serve,
        "matrices": _cmd_matrices,
        "kernels": _cmd_kernels,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
