"""Which public functions the traced run wraps, and the per-layer metrics.

Layer names follow the ``src/repro`` packages.  Metrics ending in
``_per_op`` are totals over the traced timed phase divided by its ops;
``convert_ms``, ``prepare_ms``, ``build_self_ms``, ``calibrate_ms`` and
``partition_ms`` are totals over one traced set-up.  A layer that does not
run on a workload reports 0 for its metrics.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.plan import ExecutionPlan
from repro.engine import SpMMEngine
from repro.engine.cache import PlanCache
from repro.formats import BCSRMatrix, CSRMatrix, SRBCRSMatrix
from repro.gpu.cost import CostModel
from repro.kernels import (
    CublasDenseKernel,
    CusparseCSRKernel,
    DASPKernel,
    MagicubeKernel,
    SMaTKernel,
)
from repro.reorder.base import Reorderer
from repro.serve import SpMMClient, SpMMServer
from repro.tuner import Tuner, TuningCache
from repro.workloads.base import SpMMOperator

import repro.core.plan as core_plan
import repro.serve.wire as wire
import repro.shard.executor as shard_executor
import repro.shard.partition as shard_partition
import repro.tuner.model as tuner_model
import repro.workloads.smoother as smoother
from tracing import BENCH_LAYER, Span, Target, self_times


def _kernel_counts(result) -> dict:
    c = result.counters
    computed = c.mma_flops if c.mma_flops else c.cuda_core_flops
    return {"computed": computed, "useful": c.useful_flops, "bytes": c.bytes_global}


def _bcsr_fill(bcsr) -> dict:
    return {"stored": bcsr.stored_values, "nnz": bcsr.nnz}


def _reorder_counts(result) -> dict:
    before = result.stats_before.n_blocks if result.stats_before else 0
    after = result.stats_after.n_blocks if result.stats_after else 0
    return {"before": before, "after": after}


def _tuning_counts(result) -> dict:
    return {
        "measured": result.n_measured,
        "pruned": result.n_pruned,
        "candidates": len(result.outcomes),
    }


def targets() -> List:
    """Every wrapped function, with its span name and layer."""
    t = [
        Target(SpMMClient, "multiply", "SpMMClient.multiply", "serve"),
        Target(wire, "encode_array", "wire.encode_array", "serve",
               lambda d: {"bytes": len(d["data_b64"])}),
        Target(wire, "decode_array", "wire.decode_array", "serve"),
        Target(SpMMServer, "handle_multiply", "SpMMServer.handle_multiply", "serve"),
        Target(SpMMEngine, "execute_one", "SpMMEngine.execute_one", "engine"),
        Target(SpMMEngine, "multiply", "SpMMEngine.multiply", "engine"),
        Target(SpMMEngine, "multiply_sharded", "SpMMEngine.multiply_sharded", "engine"),
        Target(PlanCache, "get_or_build", "PlanCache.get_or_build", "engine",
               lambda r: {"hit": bool(r[1])}),
        Target(Tuner, "resolve", "Tuner.resolve", "tuner"),
        Target(Tuner, "tune", "Tuner.tune", "tuner", _tuning_counts),
        Target(TuningCache, "get", "TuningCache.get", "tuner"),
        Target(TuningCache, "put", "TuningCache.put", "tuner"),
        Target(tuner_model, "calibrate", "calibrate", "tuner"),
        Target(Reorderer, "reorder", "Reorderer.reorder", "reorder", _reorder_counts),
        Target(core_plan, "build_with_fallback", "build_with_fallback", "core"),
        Target(ExecutionPlan, "build", "ExecutionPlan.build", "core"),
        Target(ExecutionPlan, "execute", "ExecutionPlan.execute", "core"),
        Target(CostModel, "simulate", "CostModel.simulate", "gpu"),
        Target(shard_partition, "make_partition", "make_partition", "shard",
               lambda p: {"imbalance": p.imbalance}),
        Target(shard_executor, "execute_partition", "execute_partition", "shard",
               lambda r: {"shards": sum(1 for s in r[1].shards if s.nnz)}),
        Target(SpMMOperator, "matmul", "SpMMOperator.matmul", "workloads"),
        Target(smoother, "chebyshev_smoother", "chebyshev_smoother", "workloads"),
        Target(BCSRMatrix, "from_csr", "BCSRMatrix.from_csr", "formats", _bcsr_fill),
        Target(SRBCRSMatrix, "from_csr", "SRBCRSMatrix.from_csr", "formats"),
    ]
    for fmt in (BCSRMatrix, CSRMatrix, SRBCRSMatrix):
        t.append(Target(fmt, "spmm", f"{fmt.__name__}.spmm", "formats"))
    for k in (SMaTKernel, CusparseCSRKernel, DASPKernel, MagicubeKernel, CublasDenseKernel):
        t.append(Target(k, "prepare", f"{k.__name__}.prepare", "kernels"))
        t.append(Target(k, "run", f"{k.__name__}.run", "kernels", _kernel_counts))
    return t


#: every per-layer metric, with its unit (BENCHMARK.json lists the same)
PER_LAYER = {
    "formats.spmm_ms_per_op": "ms",
    "formats.convert_ms": "ms",
    "formats.fill_ratio": "ratio",
    "kernels.run_self_ms_per_op": "ms",
    "kernels.prepare_ms": "ms",
    "kernels.computed_flops_per_op": "flop",
    "kernels.useful_flops_ratio": "ratio",
    "kernels.bytes_per_op": "B",
    "gpu.simulate_ms_per_op": "ms",
    "core.execute_self_ms_per_op": "ms",
    "core.build_self_ms": "ms",
    "reorder.ms_per_call": "ms",
    "reorder.calls_per_op": "count",
    "reorder.block_reduction": "ratio",
    "tuner.search_ms_per_op": "ms",
    "tuner.measured_per_search": "count",
    "tuner.pruned_ratio": "ratio",
    "tuner.calibrate_ms": "ms",
    "tuner.cache_io_ms_per_op": "ms",
    "engine.lookup_ms_per_op": "ms",
    "engine.cache_hit_ratio": "ratio",
    "engine.self_ms_per_op": "ms",
    "shard.partition_ms": "ms",
    "shard.execute_self_ms_per_op": "ms",
    "shard.shards_per_op": "count",
    "shard.imbalance": "ratio",
    "workloads.self_ms_per_op": "ms",
    "workloads.iterations_per_op": "count",
    "workloads.spmm_share": "ratio",
    "serve.client_codec_ms_per_op": "ms",
    "serve.server_codec_ms_per_op": "ms",
    "serve.handler_self_ms_per_op": "ms",
    "serve.http_ms_per_op": "ms",
    "serve.bytes_per_op": "B",
    "serve.rejected_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.accounted_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(setup: List[Span], phase: List[Span], n_ops: int) -> Dict[str, float]:
    """Per-layer numbers from one traced set-up and one traced phase
    (everything except the ``trace.*`` entries)."""
    self_s = self_times(setup + phase)

    def names(spans, *wanted):
        return [s for s in spans if s.name in wanted]

    def total_ms(spans, *wanted):
        return ms(names(spans, *wanted))

    def ms(spans):
        return 1e3 * sum(s.duration for s in spans)

    def self_ms(spans, *wanted):
        return 1e3 * sum(self_s[s.sid] for s in names(spans, *wanted))

    def per_op(value):
        return _ratio(value, n_ops)

    def layer(spans, name):
        return [s for s in spans if s.layer == name]

    def extra_sum(spans, key):
        return sum(s.extra[key] for s in spans if s.extra and key in s.extra)

    spmm = [f"{f}.spmm" for f in ("BCSRMatrix", "CSRMatrix", "SRBCRSMatrix")]
    kernel_names = [s.name for s in layer(phase + setup, "kernels")]
    runs = [s for s in phase if s.name.endswith(".run") and s.layer == "kernels"]
    prepares = [n for n in set(kernel_names) if n.endswith(".prepare")]
    fills = names(setup, "BCSRMatrix.from_csr")
    reorders = names(setup + phase, "Reorderer.reorder")
    searches = names(phase, "Tuner.tune")
    lookups = names(phase, "PlanCache.get_or_build")
    matmuls = names(phase, "SpMMOperator.matmul")
    solves = names(phase, "chebyshev_smoother")
    partitions = names(setup, "make_partition")
    codec = names(phase, "wire.encode_array", "wire.decode_array")
    computed = extra_sum(runs, "computed")
    return {
        "formats.spmm_ms_per_op": per_op(total_ms(phase, *spmm)),
        "formats.convert_ms": total_ms(setup, "BCSRMatrix.from_csr", "SRBCRSMatrix.from_csr"),
        "formats.fill_ratio": _ratio(extra_sum(fills, "stored"), extra_sum(fills, "nnz")),
        "kernels.run_self_ms_per_op": per_op(1e3 * sum(self_s[s.sid] for s in runs)),
        "kernels.prepare_ms": total_ms(setup, *prepares),
        "kernels.computed_flops_per_op": per_op(computed),
        "kernels.useful_flops_ratio": _ratio(extra_sum(runs, "useful"), computed),
        "kernels.bytes_per_op": per_op(extra_sum(runs, "bytes")),
        "gpu.simulate_ms_per_op": per_op(total_ms(phase, "CostModel.simulate")),
        "core.execute_self_ms_per_op": per_op(self_ms(phase, "ExecutionPlan.execute")),
        "core.build_self_ms": self_ms(setup, "ExecutionPlan.build", "build_with_fallback"),
        "reorder.ms_per_call": _ratio(ms(reorders), len(reorders)),
        "reorder.calls_per_op": per_op(len(names(phase, "Reorderer.reorder"))),
        "reorder.block_reduction": _ratio(
            extra_sum(reorders, "before"), extra_sum(reorders, "after")
        ),
        "tuner.search_ms_per_op": per_op(ms(searches)),
        "tuner.measured_per_search": _ratio(extra_sum(searches, "measured"), len(searches)),
        "tuner.pruned_ratio": _ratio(
            extra_sum(searches, "pruned"), extra_sum(searches, "candidates")
        ),
        "tuner.calibrate_ms": total_ms(setup, "calibrate"),
        "tuner.cache_io_ms_per_op": per_op(total_ms(phase, "TuningCache.get", "TuningCache.put")),
        "engine.lookup_ms_per_op": per_op(self_ms(phase, "PlanCache.get_or_build")),
        "engine.cache_hit_ratio": _ratio(extra_sum(lookups, "hit"), len(lookups)),
        "engine.self_ms_per_op": per_op(
            self_ms(
                phase,
                "SpMMEngine.execute_one",
                "SpMMEngine.multiply",
                "SpMMEngine.multiply_sharded",
            )
        ),
        "shard.partition_ms": ms(partitions),
        "shard.execute_self_ms_per_op": per_op(self_ms(phase, "execute_partition")),
        "shard.shards_per_op": per_op(extra_sum(names(phase, "execute_partition"), "shards")),
        "shard.imbalance": _ratio(extra_sum(partitions, "imbalance"), len(partitions)),
        "workloads.self_ms_per_op": per_op(
            self_ms(phase, "SpMMOperator.matmul", "chebyshev_smoother")
        ),
        "workloads.iterations_per_op": per_op(len(matmuls)),
        "workloads.spmm_share": _ratio(ms(matmuls), ms(solves)),
        "serve.client_codec_ms_per_op": per_op(
            1e3 * sum(s.duration for s in codec if s.caller_thread)
        ),
        "serve.server_codec_ms_per_op": per_op(
            1e3 * sum(s.duration for s in codec if not s.caller_thread)
        ),
        "serve.handler_self_ms_per_op": per_op(self_ms(phase, "SpMMServer.handle_multiply")),
        "serve.http_ms_per_op": per_op(self_ms(phase, "SpMMClient.multiply")),
        "serve.bytes_per_op": per_op(extra_sum(names(phase, "wire.encode_array"), "bytes")),
    }


def accounted_ratio(phase: List[Span], op_wall_s: float) -> float:
    """Sum of every layer span's self time over the ops' own wall time.
    Close to 1 when the layer spans tile each op; below 1 when time
    escapes every wrapper; above 1 when spans overlap or are counted
    outside their op."""
    self_s = self_times(phase)
    layered = sum(self_s[s.sid] for s in phase if s.layer != BENCH_LAYER)
    return _ratio(layered, op_wall_s)


def op_counts(phase: List[Span]) -> Dict[int, Dict[str, float]]:
    """Deterministic counts per op index: kernel computed FLOPs and bytes,
    and reorder block counts."""
    out: Dict[int, Dict[str, float]] = {}
    for s in phase:
        if not s.extra or s.op < 0:
            continue
        counts = out.setdefault(s.op, {})
        if s.layer == "kernels":
            add = {"kernels.computed_flops": s.extra["computed"], "kernels.bytes": s.extra["bytes"]}
        elif s.layer == "reorder":
            add = {"reorder.blocks_after": s.extra["after"]}
        else:
            continue
        for name, value in add.items():
            counts[name] = counts.get(name, 0) + value
    return out
