"""One workload run in a fresh interpreter (started by ``run.py``).

Order of events: every import, then input generation from the seed, then
the timed set-ups, then the timed phase.  ``--trace 0`` measures the
end-to-end metrics with no wrapper installed.  ``--trace 1`` runs one
traced set-up, then rounds that alternate untraced and traced, and reports
the per-layer metrics of the traced rounds plus the tracing overhead.  The result goes
to ``--out`` as JSON; ``run.py`` prints it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

from harness import Facts, closed_loop, summarise  # noqa: E402
from layers import PER_LAYER, accounted_ratio, layer_metrics, op_counts, targets  # noqa: E402
from repro.tuner import default_cache_path  # noqa: E402
from tracing import Instrumentation, SpanStore, dump_spans  # noqa: E402
from workloads import POLICY, WORKLOADS  # noqa: E402

#: ops per timed phase at least, so at least 10 samples lie beyond p90
MIN_OPS = 100

#: the layer spans' self times must add up to the ops' own wall time within
#: this share (a wrapper that double-counts or loses a thread shows up)
ACCOUNTING_SLACK = 0.05

END_TO_END_UNITS = {
    "wall_ops_per_s": "1/s",
    "wall_p50_ms": "ms",
    "wall_p90_ms": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_device_ms_per_op": "ms",
}


def _loop(wl, seconds, facts, **kwargs):
    gc.collect()
    return closed_loop(
        wl.make_round,
        wl.call,
        wl.check,
        seconds,
        facts,
        max_rounds=wl.max_rounds(),
        min_ops=MIN_OPS,
        **kwargs,
    )


def run_untraced(wl, seconds, facts):
    """Set up ``setup_reps`` times (median = ``setup_s``), then measure."""
    setup_s = []
    for rep in range(wl.setup_reps):
        if rep:
            wl.teardown()
        gc.collect()
        start = time.perf_counter()
        wl.setup(rep, facts)
        setup_s.append(time.perf_counter() - start)
    records = _loop(wl, seconds, facts)
    wl.teardown()
    stats = summarise(records)
    values = {
        "wall_ops_per_s": stats.ops_per_s,
        "wall_p50_ms": stats.p50_ms,
        "wall_p90_ms": stats.p90_ms,
        "ok_ratio": (stats.attempted - stats.failed) / max(1, stats.attempted),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_device_ms_per_op": stats.sim_ms_per_op,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    info = {
        "setup_s_each": [round(s, 4) for s in setup_s],
        "rounds": stats.rounds,
        "round_ops_per_s": stats.round_ops_per_s,
        "samples": stats.attempted,
        "samples_beyond_p90": stats.beyond_p90,
        "percentile_classes": stats.occupancy,
    }
    return records, metrics, info


def run_traced(wl, seconds, facts, trace_path):
    """Traced set-up, then rounds alternating untraced (even) and traced
    (odd), so the tracing overhead compares rounds of one phase."""
    store = SpanStore()
    inst = Instrumentation(store, targets())
    inst.install()
    try:
        wl.setup(0, facts)
    finally:
        inst.uninstall()
    setup_spans = list(store.spans)
    store.spans.clear()

    def before_round(r):
        if r % 2:
            inst.install()
            return store
        inst.uninstall()
        return None

    try:
        records = _loop(wl, seconds, facts, min_rounds=2, before_round=before_round)
    finally:
        inst.uninstall()
    wl.teardown()
    phase = list(store.spans)
    untraced = [r for r in records if r.round % 2 == 0]
    traced = [r for r in records if r.round % 2]
    plain, with_trace = summarise(untraced), summarise(traced)
    values = layer_metrics(setup_spans, phase, len(traced))
    values["serve.rejected_ratio"] = sum(r.rejected for r in traced) / len(traced)
    values["trace.overhead_ratio"] = plain.ops_per_s / with_trace.ops_per_s
    values["trace.accounted_ratio"] = accounted_ratio(phase, sum(r.wall_s for r in traced))
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items()}

    # deterministic counts: per op key, and the set-up's reorder passes
    for i, counts in op_counts(phase).items():
        for name, value in counts.items():
            facts.record(f"{name}/{records[i].key}", value)
    for i, s in enumerate(sp for sp in setup_spans if sp.name == "Reorderer.reorder"):
        facts.record(f"reorder.setup/{i}", f"{s.extra['before']}->{s.extra['after']}")
    missing = [
        layer
        for layer in wl.layers
        if not any(s.layer == layer for s in setup_spans + phase)
    ]
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"setup": dump_spans(setup_spans), "phase": dump_spans(phase)}, fh)
    info = {
        "samples": len(records),
        "untraced_ops_per_s": plain.ops_per_s,
        "traced_ops_per_s": with_trace.ops_per_s,
        "spans": len(setup_spans) + len(phase),
        "layers_without_spans": missing,
        "trace_file": os.path.relpath(trace_path, ROOT),
    }
    return records, metrics, info


def inject_faults(wl, kind: str, every: int = 7) -> None:
    """Self-test hook: every ``every``-th op returns a corrupted output
    (``corrupt``) or raises (``raise``), to prove both count as failures."""
    call = wl.call
    count = [0]

    def faulty(op):
        count[0] += 1
        if count[0] % every:
            return call(op)
        if kind == "raise":
            raise RuntimeError("injected fault")
        out = call(op)
        out.C = np.array(out.C)
        out.C.flat[0] += 1.0 + abs(out.C.flat[0])
        return out

    wl.call = faulty


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tmpdir", required=True)
    p.add_argument("--trace-path", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--inject", choices=("corrupt", "raise"))
    args = p.parse_args(argv)

    facts = Facts()
    wl = WORKLOADS[args.workload](args.seed, args.tmpdir)
    wl.generate(args.seconds)
    if args.inject:
        inject_faults(wl, args.inject)
    if args.trace:
        records, metrics, info = run_traced(wl, args.seconds, facts, args.trace_path)
    else:
        records, metrics, info = run_untraced(wl, args.seconds, facts)

    problems = list(facts.mismatches)
    problems += [f"layer {name} recorded no spans" for name in info.get("layers_without_spans", [])]
    if args.trace:
        accounted = metrics["trace.accounted_ratio"]["value"]
        if abs(accounted - 1.0) > ACCOUNTING_SLACK:
            problems.append(
                f"layer self times add up to {accounted:.3f} of the op wall time "
                f"(allowed: 1 +- {ACCOUNTING_SLACK})"
            )
    failures = [r for r in records if not r.ok]
    problems += [f"op {r.key} failed: {r.error}" for r in failures[:5]]
    default_cache = default_cache_path()
    if default_cache.exists():
        problems.append(f"the default tuning cache {default_cache} was written")
    if not np.isfinite([m["value"] for m in metrics.values()]).all():
        problems.append("a metric is not finite")
    info["policy"] = repr(POLICY)
    info["resolved_executor"] = POLICY.resolved_executor()
    info["resolved_online_tune"] = repr(POLICY.resolved_online_tune())
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
        "facts": facts.values,
        "problems": problems,
        "info": info,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
