"""The repository's benchmark: one workload per invocation.

    python3 perfbench/run.py --workload warm_mix --seed 1 --seconds 20 --trace 0

Runs the workload in a fresh interpreter with a pinned environment (one
BLAS/OpenMP thread, one malloc arena, the in-process shard executor,
online tuning off, the tuning cache and temp files in a per-run directory
inside the checkout),
checks every output against scipy, compares the deterministic counts with
earlier runs of the same workload and seed, and prints a human-readable
report followed, as the last line of standard output, by one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones.  The exit code
is 0 only when every output and every deterministic count checked out.
Workloads and metrics are described in NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("warm_mix", "http_serve", "cold_tune", "solve_sharded")
#: run-time output kept between runs (traces, deterministic counts)
OUT_DIR = os.path.join(ROOT, ".bench_out")
#: per-run scratch directories, removed when the run ends
TMP_DIR = os.path.join(ROOT, ".bench_tmp")
CHILD_TIMEOUT_S = 170

#: environment variables that change what the program does: cleared, then
#: the ones below pinned
_CLEARED_PREFIXES = ("REPRO_",)
_PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "REPRO_EXECUTOR": "thread",
    "REPRO_ONLINE_TUNE": "0",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
    # one malloc arena: with glibc's per-thread arenas, the peak RSS of
    # http_serve moved 119-148 MiB with whichever arena each short-lived
    # handler thread picked
    "MALLOC_ARENA_MAX": "1",
}


def child_env(tmpdir: str) -> dict:
    """The parent environment with the program's switches cleared or
    pinned; the default tuning-cache location and ``TMPDIR`` point into
    the run's scratch directory."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith(_CLEARED_PREFIXES) and k != "PYTHONPATH"
    }
    env.update(_PINNED)
    env["XDG_CACHE_HOME"] = os.path.join(tmpdir, "cache")
    env["TMPDIR"] = tmpdir
    return env


def compare_with_earlier(result: dict, path: str) -> None:
    """Fail the result if a deterministic count differs from an earlier
    run of the same workload and seed; then store the union."""
    earlier = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
    current = result["facts"]
    for key, text in earlier.items():
        if key in current and current[key] != text:
            result["problems"].append(f"{key}: earlier run {text} != this run {current[key]}")
    merged = {**earlier, **current}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(merged, fh, indent=0, sort_keys=True)


def report(args, result: dict) -> None:
    """Human-readable lines before the JSON result."""
    info = result["info"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"policy {info['policy']}")
    print(
        f"resolved executor={info['resolved_executor']} "
        f"online_tune={info['resolved_online_tune']}"
    )
    for key in sorted(info):
        if key not in ("policy", "resolved_executor", "resolved_online_tune"):
            print(f"{key}: {info[key]}")
    width = max(len(k) for k in result["metrics"])
    for name, m in result["metrics"].items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")
    print(f"attempted {result['attempted']}  failed {result['failed']}")
    for problem in result["problems"]:
        print(f"PROBLEM: {problem}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--inject",
        choices=("corrupt", "raise"),
        help="self-test only: every 7th op returns a corrupted output or raises",
    )
    args = p.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program source at {os.path.join(ROOT, 'src', 'repro')}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    os.makedirs(os.path.join(OUT_DIR, "facts"), exist_ok=True)
    os.makedirs(TMP_DIR, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_DIR)
    try:
        out = os.path.join(tmpdir, "result.json")
        cmd = [
            sys.executable,
            os.path.join(HERE, "child.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--tmpdir", tmpdir,
            "--trace-path", os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"),
            "--out", out,
        ]
        if args.inject:
            cmd += ["--inject", args.inject]
        try:
            proc = subprocess.run(cmd, env=child_env(tmpdir), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"error: the workload did not finish in {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 1
        if proc.returncode != 0 or not os.path.exists(out):
            print(f"error: the workload process exited with {proc.returncode}", file=sys.stderr)
            return 1
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    facts_path = os.path.join(OUT_DIR, "facts", f"{args.workload}-seed{args.seed}.json")
    compare_with_earlier(result, facts_path)
    result["correct"] = result["correct"] and not result["problems"]
    report(args, result)
    print(
        json.dumps(
            {k: result[k] for k in ("correct", "attempted", "failed", "metrics")},
            separators=(",", ":"),
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
