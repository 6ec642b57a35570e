"""Self-test of the benchmark itself (not of the program).

    python3 perfbench/selftest.py

Proves that a corrupted output and a raised exception each count as a
failed op (in the loop, and end to end through ``run.py``, which must then
exit non-zero), that deterministic counts which change are caught, and
that the tracing wrappers nest, account for self time and uninstall
cleanly.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

import run  # noqa: E402
from harness import Facts, Op, Outcome, closed_loop, matches, summarise  # noqa: E402
from tracing import Instrumentation, SpanStore, Target, self_times  # noqa: E402


def _ops(r):
    return [Op("good", "good", (0,)), Op("bad", "bad", (1,)), Op("boom", "boom", (2,))]


REF = np.arange(6.0).reshape(3, 2)


def _call(op):
    if op.key == "boom":
        raise RuntimeError("exception inside the program")
    C = REF.astype(np.float32)
    if op.key == "bad":
        C = C.copy()
        C[1, 1] += 0.5
    return Outcome(C, 1.5)


class LoopCountsFailures(unittest.TestCase):
    def test_corrupted_output_and_exception_are_failures(self):
        def check(op, out):
            return matches(out.C, REF)

        records = closed_loop(_ops, _call, check, 0.0, Facts(), max_rounds=4, min_rounds=4)
        stats = summarise(records)
        self.assertEqual(stats.attempted, 12)
        self.assertEqual(stats.failed, 8)
        self.assertEqual({r.key for r in records if not r.ok}, {"bad", "boom"})
        self.assertTrue(any("exception inside" in (r.error or "") for r in records))
        # a failed op misses any latency limit: with 2/3 failed, p50 is one
        self.assertGreater(stats.p50_ms, 1e6)

    def test_tolerance_follows_dtype(self):
        ref = np.ones((4, 4))
        self.assertTrue(matches(np.float32(1 + 1e-6) * np.ones((4, 4), np.float32), ref))
        self.assertFalse(matches(np.float32(1 + 1e-3) * np.ones((4, 4), np.float32), ref))
        self.assertTrue(matches(np.float16(1 + 1e-3) * np.ones((4, 4), np.float16), ref))
        self.assertFalse(matches(np.ones((4, 3), np.float32), ref))
        self.assertFalse(matches(np.full((4, 4), np.nan, np.float32), ref))

    def test_changed_deterministic_count_is_a_mismatch(self):
        facts = Facts()
        facts.record("sim_ms/a", 0.125)
        facts.record("sim_ms/a", 0.125)
        self.assertEqual(facts.mismatches, [])
        facts.record("sim_ms/a", 0.1250000001)
        self.assertEqual(len(facts.mismatches), 1)

    def test_changed_count_across_runs_is_a_problem(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "facts.json")
            first = {"facts": {"k": "1.0"}, "problems": []}
            run.compare_with_earlier(first, path)
            self.assertEqual(first["problems"], [])
            second = {"facts": {"k": "2.0"}, "problems": []}
            run.compare_with_earlier(second, path)
            self.assertEqual(len(second["problems"]), 1)


class _Inner:
    def work(self, seconds):
        time.sleep(seconds)
        return seconds


class _Outer:
    def __init__(self):
        self.inner = _Inner()

    def work(self):
        self.inner.work(0.01)
        done = []
        t = threading.Thread(target=lambda: done.append(self.inner.work(0.02)))
        t.start()
        t.join(timeout=5)
        time.sleep(0.01)
        return done


class Tracing(unittest.TestCase):
    def test_spans_nest_across_threads_and_account_for_the_op(self):
        store = SpanStore()
        inst = Instrumentation(
            store,
            [Target(_Outer, "work", "outer", "a"), Target(_Inner, "work", "inner", "b")],
        )
        original = _Outer.__dict__["work"]
        inst.install()
        try:
            token = store.open_op(0)
            start = time.perf_counter()
            done = _Outer().work()
            wall = time.perf_counter() - start
            store.close_op(token)
        finally:
            inst.uninstall()
        self.assertEqual(done, [0.02])  # the worker thread finished
        self.assertIs(_Outer.__dict__["work"], original)
        spans = {s.name: s for s in store.spans if s.name != "inner"}
        inner = [s for s in store.spans if s.name == "inner"]
        self.assertEqual(len(inner), 2)
        outer = spans["outer"]
        # the worker-thread span is parented to the caller's open span
        self.assertTrue(all(s.parent == outer.sid for s in inner))
        self.assertEqual(sum(not s.caller_thread for s in inner), 1)
        own = self_times(store.spans)
        layered = sum(own[s.sid] for s in store.spans if s.layer != "bench")
        self.assertAlmostEqual(layered / wall, 1.0, delta=0.05)
        self.assertGreater(own[outer.sid], 0.008)  # its own 10 ms sleep
        self.assertLess(own[outer.sid], outer.duration - 0.025)


class EndToEnd(unittest.TestCase):
    """``run.py`` with injected faults: incorrect result, non-zero exit."""

    def _run(self, inject):
        return subprocess.run(
            [
                sys.executable, os.path.join(HERE, "run.py"),
                "--workload", "solve_sharded", "--seed", "3", "--seconds", "1",
                "--inject", inject,
            ],
            capture_output=True, text=True, timeout=170,
        )

    def _check(self, proc):
        self.assertNotEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["metrics"]["ok_ratio"]["value"], 1.0)

    def test_corrupted_output_fails_the_run(self):
        self._check(self._run("corrupt"))

    def test_exception_fails_the_run(self):
        self._check(self._run("raise"))


if __name__ == "__main__":
    unittest.main()
