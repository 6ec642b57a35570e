"""The closed loop, the output check and the run statistics.

Every workload is driven the same way: one caller runs whole *rounds* of
ops back to back (a round holds each op class its fixed number of times,
in a seeded shuffle), timing each op with ``perf_counter`` around the
public call only.  The output check runs between ops, outside the op's
timer.  The loop stops after the first round that ends past the time
budget (and past a minimum op count), so every class is sampled equally
and per-op averages of deterministic counts do not depend on where the
clock ran out.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np
from scipy.special import betainc

#: relative tolerance of a result, by the dtype the program returned;
#: scaled by ``max |reference|`` (SMaT's Tensor-Core path defaults to fp16)
_RTOL = {"float16": 2e-2, "float32": 1e-4, "float64": 1e-9}


def tolerance(dtype) -> float:
    """Relative tolerance for an output of ``dtype``."""
    return _RTOL.get(np.dtype(dtype).name, 1e-4)


def matches(C, reference: np.ndarray, dtype=None) -> bool:
    """True when ``C`` has the reference's shape, is finite, and lies
    within the tolerance of ``dtype`` (default: ``C``'s own dtype) of the
    float64 reference."""
    C = np.asarray(C)
    if C.shape != reference.shape or not np.all(np.isfinite(C)):
        return False
    scale = max(1.0, float(np.max(np.abs(reference), initial=0.0)))
    err = float(np.max(np.abs(C.astype(np.float64) - reference), initial=0.0))
    return err <= tolerance(C.dtype if dtype is None else dtype) * scale


@dataclass(frozen=True)
class Op:
    """One op of a round.

    ``key`` names everything that determines the op's deterministic
    counts (two ops with one key must report identical counts); ``cls``
    is the latency class used for the percentile accounting.
    """

    key: str
    cls: str
    payload: tuple


@dataclass
class Outcome:
    """What one op returned: its output, its simulated device time, and
    deterministic facts to compare across repeats and runs."""

    C: object
    sim_ms: float
    facts: Dict[str, object] = field(default_factory=dict)


@dataclass
class Record:
    """One attempted op."""

    round: int
    key: str
    cls: str
    wall_s: float
    ok: bool
    sim_ms: Optional[float] = None
    error: Optional[str] = None
    #: the server refused the request (HTTP 401, 413 or 429)
    rejected: bool = False


class Facts:
    """Deterministic values keyed by name; recording a key twice with a
    different value is a mismatch."""

    def __init__(self) -> None:
        self.values: Dict[str, str] = {}
        self.mismatches: List[str] = []

    def record(self, key: str, value) -> None:
        """Record ``value`` (floats compared by their exact repr)."""
        text = repr(float(value)) if isinstance(value, (float, np.floating)) else str(value)
        old = self.values.setdefault(key, text)
        if old != text:
            self.mismatches.append(f"{key}: {old} != {text}")


def closed_loop(
    make_round: Callable[[int], List[Op]],
    call: Callable[[Op], Outcome],
    check: Callable[[Op, Outcome], bool],
    seconds: float,
    facts: Facts,
    *,
    max_rounds: int,
    min_rounds: int = 1,
    min_ops: int = 0,
    before_round: Optional[Callable[[int], object]] = None,
) -> List[Record]:
    """Run whole rounds for ``seconds`` (and at least ``min_rounds`` rounds
    and ``min_ops`` ops, unless ``max_rounds`` comes first) with one
    caller; returns one :class:`Record` per attempted op.  An exception or
    a wrong output is a failed op.  ``before_round(r)`` may return a
    tracing ``SpanStore``, which then gets one root span per op of round
    ``r``."""
    records: List[Record] = []
    deadline = time.perf_counter() + seconds
    for r in range(max_rounds):
        store = before_round(r) if before_round is not None else None
        for op in make_round(r):
            token = store.open_op(len(records)) if store is not None else None
            start = time.perf_counter()
            try:
                out = call(op)
                wall = time.perf_counter() - start
            except Exception as exc:  # a failed op is counted, not fatal
                wall = time.perf_counter() - start
                rejected = getattr(exc, "status", None) in (401, 413, 429)
                records.append(Record(r, op.key, op.cls, wall, False, None, repr(exc), rejected))
                continue
            finally:
                if token is not None:
                    store.close_op(token)
            ok = bool(check(op, out))
            records.append(
                Record(r, op.key, op.cls, wall, ok, out.sim_ms, None if ok else "wrong output")
            )
            facts.record(f"sim_ms/{op.key}", out.sim_ms)
            for name, value in out.facts.items():
                facts.record(f"{name}/{op.key}", value)
        done = r + 1 >= min_rounds and len(records) >= min_ops
        if done and time.perf_counter() >= deadline:
            break
    return records


def nearest_rank(sorted_values: List[float], pct: float) -> int:
    """Zero-based index of the nearest-rank ``pct`` percentile."""
    n = len(sorted_values)
    return min(n - 1, max(0, math.ceil(pct / 100.0 * n) - 1))


def harrell_davis(sorted_values: List[float], pct: float) -> float:
    """Harrell-Davis estimate of the ``pct`` percentile: a Beta-weighted
    mean of the order statistics around it.  Unlike a single order
    statistic it does not jump when the rank lands on the edge of a
    latency class, or when one op of a class is slow."""
    n = len(sorted_values)
    p = pct / 100.0
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    edges = betainc(a, b, np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), sorted_values))


@dataclass
class LoopStats:
    """End-to-end figures of one timed phase."""

    attempted: int
    failed: int
    ops_per_s: float
    p50_ms: float
    p90_ms: float
    beyond_p90: int
    sim_ms_per_op: float
    rounds: int
    round_ops_per_s: List[float]
    occupancy: Dict[str, str]


#: latency reported for a percentile that lands on a failed op (a failed
#: op misses any latency limit)
FAILED_LATENCY_MS = 1e9


def summarise(records: List[Record]) -> LoopStats:
    """Throughput (median over rounds of correct ops / op wall time),
    Harrell-Davis p50/p90 over every attempted op (a failure counts as
    :data:`FAILED_LATENCY_MS`), and which class holds each percentile's
    nearest rank."""
    rounds: Dict[int, List[Record]] = {}
    for rec in records:
        rounds.setdefault(rec.round, []).append(rec)
    per_round = [
        sum(r.ok for r in recs) / sum(r.wall_s for r in recs)
        for recs in rounds.values()
        if sum(r.wall_s for r in recs) > 0
    ]
    ordered = sorted(records, key=lambda r: (not r.ok, r.wall_s))
    lat = [1e3 * r.wall_s if r.ok else FAILED_LATENCY_MS for r in ordered]
    occupancy = {}
    for pct in (50, 90):
        i = nearest_rank(lat, pct)
        cls = ordered[i].cls
        ranks = [j for j, r in enumerate(ordered) if r.cls == cls]
        n = len(ordered)
        occupancy[f"p{pct}"] = (
            f"{cls} holds ranks {100.0 * ranks[0] / n:.1f}-{100.0 * (ranks[-1] + 1) / n:.1f}%"
        )
    sims = [r.sim_ms for r in records if r.sim_ms is not None]
    i90 = nearest_rank(lat, 90)
    return LoopStats(
        attempted=len(records),
        failed=sum(not r.ok for r in records),
        ops_per_s=statistics.median(per_round) if per_round else 0.0,
        p50_ms=harrell_davis(lat, 50),
        p90_ms=harrell_davis(lat, 90),
        beyond_p90=len(lat) - 1 - i90,
        sim_ms_per_op=sum(sims) / len(sims) if sims else 0.0,
        rounds=len(rounds),
        round_ops_per_s=[round(x, 3) for x in per_round],
        occupancy=occupancy,
    )
