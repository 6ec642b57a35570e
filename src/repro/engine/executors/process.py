"""GIL-escaping shard execution on a shared-memory process pool.

The thread executor runs every shard in one interpreter, so the
numpy-external parts of plan execution (BCSR gather loops, reordering,
simulated-kernel bookkeeping) serialise behind the GIL.
:class:`ProcessShardExecutor` runs shards in worker *processes* instead,
with three properties the paper's preprocess-once model demands:

**Zero-copy data plane.**  A-shard CSR arrays and the B/C operand panels
move through ``multiprocessing.shared_memory`` segments (created and
unlinked by a :class:`~repro.engine.executors.shm.SegmentRegistry`);
queue messages carry only names, offsets and dtypes -- no pickled
ndarray ever crosses the hot path.

**Sticky placement, warm caches.**  Workers keep private plan caches, so
shards are placed once per session by the LPT placer over Eq. 1
predicted costs (:mod:`~repro.engine.executors.placement`) and never
move: repeated multiplies hit worker-local prepared plans.  Tuned
executors hand each worker the persistent
:class:`~repro.tuner.TuningCache` path at pool startup, so worker plan
builds resolve tuning from disk (counted as ``warmup_hits``) instead of
re-searching.

**Guaranteed cleanup.**  All segments funnel through the registry, which
unlinks on :meth:`close` and -- for crash / ``KeyboardInterrupt`` paths
-- from an ``atexit`` hook; worker death is detected by liveness checks
during result collection and surfaces as :class:`RuntimeError`, never a
hang.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import threading
import time
import traceback
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...obs.trace import NULL_TRACER, SpanContext, Tracer
from .base import ExecutorTelemetry, ShardExecutor, resolve_tuning_cache_path, validate_operand
from .placement import Placement, place_shards, predict_shard_cost
from .shm import SegmentRegistry, attach_segment, ndarray_view, share_resource_tracker

__all__ = ["ProcessShardExecutor"]

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...core.config import SMaTConfig
    from ...shard.executor import ShardedReport
    from ...shard.partition import Partition
    from ...shard.plan import ShardPlanEntry

#: environment override for the multiprocessing start method
MP_CONTEXT_ENV = "REPRO_MP_CONTEXT"

#: cross-process gather locks per pool (indexed by ``row_panel % N``);
#: created at pool start because mp locks cannot travel through queues
N_GATHER_LOCKS = 16

#: seconds between liveness checks while waiting on worker results
_POLL_S = 0.2

#: alignment of array offsets inside a segment
_ALIGN = 16


def _default_context() -> str:
    """``fork`` where available (cheap start, inherits warm imports),
    ``spawn`` otherwise; ``$REPRO_MP_CONTEXT`` overrides."""
    override = os.environ.get(MP_CONTEXT_ENV, "").strip()
    if override:
        return override
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class _Session:
    """Parent-side record of one prepared (partition, config) pair."""

    def __init__(self, sid: str, key: tuple, partition, config, placement: Placement):
        self.sid = sid
        self.key = key
        self.partition = partition
        self.config = config
        self.placement = placement
        #: worker index -> shard indices placed on it (load/run fan-out)
        self.worker_shards: Dict[int, List[int]] = {}
        #: entries as first built (reused -- with warm cache_hit -- later)
        self.entries: List["ShardPlanEntry"] = []
        self.warmup_hits = 0


class ProcessShardExecutor(ShardExecutor):
    """Shard executor backed by a pool of worker processes.

    Parameters
    ----------
    max_workers:
        Worker processes in the pool.
    tuner:
        The engine's tuner, if tuning is enabled.  Workers receive the
        tuner's persistent cache *path* (not the object) and build their
        own tuning resolution from it at startup.
    context:
        Multiprocessing start method (default: ``$REPRO_MP_CONTEXT`` or
        ``fork`` where available).
    tracer:
        Optional :class:`repro.obs.Tracer` (the engine's).  When a span
        is live at :meth:`execute` time its context travels to the
        workers inside the run message; workers record their own
        ``shard.worker.run`` spans and ship them back with the results,
        where they are stitched into the host trace.
    """

    kind = "process"

    def __init__(
        self,
        max_workers: int = 4,
        *,
        tuner=None,
        context: Optional[str] = None,
        tracer=None,
    ):
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._tuned = tuner is not None
        tuning_cache_path = resolve_tuning_cache_path(tuner)
        self._ctx = multiprocessing.get_context(context or _default_context())
        self._registry = SegmentRegistry()
        self._results = self._ctx.Queue()
        self._lock = threading.Lock()
        self._sessions: Dict[tuple, _Session] = {}
        self._session_counter = 0
        self._run_counter = 0
        self._closed = False
        self._broken: Optional[str] = None
        self._shards_executed = 0
        self._per_worker_shards: Dict[int, int] = {}
        self._last_placement: Optional[Placement] = None
        self._b_seg = None
        self._c_seg = None
        # gather locks are created *before* the workers so they can be
        # inherited / passed as Process args (queues cannot carry them)
        gather_locks = [self._ctx.Lock() for _ in range(N_GATHER_LOCKS)]
        share_resource_tracker()
        self._workers: List[Tuple[object, object]] = []  # (Process, task queue)
        for wid in range(int(max_workers)):
            tasks = self._ctx.Queue()
            proc = self._ctx.Process(
                target=_worker_main,
                args=(wid, tasks, self._results, gather_locks, self._tuned, tuning_cache_path),
                name=f"spmm-shard-worker-{wid}",
                daemon=True,
            )
            proc.start()
            self._workers.append((proc, tasks))

    # -- prepare ---------------------------------------------------------------
    def prepare(
        self, partition: "Partition", config: "SMaTConfig"
    ) -> List["ShardPlanEntry"]:
        """Place shards, ship their CSR arrays into shared memory, and
        have each worker build (or reuse) its plans.

        The first call for a (partition, config) pair creates a sticky
        session; later calls return warm entries (``cache_hit=True``)
        without touching the workers.
        """
        from ...shard.plan import ShardPlanEntry, ensure_shard_fingerprints

        self._require_usable()
        key = self._session_key(partition, config)
        with self._lock:
            session = self._sessions.get(key)
        if session is not None:
            return [
                ShardPlanEntry(
                    shard=e.shard, plan=None, cache_hit=True, build_ms=0.0, remote=e.remote
                )
                for e in session.entries
            ]

        ensure_shard_fingerprints(partition)
        nonempty = [s for s in partition.shards if s.nnz > 0]
        with self._tracer.span("shard.placement", workers=len(self._workers)) as span:
            costs = [predict_shard_cost(s, config) for s in nonempty]
            placement = place_shards(costs, len(self._workers))
            span.set(
                n_shards=len(nonempty),
                imbalance=round(placement.imbalance, 4),
            )

        with self._lock:
            self._session_counter += 1
            sid = f"s{self._session_counter}"
        session = _Session(sid, key, partition, config, placement)

        # pack each placed shard's rowptr/col/val into one segment
        descriptors: Dict[int, dict] = {}
        for shard, worker in zip(nonempty, placement.assignment):
            matrix = shard.matrix
            arrays = [matrix.rowptr, matrix.col, matrix.val]
            offsets, cursor = [], 0
            for arr in arrays:
                offsets.append(cursor)
                cursor = _aligned(cursor + arr.nbytes)
            seg = self._registry.create(max(1, cursor), tag=f"a{shard.index}")
            for arr, off in zip(arrays, offsets):
                ndarray_view(seg, arr.dtype.str, arr.size, off)[:] = arr
            descriptors[shard.index] = {
                "index": shard.index,
                "segment": seg.name,
                "arrays": [
                    (off, arr.dtype.str, arr.size) for arr, off in zip(arrays, offsets)
                ],
                "shape": matrix.shape,
                "fingerprint": matrix._fingerprint,
                "rows": (shard.row_start, shard.row_stop),
                "cols": (shard.col_start, shard.col_stop),
                "pos": shard.pos,
            }
            session.worker_shards.setdefault(worker, []).append(shard.index)

        from ...core.plan import PlanSpec

        spec = PlanSpec(config, tuned=self._tuned)
        trace_ctx = self._tracer.current_context()
        trace = tuple(trace_ctx) if trace_ctx is not None else None
        for worker, shard_ids in session.worker_shards.items():
            self._task_queue(worker).put(
                ("load", sid, spec, [descriptors[i] for i in shard_ids], trace)
            )
        infos: Dict[int, dict] = {}
        for msg in self._collect("loaded", sid, expected=len(session.worker_shards)):
            for info in msg[3]:
                infos[info["index"]] = info
            if len(msg) > 4 and msg[4]:
                self._tracer.ingest(msg[4])

        worker_of = {
            s.index: w for s, w in zip(nonempty, placement.assignment)
        }
        entries = []
        for shard in partition.shards:
            if shard.nnz == 0:
                entries.append(
                    ShardPlanEntry(shard=shard, plan=None, cache_hit=True, build_ms=0.0)
                )
                continue
            info = infos[shard.index]
            remote = self._remote_info(sid, worker_of[shard.index], info)
            session.warmup_hits += int(info["warmup_hits"])
            entries.append(
                ShardPlanEntry(
                    shard=shard,
                    plan=None,
                    cache_hit=bool(info["plan_cached"]),
                    build_ms=float(info["build_ms"]),
                    remote=remote,
                )
            )
        session.entries = entries
        with self._lock:
            self._sessions[key] = session
            self._last_placement = placement
        return entries

    @staticmethod
    def _remote_info(sid: str, worker: int, info: dict):
        from ...shard.plan import RemotePlanInfo

        return RemotePlanInfo(
            session=sid,
            worker=worker,
            backend=info["backend"],
            config_label=info["label"],
            blocks=int(info["blocks"]),
            warmup_hit=bool(info["warmup_hits"]),
        )

    # -- execute ---------------------------------------------------------------
    def execute(
        self,
        partition: "Partition",
        entries: Sequence["ShardPlanEntry"],
        B: np.ndarray,
    ) -> Tuple[np.ndarray, "ShardedReport"]:
        """One scatter-gather multiply across the worker pool.

        ``entries`` must come from :meth:`prepare` on this executor;
        entries carrying in-process plans (built by a foreign
        :class:`~repro.shard.plan.ShardPlanner`) fall back to local
        execution so mixed call patterns keep working.
        """
        from ...shard.executor import execute_partition

        self._require_usable()
        if len(entries) != len(partition.shards):
            raise ValueError("one ShardPlanEntry per shard expected")
        if not any(e.remote is not None for e in entries):
            # foreign entries hold local plans: execute in-process
            return execute_partition(partition, entries, B, executor=None)

        session = self._session_for(entries, partition)
        B_arr, was_vector = validate_operand(partition, B)
        B_arr = np.ascontiguousarray(B_arr)
        A = partition.A
        out_dtype = np.result_type(A.dtype, B_arr.dtype, np.float32)
        n_cols = B_arr.shape[1]

        start = time.perf_counter()
        b_seg = self._operand_segment("_b_seg", B_arr.nbytes, tag="b")
        ndarray_view(b_seg, B_arr.dtype.str, B_arr.size)[:] = B_arr.ravel()
        c_count = A.nrows * n_cols
        c_seg = self._operand_segment("_c_seg", c_count * out_dtype.itemsize, tag="c")
        C_view = ndarray_view(c_seg, out_dtype.str, c_count).reshape(A.nrows, n_cols)
        C_view[:] = 0

        with self._lock:
            self._run_counter += 1
            run_id = f"r{self._run_counter}"
        multi_panel = partition.grid[1] > 1
        # span context crosses the process boundary as a plain pair; the
        # workers record child spans against it and ship them back
        trace_ctx = self._tracer.current_context()
        operands = {
            "b": (b_seg.name, B_arr.dtype.str, B_arr.shape),
            "c": (c_seg.name, out_dtype.str, (A.nrows, n_cols)),
            "multi_panel": multi_panel,
            "trace": tuple(trace_ctx) if trace_ctx is not None else None,
        }
        for worker in session.worker_shards:
            self._task_queue(worker).put(("run", session.sid, run_id, operands))

        shard_reports: Dict[int, dict] = {}
        worker_spans: List[dict] = []
        for msg in self._collect("ran", run_id, expected=len(session.worker_shards)):
            for rep in msg[3]:
                shard_reports[rep["index"]] = rep
            if len(msg) > 4 and msg[4]:
                worker_spans.extend(msg[4])
        if worker_spans:
            self._tracer.ingest(worker_spans)
        wall_ms = 1e3 * (time.perf_counter() - start)

        C = C_view.copy()
        if was_vector:
            C = C.ravel()
        report = self._build_report(partition, entries, shard_reports, wall_ms)
        with self._lock:
            self._shards_executed += len(report.shards)
            for worker, shard_ids in session.worker_shards.items():
                self._per_worker_shards[worker] = self._per_worker_shards.get(
                    worker, 0
                ) + len(shard_ids)
        return C, report

    def _build_report(
        self, partition, entries, shard_reports: Dict[int, dict], wall_ms: float
    ) -> "ShardedReport":
        from ...shard.executor import ShardedReport, _shard_report

        ideal_nnz = (
            partition.A.nnz / len(partition.shards) if partition.shards else 0.0
        )
        reports = []
        for entry in entries:
            rep = shard_reports.get(entry.shard.index)
            if rep is None:  # empty shard: contributed nothing
                reports.append(_shard_report(entry, ideal_nnz, 0.0, 0.0, 0))
            else:
                reports.append(
                    _shard_report(
                        entry,
                        ideal_nnz,
                        float(rep["simulated_ms"]),
                        float(rep["wall_ms"]),
                        int(rep["n_blocks"]),
                    )
                )
        return ShardedReport(
            grid=partition.grid,
            mode=partition.mode,
            imbalance=partition.imbalance,
            shards=reports,
            wall_ms=wall_ms,
            simulated_ms=sum(r.simulated_ms for r in reports),
            critical_path_ms=max((r.simulated_ms for r in reports), default=0.0),
        )

    # -- telemetry -------------------------------------------------------------
    def telemetry(self) -> ExecutorTelemetry:
        """Counters: sticky-placement imbalance, per-worker shard loads,
        live shared-memory bytes and tuning warmup hits."""
        with self._lock:
            placement = self._last_placement
            warmup = sum(s.warmup_hits for s in self._sessions.values())
            return ExecutorTelemetry(
                kind=self.kind,
                workers=len(self._workers),
                sessions=len(self._sessions),
                shards_executed=self._shards_executed,
                per_worker_shards=dict(self._per_worker_shards),
                placement_imbalance=placement.imbalance if placement else 1.0,
                segment_bytes=self._registry.total_bytes,
                warmup_hits=warmup,
            )

    # -- plumbing --------------------------------------------------------------
    def _session_key(self, partition, config) -> tuple:
        from ...core.plan import config_signature, matrix_fingerprint

        return (
            matrix_fingerprint(partition.A),
            partition.grid,
            partition.mode,
            config_signature(config),
            self._tuned,
        )

    def _session_for(self, entries, partition) -> _Session:
        sids = {e.remote.session for e in entries if e.remote is not None}
        if len(sids) != 1:
            raise ValueError("entries span more than one executor session")
        sid = sids.pop()
        with self._lock:
            for session in self._sessions.values():
                if session.sid == sid:
                    return session
        raise RuntimeError(f"unknown executor session {sid!r} (executor restarted?)")

    def _task_queue(self, worker: int):
        return self._workers[worker][1]

    def _operand_segment(self, attr: str, nbytes: int, *, tag: str):
        """The reusable B/C segment, regrown when the operand outgrows it."""
        seg = getattr(self, attr)
        if seg is not None and seg.size >= nbytes:
            return seg
        if seg is not None:
            self._registry.release(seg.name)
        seg = self._registry.create(nbytes, tag=tag)
        setattr(self, attr, seg)
        return seg

    def _collect(self, kind: str, token: str, *, expected: int) -> List[tuple]:
        """Gather ``expected`` worker replies of ``kind`` matching
        ``token``, polling worker liveness so a crashed worker raises
        instead of hanging; worker-side exceptions re-raise here."""
        got: List[tuple] = []
        while len(got) < expected:
            try:
                msg = self._results.get(timeout=_POLL_S)
            except queue_module.Empty:
                self._check_alive()
                continue
            if msg[0] == "error":
                self._broken = f"worker {msg[1]} failed: {msg[2]}"
                raise RuntimeError(f"shard worker {msg[1]} failed:\n{msg[3]}")
            if msg[0] == kind and msg[2] == token:
                got.append(msg)
            # replies for other tokens (an interrupted earlier call) drop
        return got

    def _check_alive(self) -> None:
        for wid, (proc, _) in enumerate(self._workers):
            if not proc.is_alive():
                self._broken = f"worker {wid} died (exit code {proc.exitcode})"
                raise RuntimeError(
                    f"shard worker {wid} died unexpectedly "
                    f"(exit code {proc.exitcode}); the executor is broken -- "
                    f"close it and create a new one"
                )

    def _require_usable(self) -> None:
        if self._closed:
            raise RuntimeError("ProcessShardExecutor is closed")
        if self._broken:
            raise RuntimeError(f"ProcessShardExecutor is broken: {self._broken}")

    def close(self) -> None:
        """Stop the workers and unlink every shared-memory segment.

        Idempotent, and safe after crashes / interrupts: dead workers
        are skipped, live ones get a stop message then a terminate
        escalation, and the segment registry unlinks unconditionally.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for proc, tasks in self._workers:
            if proc.is_alive():
                try:
                    tasks.put(("stop",))
                except (OSError, ValueError):  # pragma: no cover - queue gone
                    pass
        for proc, tasks in self._workers:
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
            tasks.close()
            tasks.cancel_join_thread()
        self._results.close()
        self._results.cancel_join_thread()
        self._b_seg = None
        self._c_seg = None
        self._registry.close()


# -- worker process ------------------------------------------------------------


def _worker_main(
    worker_id: int,
    tasks,
    results,
    gather_locks,
    tuned: bool,
    tuning_cache_path: Optional[str],
) -> None:
    """Entry point of one pool worker.

    Keeps a private plan cache keyed like the engine's (shard
    fingerprint x config signature x tuned); with ``tuned`` the worker
    builds its own :class:`~repro.tuner.Tuner` over the persistent
    tuning-cache *path* at startup, so plan builds resolve searches from
    disk (warmup) instead of re-running them.
    """
    tuner = None
    if tuned:
        from ...tuner import Tuner

        tuner = Tuner(cache=tuning_cache_path if tuning_cache_path else False)
    state = {
        "tuner": tuner,
        "sessions": {},  # sid -> {"segments": [shm], "shards": [(desc, plan)]}
        "plans": {},  # (fingerprint, config signature, tuned) -> plan
        "attached": {},  # operand segment name -> shm handle
    }
    while True:
        msg = tasks.get()
        kind = msg[0]
        if kind == "stop":
            # flush any queued replies, then exit without running
            # interpreter teardown: numpy views over the shared segments
            # are still alive (plans hold them), and SharedMemory.__del__
            # would spray BufferError("exported pointers exist") trying
            # to close under them -- the parent owns unlinking anyway
            results.close()
            results.join_thread()
            os._exit(0)
        try:
            if kind == "load":
                _worker_load(worker_id, state, msg, results)
            elif kind == "run":
                _worker_run(worker_id, state, msg, results, gather_locks)
            else:  # pragma: no cover - protocol error
                raise ValueError(f"unknown message kind {kind!r}")
        except BaseException as exc:  # noqa: B036 - report, then keep serving
            results.put(("error", worker_id, repr(exc), traceback.format_exc()))


def _worker_load(worker_id: int, state: dict, msg: tuple, results) -> None:
    """Attach shard segments, rebuild the CSR views, and build (or reuse)
    each shard's plan from its :class:`~repro.core.plan.PlanSpec`."""
    from ...formats import CSRMatrix
    from ...shard.plan import plan_label

    _, sid, spec, descriptors = msg[:4]
    trace = msg[4] if len(msg) > 4 else None
    tracer = NULL_TRACER
    parent = None
    if trace is not None:
        tracer = state.get("obs_tracer") or Tracer(enabled=True)
        state["obs_tracer"] = tracer
        parent = SpanContext(*trace)
        if state["tuner"] is not None:
            # route the worker tuner's spans into the same trace
            state["tuner"].tracer = tracer
    segments, shards, infos = [], [], []
    cfg_sig = spec.signature()
    for desc in descriptors:
        shm = attach_segment(desc["segment"])
        segments.append(shm)
        (rp_off, rp_dt, rp_n), (c_off, c_dt, c_n), (v_off, v_dt, v_n) = desc["arrays"]
        rowptr = ndarray_view(shm, rp_dt, rp_n, rp_off)
        col = ndarray_view(shm, c_dt, c_n, c_off)
        val = ndarray_view(shm, v_dt, v_n, v_off)
        matrix = CSRMatrix(rowptr, col, val, tuple(desc["shape"]), check=False)
        matrix._fingerprint = desc["fingerprint"]

        plan_key = (desc["fingerprint"], cfg_sig, spec.tuned)
        plan = state["plans"].get(plan_key)
        cached = plan is not None
        warmup_hits = 0
        with tracer.span(
            "shard.worker.build",
            parent=parent,
            worker=worker_id,
            shard=desc["index"],
            plan_cached=cached,
        ) as span:
            start = time.perf_counter()
            if plan is None:
                tuner = state["tuner"]
                before = tuner.cache.stats.hits if tuner is not None and tuner.cache else 0
                plan = spec.build(matrix, tuner=tuner)
                if tuner is not None and tuner.cache is not None:
                    warmup_hits = tuner.cache.stats.hits - before
                state["plans"][plan_key] = plan
            build_ms = 1e3 * (time.perf_counter() - start)
            span.set(backend=plan.report.backend, build_ms=round(build_ms, 3))
        shards.append((desc, plan))
        infos.append(
            {
                "index": desc["index"],
                "backend": plan.report.backend,
                "label": plan_label(plan),
                "blocks": int(plan.report.blocks_after),
                "plan_cached": cached,
                "build_ms": build_ms,
                "warmup_hits": int(warmup_hits),
            }
        )
    state["sessions"][sid] = {"segments": segments, "shards": shards}
    spans = [s.to_dict() for s in tracer.drain()] if trace is not None else []
    results.put(("loaded", worker_id, sid, infos, spans))


def _worker_run(worker_id: int, state: dict, msg: tuple, results, gather_locks) -> None:
    """Execute this worker's shards against the shared B, gather into C."""
    _, sid, run_id, operands = msg
    session = state["sessions"][sid]
    b_name, b_dtype, b_shape = operands["b"]
    c_name, c_dtype, c_shape = operands["c"]
    multi_panel = operands["multi_panel"]
    B_view = _operand_view(state, b_name, b_dtype, b_shape)
    C_view = _operand_view(state, c_name, c_dtype, c_shape)

    # host-side tracing: a live span context rides in with the run message;
    # child spans recorded here travel back as dicts for host-side stitching
    trace = operands.get("trace")
    tracer = NULL_TRACER
    parent = None
    if trace is not None:
        tracer = state.get("obs_tracer") or Tracer(enabled=True)
        state["obs_tracer"] = tracer
        parent = SpanContext(*trace)

    reports = []
    for desc, plan in session["shards"]:
        with tracer.span(
            "shard.worker.run",
            parent=parent,
            worker=worker_id,
            shard=desc["index"],
        ) as span:
            start = time.perf_counter()
            c0, c1 = desc["cols"]
            r0, r1 = desc["rows"]
            C_sub, report = plan.execute(B_view[c0:c1])
            if multi_panel:
                with gather_locks[desc["pos"][0] % len(gather_locks)]:
                    C_view[r0:r1] += C_sub
            else:
                C_view[r0:r1] = C_sub
            wall_ms = 1e3 * (time.perf_counter() - start)
            span.set(backend=plan.report.backend, wall_ms=round(wall_ms, 3))
        reports.append(
            {
                "index": desc["index"],
                "simulated_ms": float(report.simulated_ms),
                "wall_ms": wall_ms,
                "n_blocks": int(report.n_blocks),
            }
        )
    spans = [s.to_dict() for s in tracer.drain()] if trace is not None else []
    results.put(("ran", worker_id, run_id, reports, spans))


def _operand_view(state: dict, name: str, dtype: str, shape) -> np.ndarray:
    """Zero-copy 2-D view over an operand segment (attachments cached;
    stale attachments from a regrown segment are dropped by name)."""
    shm = state["attached"].get(name)
    if shm is None:
        shm = attach_segment(name)
        state["attached"][name] = shm
    count = int(shape[0]) * int(shape[1])
    return ndarray_view(shm, dtype, count).reshape(shape[0], shape[1])
