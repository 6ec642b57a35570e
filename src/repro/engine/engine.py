"""Batched SpMM execution engine with plan caching.

:class:`SpMMEngine` is the serving layer over the paper's pipeline.  Where
:class:`~repro.core.smat.SMaT` binds one prepared matrix to one object,
the engine

1. **caches plans** -- input matrices are fingerprinted
   (:func:`~repro.core.plan.matrix_fingerprint`) and their prepared
   :class:`~repro.core.plan.ExecutionPlan` (permutation + block counts +
   kernel instance) is kept in a bounded LRU, so repeated queries against the
   same matrix skip preprocessing entirely;
2. **batches work** -- many ``B`` operands per matrix and many matrices
   per call, executed through a thread pool over independent plan runs,
   returning per-item :class:`~repro.core.plan.MultiplyReport`\\ s plus
   aggregate throughput;
3. **exposes an async-friendly queue** -- :meth:`submit` returns a ticket
   immediately and :meth:`result` collects it later, and :meth:`stream`
   pipelines an operand iterator through the pool with a bounded
   in-flight window.

How the engine executes is described by one frozen
:class:`~repro.core.policy.ExecutionPolicy` value -- pool width, tuning,
sharding defaults and telemetry window.  Sharded multiplies run their
shards one after another in the calling thread
(:func:`repro.shard.executor.execute_partition`).

Example
-------
>>> import numpy as np
>>> from repro.engine import ExecutionPolicy, SpMMEngine
>>> from repro.matrices import band_matrix
>>> A = band_matrix(512, 16)
>>> Bs = [np.ones((512, 8), dtype=np.float32) for _ in range(4)]
>>> with SpMMEngine(cache_size=4, policy=ExecutionPolicy(max_workers=2)) as engine:
...     outcome = engine.multiply_many(A, Bs)
>>> len(outcome)
4
>>> outcome.summary.cache.misses  # one preprocessing pass for 4 multiplies
1
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor, TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..core.config import SMaTConfig
from ..core.plan import ExecutionPlan, MultiplyReport, build_with_fallback, plan_key
from ..core.policy import ExecutionPolicy
from ..formats import CSRMatrix
from ..obs import MetricsRegistry, Tracer
from .cache import CacheStats, PlanCache

__all__ = [
    "BatchItem",
    "BatchResult",
    "BatchSummary",
    "BatchOutcome",
    "EngineTelemetry",
    "SpMMEngine",
]


@dataclass
class BatchItem:
    """One unit of batched work: multiply matrix ``A`` by operand ``B``."""

    A: CSRMatrix
    B: np.ndarray
    tag: Optional[object] = None
    config: Optional[SMaTConfig] = None


@dataclass
class BatchResult:
    """Outcome of one batch item, in submission order."""

    index: int
    tag: Optional[object]
    C: np.ndarray
    report: MultiplyReport
    cache_hit: bool
    wall_ms: float


@dataclass
class BatchSummary:
    """Aggregate throughput of one batched call."""

    n_items: int
    wall_ms: float
    simulated_ms: float
    useful_flops: float
    cache: CacheStats = field(default_factory=CacheStats)

    @property
    def items_per_second(self) -> float:
        """Batch items completed per wall-clock second."""
        return 1e3 * self.n_items / self.wall_ms if self.wall_ms > 0 else 0.0

    @property
    def wall_gflops(self) -> float:
        """Aggregate host-side throughput (useful FLOPs / wall time)."""
        return self.useful_flops / (1e6 * self.wall_ms) if self.wall_ms > 0 else 0.0

    @property
    def simulated_gflops(self) -> float:
        """Aggregate device throughput (useful FLOPs / simulated time)."""
        return self.useful_flops / (1e6 * self.simulated_ms) if self.simulated_ms > 0 else 0.0


@dataclass
class BatchOutcome:
    """Per-item results plus the aggregate summary of one batched call."""

    results: List[BatchResult]
    summary: BatchSummary

    def __iter__(self) -> Iterator[BatchResult]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index: int) -> BatchResult:
        return self.results[index]


@dataclass
class EngineTelemetry:
    """Point-in-time operational counters of one engine.

    ``queue_depth`` counts submitted-but-unfinished work (the async
    ticket backlog); the latency percentiles summarise the most recent
    per-item wall times (bounded window, so long-lived engines report
    *current* behaviour, not lifetime averages).  The serving daemon's
    ``/metrics`` endpoint republishes this snapshot.
    """

    completed: int
    queue_depth: int
    mean_ms: float
    p50_ms: float
    p99_ms: float


#: work accepted by :meth:`SpMMEngine.multiply_batch`
WorkItem = Union[BatchItem, Tuple[CSRMatrix, np.ndarray]]


class SpMMEngine:
    """Batched SpMM execution engine with plan caching.

    Parameters
    ----------
    config:
        Default pipeline configuration for every plan the engine builds;
        individual :class:`BatchItem`\\ s may override it.
    policy:
        The :class:`~repro.core.policy.ExecutionPolicy`: pool width,
        tuning, sharding defaults and telemetry window.  Defaults to
        ``ExecutionPolicy()`` (4 thread workers, no tuning).
    cache_size:
        Capacity of the plan LRU (distinct (matrix, config) pairs kept
        prepared).
    tuner:
        A pre-configured :class:`~repro.tuner.Tuner`; implies tuning and
        overrides ``tuning_cache``.  Lets callers control the search
        budget and candidate space.
    tuning_cache:
        Path (or :class:`~repro.tuner.TuningCache`) of the persistent
        tuning cache; ``None`` selects the default on-disk location.
        Engines pointing at the same path share search results -- also
        across processes.  Passing ``tuning_cache`` (like ``tuner``)
        implies tuning.
    """

    def __init__(
        self,
        config: Optional[SMaTConfig] = None,
        *,
        policy: Optional[ExecutionPolicy] = None,
        cache_size: int = 8,
        tuner=None,
        tuning_cache=None,
    ):
        if policy is None:
            policy = ExecutionPolicy()
        self.config = (config or SMaTConfig()).validate()
        self.policy = policy
        self.max_workers = int(policy.max_workers)
        tune_flag = policy.tune
        if tuner is not None or tuning_cache is not None:
            tune_flag = True
        if tune_flag and tuner is None:
            from ..tuner import Tuner

            tuner = Tuner(cache=tuning_cache)
        self.tuner = tuner
        #: the engine's tracer, built from ``policy.obs`` (no-op unless the
        #: policy enables tracing); shared with the tuner and sharded runs
        self.tracer = Tracer.from_config(policy.obs)
        if tuner is not None and getattr(tuner, "tracer", None) is not None:
            if self.tracer.enabled and not tuner.tracer.enabled:
                tuner.tracer = self.tracer
        #: unified metrics: the per-item latency histogram lives here (the
        #: serving daemon renders this registry under ``?format=prometheus``)
        self.metrics = MetricsRegistry()
        self._latency = self.metrics.histogram(
            "repro_engine_item_wall_ms",
            "Wall time of one engine item (plan fetch + execute), ms",
            window=int(policy.latency_window),
        )
        self._cache = PlanCache(cache_size)
        self._executor: Optional[ThreadPoolExecutor] = None
        self._tickets: Dict[int, "Future[BatchResult]"] = {}
        self._ticket_lock = threading.Lock()
        self._next_ticket = 0
        self._closed = False

    # -- plan management ------------------------------------------------------
    def plan_for(self, A: CSRMatrix, config: Optional[SMaTConfig] = None) -> ExecutionPlan:
        """Return the prepared plan for ``(A, config)``, building and
        caching it on first use."""
        plan, _ = self._plan_with_hit(A, config)
        return plan

    def _plan_with_hit(
        self, A: CSRMatrix, config: Optional[SMaTConfig]
    ) -> Tuple[ExecutionPlan, bool]:
        """Fetch-or-build the plan; returns ``(plan, hit)``."""
        cfg = (config or self.config).validate()
        tuned = self.tuner is not None
        if tuned:
            # key on the *requested* configuration and resolve inside the
            # build factory: the plan cache's per-key build lock then also
            # deduplicates concurrent tuning searches for the same matrix
            key: object = (plan_key(A, cfg), "tuned")
        else:
            key = plan_key(A, cfg)
        with self.tracer.span("plan.lookup", kernel=cfg.kernel) as span:
            plan, hit = self._cache.get_or_build(
                key, lambda: self._build_plan(A, cfg, tuned=tuned)
            )
            span.set(cache_hit=hit)
        return plan, hit

    def _build_plan(self, A: CSRMatrix, cfg: SMaTConfig, *, tuned: bool = False) -> ExecutionPlan:
        """Build one plan via :func:`~repro.core.plan.build_with_fallback`:
        an unsupported backend (cuBLAS densification or Magicube
        preprocessing exceeding device memory) falls back to SMaT with the
        failed backend recorded in the plan's ``PreprocessReport``.  The
        fallback plan is cached under the *requested* key, so the
        unsupported backend is not re-attempted on every query."""
        with self.tracer.span("plan.build", tuned=tuned) as span:
            plan = build_with_fallback(
                A, cfg, tuner=self.tuner if tuned else None, tracer=self.tracer
            )
            span.set(
                backend=plan.report.backend,
                fallback_from=plan.report.fallback_from,
            )
            return plan

    @property
    def plan_cache(self) -> PlanCache:
        """The engine's shared plan cache (used by the sharded subsystem
        to key per-shard plans alongside whole-matrix plans)."""
        return self._cache

    @property
    def cache_stats(self) -> CacheStats:
        """Snapshot of the plan cache's hit/miss/eviction counters."""
        return self._cache.stats

    def clear_cache(self) -> None:
        """Drop every cached plan (forces re-preprocessing)."""
        self._cache.clear()

    # -- single-item execution ------------------------------------------------
    def multiply(
        self,
        A: CSRMatrix,
        B: np.ndarray,
        *,
        config: Optional[SMaTConfig] = None,
        return_report: bool = False,
    ):
        """Compute ``C = A @ B`` through the plan cache.

        Drop-in equivalent of :meth:`repro.core.smat.SMaT.multiply`, but
        the prepared state is shared with every other call that uses the
        same matrix and configuration.  With a ``sharded`` policy the
        call routes through :meth:`multiply_sharded` (the report, when
        requested, is then a :class:`~repro.shard.ShardedReport`).
        """
        self._require_open()
        if self.policy.sharded:
            return self.multiply_sharded(A, B, config=config, return_report=return_report)
        with self.tracer.span("engine.multiply") as span:
            plan, hit = self._plan_with_hit(A, config)
            C, report = plan.execute(B)
            span.set(cache_hit=hit, backend=report.backend)
        if not return_report:
            return C
        return C, report

    def _execute_item(self, index: int, item: BatchItem, parent=None) -> BatchResult:
        """Run one batch item, recording its latency and (when tracing) an
        ``engine.execute`` span.  ``parent`` carries the submitting
        thread's span context when the item runs on a pool thread."""
        with self.tracer.span("engine.execute", parent=parent, index=index) as span:
            start = time.perf_counter()
            plan, hit = self._plan_with_hit(item.A, item.config)
            C, report = plan.execute(item.B)
            wall_ms = 1e3 * (time.perf_counter() - start)
            span.set(cache_hit=hit, backend=report.backend, wall_ms=round(wall_ms, 3))
        self._latency.observe(wall_ms)
        return BatchResult(
            index=index, tag=item.tag, C=C, report=report, cache_hit=hit, wall_ms=wall_ms
        )

    def execute_one(
        self,
        A: CSRMatrix,
        B: np.ndarray,
        *,
        tag: Optional[object] = None,
        config: Optional[SMaTConfig] = None,
    ) -> BatchResult:
        """Execute one multiply synchronously and return the full
        :class:`BatchResult` (cache-hit flag + wall time included).

        Like :meth:`multiply`, but with the per-item bookkeeping a
        serving front end needs -- the HTTP daemon
        (:mod:`repro.serve`) reports ``cache_hit`` and ``wall_ms`` per
        request from this.
        """
        self._require_open()
        return self._execute_item(0, BatchItem(A, B, tag=tag, config=config))

    # -- batched execution ----------------------------------------------------
    @staticmethod
    def _as_item(work: WorkItem) -> BatchItem:
        if isinstance(work, BatchItem):
            return work
        A, B = work
        return BatchItem(A, B)

    def multiply_batch(self, work: Sequence[WorkItem]) -> BatchOutcome:
        """Execute a batch of independent SpMM problems through the thread
        pool and return per-item results (in submission order) plus an
        aggregate :class:`BatchSummary`.

        Each element of ``work`` is a :class:`BatchItem` or a plain
        ``(A, B)`` tuple.  Items may mix matrices and configurations
        freely; plans are fetched from (or built into) the shared cache.
        """
        self._require_open()
        items = [self._as_item(w) for w in work]
        start = time.perf_counter()
        with self.tracer.span("engine.multiply_batch", n_items=len(items)):
            if len(items) <= 1 or self.max_workers == 1:
                results = [self._execute_item(i, item) for i, item in enumerate(items)]
            else:
                # pool threads have their own (empty) span stacks: hand them
                # the submitting thread's context so item spans stay linked
                parent = self.tracer.current_context()
                executor = self._ensure_executor()
                futures = [
                    executor.submit(self._execute_item, i, item, parent)
                    for i, item in enumerate(items)
                ]
                results = [f.result() for f in futures]
        wall_ms = 1e3 * (time.perf_counter() - start)
        return BatchOutcome(results=results, summary=self._summarise(results, wall_ms))

    def multiply_many(
        self,
        A: CSRMatrix,
        Bs: Sequence[np.ndarray],
        *,
        config: Optional[SMaTConfig] = None,
    ) -> BatchOutcome:
        """Multiply one matrix by many operands (the serving hot path:
        one preprocessing pass amortised over the whole batch)."""
        return self.multiply_batch(
            [BatchItem(A, B, tag=i, config=config) for i, B in enumerate(Bs)]
        )

    def _summarise(self, results: Sequence[BatchResult], wall_ms: float) -> BatchSummary:
        return BatchSummary(
            n_items=len(results),
            wall_ms=wall_ms,
            simulated_ms=sum(r.report.simulated_ms for r in results),
            useful_flops=sum(r.report.useful_flops for r in results),
            cache=self._cache.stats,
        )

    # -- sharded execution ----------------------------------------------------
    def partition_for(
        self,
        A: CSRMatrix,
        grid,
        *,
        mode: str = "nnz",
        config: Optional[SMaTConfig] = None,
        n_cols: int = 8,
    ):
        """Return the (cached) :class:`~repro.shard.Partition` of ``A``
        for the given grid and balancing mode.

        Partitions live in the plan cache next to the plans built from
        them, so repeated sharded queries skip the O(nnz) panel
        extraction as well as preprocessing.  The cache is grown (never
        shrunk) to hold the partition plus every shard plan at once --
        an undersized LRU would otherwise silently rebuild shards on
        every call.
        """
        from ..core.plan import matrix_fingerprint
        from ..shard.partition import make_partition, parse_grid

        self._require_open()
        cfg = (config or self.config).validate()
        g = parse_grid(grid)
        self._cache.reserve(g[0] * g[1] + 2)
        # n_cols only affects the cost-mode weight scale (the split bounds
        # are invariant to it), so nnz-mode partitions stay shared across
        # operand widths
        key = (
            "shard-partition",
            matrix_fingerprint(A),
            g,
            mode,
            cfg.resolved_block_shape(),
            n_cols if mode == "cost" else None,
        )
        def _build_partition():
            with self.tracer.span("shard.partition", grid=str(g), mode=mode) as span:
                partition = make_partition(A, g, mode=mode, config=cfg, n_cols=n_cols)
                span.set(n_shards=len(partition.shards))
                return partition

        partition, _ = self._cache.get_or_build(key, _build_partition)
        return partition

    def shard_plans_for(self, partition, config: Optional[SMaTConfig] = None):
        """One :class:`~repro.shard.ShardPlanEntry` per shard, built (or
        fetched) through the engine's plan cache.  Per-shard tuning
        applies when the engine tunes."""
        from ..shard.plan import ShardPlanner

        self._require_open()
        cfg = (config or self.config).validate()
        with self.tracer.span("shard.prepare", n_shards=len(partition.shards)):
            return ShardPlanner(self._cache, tuner=self.tuner).plans_for(partition, cfg)

    def execute_sharded(self, partition, entries, B: np.ndarray):
        """Run one sharded multiply in the calling thread: ``C`` once,
        every shard priced; returns ``(C, ShardedReport)``."""
        # looked up per call, like make_partition in partition_for, so a
        # wrapper installed on the module attribute sees every call
        from ..shard.executor import execute_partition

        self._require_open()
        with self.tracer.span("shard.execute", n_shards=len(partition.shards)) as span:
            C, report = execute_partition(partition, entries, B, tracer=self.tracer)
            span.set(wall_ms=round(report.wall_ms, 3))
            return C, report

    def multiply_sharded(
        self,
        A: CSRMatrix,
        B: np.ndarray,
        *,
        grid=None,
        mode: Optional[str] = None,
        config: Optional[SMaTConfig] = None,
        return_report: bool = False,
    ):
        """Compute ``C = A @ B`` through the sharded subsystem.

        ``A`` is split into a balanced shard grid
        (:mod:`repro.shard.partition`), every shard gets its own cached
        (and, when tuning, per-shard tuned) plan that prices its shard on
        the simulated device; ``C`` itself is computed once with ``A``'s
        operator, in the calling thread.  ``grid`` and ``mode``
        default to the policy's ``grid`` / ``shard_mode``.  With
        ``return_report`` the per-shard breakdown
        (:class:`~repro.shard.ShardedReport`) is returned alongside ``C``.
        """
        self._require_open()
        grid = grid if grid is not None else self.policy.grid
        mode = mode if mode is not None else self.policy.shard_mode
        cfg = (config or self.config).validate()
        B_arr = np.asarray(B)
        n_cols = B_arr.shape[1] if B_arr.ndim == 2 else 1
        with self.tracer.span("engine.multiply_sharded", grid=str(grid), mode=mode):
            partition = self.partition_for(A, grid, mode=mode, config=cfg, n_cols=n_cols)
            entries = self.shard_plans_for(partition, cfg)
            C, report = self.execute_sharded(partition, entries, B)
        if not return_report:
            return C
        return C, report

    # -- async queue API ------------------------------------------------------
    def submit(
        self,
        A: CSRMatrix,
        B: np.ndarray,
        *,
        tag: Optional[object] = None,
        config: Optional[SMaTConfig] = None,
    ) -> int:
        """Enqueue one multiply and return a ticket immediately.

        The work starts on the thread pool right away; collect the
        :class:`BatchResult` with :meth:`result`.
        """
        executor = self._ensure_executor()
        item = BatchItem(A, B, tag=tag, config=config)
        parent = self.tracer.current_context()
        with self._ticket_lock:
            ticket = self._next_ticket
            self._next_ticket += 1
            self._tickets[ticket] = executor.submit(
                self._execute_item, ticket, item, parent
            )
        return ticket

    def result(self, ticket: int, timeout: Optional[float] = None) -> BatchResult:
        """Wait for (and consume) the result of a :meth:`submit` ticket."""
        with self._ticket_lock:
            future = self._tickets.pop(ticket, None)
        if future is None:
            raise KeyError(f"unknown or already-collected ticket {ticket!r}")
        try:
            return future.result(timeout=timeout)
        except FuturesTimeoutError:
            with self._ticket_lock:
                self._tickets[ticket] = future  # still pending: allow a retry
            raise

    def pending(self) -> int:
        """Number of submitted tickets not yet collected."""
        with self._ticket_lock:
            return len(self._tickets)

    def queue_depth(self) -> int:
        """Number of submitted tickets whose work has not finished yet
        (the async backlog; collected-or-not does not matter)."""
        with self._ticket_lock:
            return sum(1 for f in self._tickets.values() if not f.done())

    def telemetry(self) -> EngineTelemetry:
        """Operational snapshot: items completed, async queue depth and
        latency percentiles over the recent-latency window."""
        completed = self._latency.count
        if completed:
            mean_ms = self._latency.mean()
            p50_ms = self._latency.percentile(50)
            p99_ms = self._latency.percentile(99)
        else:
            mean_ms = p50_ms = p99_ms = 0.0
        return EngineTelemetry(
            completed=completed,
            queue_depth=self.queue_depth(),
            mean_ms=mean_ms,
            p50_ms=p50_ms,
            p99_ms=p99_ms,
        )

    # -- streaming ------------------------------------------------------------
    def stream(
        self,
        A: CSRMatrix,
        Bs: Iterable[np.ndarray],
        *,
        config: Optional[SMaTConfig] = None,
        window: Optional[int] = None,
    ) -> Iterator[BatchResult]:
        """Pipeline a (possibly unbounded) sequence of operands through the
        engine, yielding results in input order.

        At most ``window`` items (default ``2 * max_workers``) are in
        flight at once, so arbitrarily long operand streams run in
        constant memory.
        """
        executor = self._ensure_executor()
        window = window if window is not None else 2 * self.max_workers
        if window < 1:
            raise ValueError("stream window must be >= 1")
        in_flight: "deque[Future[BatchResult]]" = deque()
        iterator = enumerate(Bs)
        parent = self.tracer.current_context()
        try:
            for index, B in iterator:
                item = BatchItem(A, B, tag=index, config=config)
                in_flight.append(executor.submit(self._execute_item, index, item, parent))
                if len(in_flight) >= window:
                    yield in_flight.popleft().result()
            while in_flight:
                yield in_flight.popleft().result()
        finally:
            for future in in_flight:
                future.cancel()

    # -- lifecycle ------------------------------------------------------------
    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("SpMMEngine is closed")

    def _ensure_executor(self) -> ThreadPoolExecutor:
        self._require_open()
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.max_workers, thread_name_prefix="spmm-engine"
            )
        return self._executor

    def close(self) -> None:
        """Shut down the worker pool (idempotent).  Cached plans survive
        until the engine is garbage collected."""
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "SpMMEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self._cache.stats
        return (
            f"<SpMMEngine workers={self.max_workers} cache={s.size}/{s.maxsize} "
            f"hits={s.hits} misses={s.misses}>"
        )
