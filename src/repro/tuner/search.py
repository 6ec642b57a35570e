"""The tuning search: model-guided pruning + measured candidate runs.

The paper arrives at its configuration (16 x 8 blocks, Jaccard
reordering) through manual ablations -- a block-shape sweep (Section
IV-B) and a reordering study (Section IV-C) -- and its *comparative*
result (which library wins on which matrix, Figures 8-10) through manual
benchmarking.  :class:`Tuner` automates exactly those experiments per
matrix; with ``SMaTConfig(kernel="auto")`` the search space grows a
backend axis, each backend is priced with its own calibrated cost model,
and the persisted winner is the full *(backend, block shape, reordering)*
triple:

1. enumerate the candidate space (:mod:`repro.tuner.space`),
2. price every candidate with the Eq. 1 / Eq. 2 analytical bracket
   (:mod:`repro.tuner.model`) and discard candidates whose *optimistic*
   predicted time is worse than the best *guaranteed* time -- they cannot
   win even with a perfect permutation,
3. measure the survivors with real timed runs (a full
   :class:`~repro.core.plan.ExecutionPlan` build plus an executed
   multiply), and
4. return a :class:`TuningResult` whose winner is the candidate with the
   lowest measured multiply time.

The paper's default configuration is always measured, so the winner is
*never worse than the default* in the selection metric.  Results persist
in a :class:`~repro.tuner.cache.TuningCache`, which is how
``SMaTConfig(reorder="auto")`` and
``SpMMEngine(policy=ExecutionPolicy(tune=True))`` amortise the search
across processes.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.config import SMaTConfig
from ..core.plan import ExecutionPlan, matrix_fingerprint
from ..formats import CSRMatrix
from ..kernels import KernelUnsupportedError
from ..reorder.metrics import count_blocks
from .cache import TuningCache
from .model import CandidateEstimate, estimate_candidate
from .space import DEFAULT_REORDERERS, Candidate, candidate_space

__all__ = [
    "CandidateOutcome",
    "TuningResult",
    "Tuner",
    "tune",
    "resolve_auto_config",
    "tuning_key",
]

#: candidates whose optimistic prediction is within this factor of the
#: best guaranteed time survive pruning (guards against float-edge pruning
#: of model-equivalent candidates)
PRUNE_SLACK = 1.05

#: placeholder estimate for candidates whose backend raised
#: KernelUnsupportedError before it could be priced
_UNSUPPORTED_ESTIMATE = CandidateEstimate(
    blocks_now=0,
    blocks_lower_bound=0,
    guaranteed_s=float("inf"),
    optimistic_s=float("inf"),
)


@dataclass
class CandidateOutcome:
    """One candidate's journey through the search."""

    candidate: Candidate
    estimate: CandidateEstimate
    measured: bool = False
    pruned: bool = False
    #: the candidate's backend raised KernelUnsupportedError (during
    #: calibration or measurement); skipped, never selected
    unsupported: bool = False
    #: the unsupported-kernel error message, when one was raised
    error: Optional[str] = None
    #: measured (simulated device) multiply time -- the selection metric
    simulated_ms: float = float("inf")
    #: host wall-clock of one multiply on the built plan
    wall_ms: float = float("inf")
    #: host wall-clock of the preprocessing (reorder + BCSR build)
    preprocess_ms: float = 0.0
    #: block count of the plan that was actually built
    blocks_after: int = 0
    #: whether the plan kept the permutation (auto_skip_reordering)
    applied: bool = False

    def as_row(self) -> dict:
        """One row of the CLI search table."""
        if self.unsupported:
            status = "unsupported"
        elif self.pruned:
            status = "pruned"
        elif self.measured:
            status = "measured"
        else:
            status = "skipped"
        return {
            "candidate": self.candidate.label,
            "kernel": self.candidate.kernel,
            "predicted_ms": self.estimate.optimistic_ms,
            "blocks": self.blocks_after if self.measured else self.estimate.blocks_now,
            "measured_ms": self.simulated_ms if self.measured else float("nan"),
            "wall_ms": self.wall_ms if self.measured else float("nan"),
            "status": status,
        }


@dataclass
class TuningResult:
    """Outcome of one tuning search."""

    fingerprint: str
    base_config: SMaTConfig
    n_cols: int
    outcomes: List[CandidateOutcome] = field(default_factory=list)
    best: Optional[CandidateOutcome] = None
    default: Optional[CandidateOutcome] = None
    from_cache: bool = False
    search_ms: float = 0.0

    @property
    def best_config(self) -> SMaTConfig:
        """The winning configuration, ready to build plans from."""
        assert self.best is not None, "tuning produced no measured candidate"
        return self.best.candidate.expand(self.base_config)

    @property
    def tuned_vs_default(self) -> float:
        """Speedup of the winner over the paper's default configuration
        (``>= 1.0`` by construction: the default is always measured)."""
        if (
            self.best is None
            or self.default is None
            or not self.default.measured
            or self.best.simulated_ms <= 0
        ):
            return 1.0
        return self.default.simulated_ms / self.best.simulated_ms

    @property
    def n_measured(self) -> int:
        """Candidates given a real timed run."""
        return sum(1 for o in self.outcomes if o.measured)

    @property
    def n_pruned(self) -> int:
        """Candidates rejected by the analytical model without a run."""
        return sum(1 for o in self.outcomes if o.pruned)

    def table(self) -> List[dict]:
        """Search table rows (candidate, predicted, measured, winner)."""
        rows = []
        for outcome in sorted(
            self.outcomes, key=lambda o: (not o.measured, o.simulated_ms)
        ):
            row = outcome.as_row()
            row["winner"] = "*" if outcome is self.best else ""
            rows.append(row)
        return rows

    def cache_entry(self) -> dict:
        """Serialisable record stored in the :class:`TuningCache`."""
        assert self.best is not None
        cand = self.best.candidate
        return {
            "kernel": cand.kernel,
            "block_shape": list(cand.block_shape),
            "reorder": cand.reorder,
            "reorder_columns": cand.reorder_columns,
            "reorder_params": dict(cand.reorder_params),
            "simulated_ms": self.best.simulated_ms,
            "tuned_vs_default": self.tuned_vs_default,
            "n_measured": self.n_measured,
            "n_pruned": self.n_pruned,
            "n_cols": self.n_cols,
            "tuned_at": time.time(),
        }


def _candidate_signature(c: Candidate) -> Tuple:
    return (
        c.kernel,
        c.block_shape,
        c.reorder,
        c.reorder_columns,
        tuple(sorted(c.reorder_params.items())),
    )


def _search_signature(
    config: SMaTConfig,
    n_cols: int,
    space: Sequence[Candidate],
) -> str:
    variant = config.variant if isinstance(config.variant, str) else config.variant.label
    payload = repr(
        (
            config.resolved_kernel(),
            config.resolved_precision().key,
            variant,
            config.arch.name,
            bool(config.auto_skip_reordering),
            int(n_cols),
            tuple(_candidate_signature(c) for c in space),
        )
    )
    return hashlib.blake2b(payload.encode(), digest_size=8).hexdigest()


def tuning_key(A: CSRMatrix, config: SMaTConfig, n_cols: int, space: Sequence[Candidate]) -> str:
    """Cache key of one (matrix, tuning context) pair."""
    return f"{matrix_fingerprint(A)}:{_search_signature(config, n_cols, space)}"


class Tuner:
    """Per-matrix configuration search with model-guided pruning.

    Parameters
    ----------
    cache:
        Persistent result store: a :class:`TuningCache`, a path for one,
        or ``None`` for the default on-disk location.  Pass
        ``cache=False`` to disable persistence entirely.
    n_cols:
        Operand width ``N`` the search optimises for (the paper's serving
        sweet spot, ``N=8``, by default).
    reorderers, block_shapes, include_column_permutation, kernels:
        Candidate space knobs (see :func:`~repro.tuner.space.candidate_space`).
        ``kernels`` overrides the backend menu; by default the menu follows
        the base configuration -- the full registry for
        ``SMaTConfig(kernel="auto")``, a single backend otherwise.
    max_measure:
        Measurement budget: at most this many surviving candidates get a
        real timed run (the rest are skipped, best-predicted first wins a
        slot).  The default configuration always gets a slot.
    repeats:
        Timed executions per measured candidate; the wall-clock is the
        minimum over repeats (the simulated time is deterministic).
    seed:
        Seed of the dense operand used for the measured runs.
    model_scales:
        Per-backend multipliers applied to the Eq. 1 predicted times
        during pruning (``{"smat": 2.0}`` prices every SMaT candidate
        twice as slow).  The online tuner
        (:class:`~repro.tuner.online.OnlineTuner`) recalibrates these
        from live serving telemetry; measured selection is unaffected
        (the winner is still the fastest *measured* candidate), so the
        scales only change which candidates get a timed run.  The dict
        is held by reference: external recalibration is picked up by the
        next search.
    """

    def __init__(
        self,
        *,
        cache=None,
        n_cols: int = 8,
        reorderers: Sequence[str] = DEFAULT_REORDERERS,
        block_shapes: Optional[Sequence[Tuple[int, int]]] = None,
        include_column_permutation: bool = False,
        kernels: Optional[Sequence[str]] = None,
        max_measure: int = 8,
        repeats: int = 1,
        seed: int = 0,
        tracer=None,
        model_scales: Optional[Dict[str, float]] = None,
    ):
        if cache is False:
            self.cache: Optional[TuningCache] = None
        elif isinstance(cache, TuningCache):
            self.cache = cache
        else:
            self.cache = TuningCache(cache)
        if max_measure < 1:
            raise ValueError("max_measure must be >= 1")
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        self.n_cols = int(n_cols)
        self.reorderers = tuple(reorderers)
        self.block_shapes = tuple(tuple(s) for s in block_shapes) if block_shapes else None
        self.include_column_permutation = bool(include_column_permutation)
        self.kernels = tuple(k.lower() for k in kernels) if kernels else None
        self.max_measure = int(max_measure)
        self.repeats = int(repeats)
        self.seed = int(seed)
        #: per-backend Eq. 1 price multipliers (shared by reference with
        #: the online tuner's recalibration loop)
        self.model_scales: Dict[str, float] = (
            dict(model_scales) if model_scales is not None else {}
        )
        #: called with every completed :class:`TuningResult` (the online
        #: tuner uses this to learn near-winner configs for exploration)
        self.result_observer: Optional[Callable[[TuningResult], None]] = None
        # the engine shares its tracer after construction; a bare tuner
        # stays on the disabled (no-op) one
        from ..obs.trace import NULL_TRACER

        self.tracer = tracer if tracer is not None else NULL_TRACER

    # -- space ----------------------------------------------------------------
    def _space(self, config: SMaTConfig) -> List[Candidate]:
        """The searched candidate space, always containing the default."""
        space = candidate_space(
            config,
            block_shapes=self.block_shapes,
            reorderers=self.reorderers,
            include_column_permutation=self.include_column_permutation,
            kernels=self.kernels,
        )
        default = self._default_candidate(config)
        if default not in space:
            space.insert(0, default)
        return space

    def key_for(self, A: CSRMatrix, config: Optional[SMaTConfig] = None) -> str:
        """Persistent-cache key of one (matrix, tuning context) pair."""
        base = (config or SMaTConfig()).validate()
        return tuning_key(A, base, self.n_cols, self._space(base))

    @staticmethod
    def _default_candidate(config: SMaTConfig) -> Candidate:
        """The never-lose anchor the search always measures.

        For ``kernel="auto"`` (and of course ``"smat"``) this is the
        paper's default configuration -- SMaT with the MMA-matched block
        shape and Jaccard row reordering -- so a backend search can never
        select something worse than fixed-SMaT.  A concrete baseline
        backend anchors on itself (block shape and reordering are inert
        there)."""
        kernel = config.resolved_kernel()
        if kernel in ("auto", "smat"):
            reorder = config.reorder.lower()
            if reorder in ("auto", ""):
                reorder = "jaccard"
            return Candidate(
                block_shape=config.resolved_precision().block_shape,
                reorder=reorder,
                kernel="smat",
            )
        return Candidate(
            block_shape=config.resolved_precision().block_shape,
            reorder="identity",
            kernel=kernel,
        )

    # -- search ---------------------------------------------------------------
    def tune(
        self,
        A: CSRMatrix,
        config: Optional[SMaTConfig] = None,
        *,
        store: bool = False,
    ) -> TuningResult:
        """Run the full search for ``A``, ignoring any cached result.

        With ``store`` the winner is persisted to the tuner's cache (when
        one is configured); see :meth:`resolve` for the read-through
        entry point.
        """
        with self.tracer.span("tuner.search") as span:
            result = self._tune(A, config, store=store)
            span.set(
                candidates=len(result.outcomes),
                measured=sum(1 for o in result.outcomes if o.measured),
                pruned=sum(1 for o in result.outcomes if o.pruned),
                winner=result.best.candidate.label,
                search_ms=round(result.search_ms, 2),
            )
        if self.result_observer is not None:
            self.result_observer(result)
        return result

    def _tune(
        self,
        A: CSRMatrix,
        config: Optional[SMaTConfig] = None,
        *,
        store: bool = False,
    ) -> TuningResult:
        """The search body behind :meth:`tune` (span-free)."""
        base = (config or SMaTConfig()).validate()
        space = self._space(base)
        default = self._default_candidate(base)

        start = time.perf_counter()
        # one O(nnz) block-count pass per distinct SMaT shape, shared by
        # every candidate using it (non-SMaT backends price their own
        # work measure inside estimate_candidate)
        block_counts = {
            shape: count_blocks(A, shape)
            for shape in {c.block_shape for c in space if c.kernel == "smat"}
        }
        outcomes = []
        for cand in space:
            try:
                estimate = estimate_candidate(
                    A,
                    base,
                    cand.block_shape,
                    reorders=cand.reorder not in ("identity", "none"),
                    n_cols=self.n_cols,
                    blocks_now=block_counts.get(cand.block_shape),
                    kernel=cand.kernel,
                )
                scale = self.model_scales.get(cand.kernel, 1.0)
                if scale != 1.0:
                    estimate = CandidateEstimate(
                        blocks_now=estimate.blocks_now,
                        blocks_lower_bound=estimate.blocks_lower_bound,
                        guaranteed_s=estimate.guaranteed_s * scale,
                        optimistic_s=estimate.optimistic_s * scale,
                    )
                outcomes.append(CandidateOutcome(candidate=cand, estimate=estimate))
            except KernelUnsupportedError as exc:
                # the backend cannot even run the calibration samples:
                # keep the candidate in the table, but never measure it
                outcomes.append(
                    CandidateOutcome(
                        candidate=cand,
                        estimate=_UNSUPPORTED_ESTIMATE,
                        unsupported=True,
                        error=str(exc),
                    )
                )

        # prune: a candidate whose *optimistic* time cannot beat the best
        # *guaranteed* time of the space can never win
        supported = [o for o in outcomes if not o.unsupported]
        viable = []
        if supported:
            best_guaranteed = min(o.estimate.guaranteed_s for o in supported)
            for outcome in supported:
                if outcome.estimate.optimistic_s <= best_guaranteed * PRUNE_SLACK:
                    viable.append(outcome)
                else:
                    outcome.pruned = True

        # measurement budget: the default anchor first (it must always be
        # measured), then best-predicted candidates until max_measure
        # *successful* measurements -- a candidate that turns out
        # unsupported at build time frees its slot for the next-best one
        viable.sort(key=lambda o: o.estimate.optimistic_s)
        rng = np.random.default_rng(self.seed)
        B = rng.normal(size=(A.ncols, self.n_cols)).astype(np.float32)
        default_outcome = next(o for o in outcomes if o.candidate == default)
        measured_count = 0
        if not default_outcome.unsupported:
            self._measure(A, base, default_outcome, B)
            measured_count += int(default_outcome.measured)
        for outcome in viable:
            if outcome is default_outcome:
                continue
            if measured_count >= self.max_measure:
                break
            self._measure(A, base, outcome, B)
            measured_count += int(outcome.measured)

        if measured_count < self.max_measure and any(o.unsupported for o in viable):
            # a candidate the model admitted turned out unsupported at
            # build time -- its (invalid) prediction may also have pruned
            # genuinely viable candidates, so refill the freed budget
            # from the pruned pool, best-predicted first
            for outcome in sorted(
                (o for o in outcomes if o.pruned and not o.unsupported),
                key=lambda o: o.estimate.optimistic_s,
            ):
                if measured_count >= self.max_measure:
                    break
                self._measure(A, base, outcome, B)
                measured_count += int(outcome.measured)

        measured = [o for o in outcomes if o.measured]
        if not measured:
            # every candidate's backend refused the matrix (possible only
            # when the menu was pinned to unsupported backends); surface
            # it as the kernel error so the engine's fallback engages
            errors = "; ".join(
                f"{o.candidate.label}: {o.error}" for o in outcomes if o.unsupported
            )
            raise KernelUnsupportedError(
                f"no tuning candidate could run on this matrix ({errors})"
            )
        # select by measured device time; prefer the default on exact ties
        best = min(
            measured,
            key=lambda o: (o.simulated_ms, o is not default_outcome, o.wall_ms),
        )
        result = TuningResult(
            fingerprint=matrix_fingerprint(A),
            base_config=base,
            n_cols=self.n_cols,
            outcomes=outcomes,
            best=best,
            default=default_outcome,
            search_ms=1e3 * (time.perf_counter() - start),
        )
        if store and self.cache is not None:
            self.cache.put(tuning_key(A, base, self.n_cols, space), result.cache_entry())
        return result

    def _measure(
        self,
        A: CSRMatrix,
        base: SMaTConfig,
        outcome: CandidateOutcome,
        B: np.ndarray,
    ) -> None:
        cfg = outcome.candidate.expand(base)
        start = time.perf_counter()
        try:
            plan = ExecutionPlan.build(A, cfg)
        except KernelUnsupportedError as exc:
            # the backend refuses *this* matrix (e.g. Magicube's memory
            # gate): skip the candidate instead of crashing the search
            outcome.unsupported = True
            outcome.error = str(exc)
            outcome.pruned = False
            return
        outcome.preprocess_ms = 1e3 * (time.perf_counter() - start)
        wall = float("inf")
        simulated = float("inf")
        for _ in range(self.repeats):
            t0 = time.perf_counter()
            _, report = plan.execute(B)
            wall = min(wall, 1e3 * (time.perf_counter() - t0))
            simulated = min(simulated, report.simulated_ms)
        outcome.simulated_ms = simulated
        outcome.wall_ms = wall
        outcome.blocks_after = plan.report.blocks_after
        outcome.applied = plan.report.applied
        outcome.measured = True
        outcome.pruned = False

    # -- cached entry point ---------------------------------------------------
    def resolve(self, A: CSRMatrix, config: Optional[SMaTConfig] = None) -> SMaTConfig:
        """Return the tuned configuration for ``A``, searching at most once.

        On a cache hit the stored winner is rebuilt without any search;
        on a miss the search runs and its winner is persisted.
        """
        base = (config or SMaTConfig()).validate()
        if self.cache is not None:
            entry = self.cache.get(self.key_for(A, base))
            if entry is not None:
                with self.tracer.span("tuner.resolve", cache_hit=True):
                    cand = Candidate(
                        block_shape=(
                            int(entry["block_shape"][0]),
                            int(entry["block_shape"][1]),
                        ),
                        reorder=str(entry["reorder"]),
                        reorder_columns=bool(entry.get("reorder_columns", False)),
                        reorder_params=dict(entry.get("reorder_params", {})),
                        kernel=str(entry.get("kernel", "smat")),
                    )
                    return cand.expand(base)
        with self.tracer.span("tuner.resolve", cache_hit=False):
            return self.tune(A, base, store=True).best_config


def tune(A: CSRMatrix, config: Optional[SMaTConfig] = None, **tuner_kwargs) -> TuningResult:
    """Convenience wrapper: run one tuning search with default settings."""
    return Tuner(cache=False, **tuner_kwargs).tune(A, config)


def resolve_auto_config(
    A: CSRMatrix, config: SMaTConfig, *, cache=None
) -> SMaTConfig:
    """Resolve ``SMaTConfig(reorder="auto")`` to a concrete tuned
    configuration (used by :meth:`repro.core.plan.ExecutionPlan.build`).

    The persistent tuning cache makes this cheap after the first sight of
    a matrix; the search itself runs with the default small budget.
    """
    return Tuner(cache=cache).resolve(A, config)
