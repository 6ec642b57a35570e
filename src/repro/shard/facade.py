"""``ShardedSpMM``: the one-matrix facade over the sharded subsystem.

Where :class:`~repro.core.smat.SMaT` binds one matrix to one plan,
``ShardedSpMM`` binds one matrix to a balanced shard grid: partitioning
and per-shard preprocessing run once at construction (through an
:class:`~repro.engine.SpMMEngine` plan cache, so shards are shared with
any other sharded or engine query over the same matrix), and every
:meth:`multiply` computes ``C`` once and prices every prepared shard plan.

Example
-------
>>> import numpy as np
>>> from repro.shard import ShardedSpMM
>>> from repro.matrices import band_matrix
>>> A = band_matrix(1024, 32)
>>> B = np.ones((1024, 8), dtype=np.float32)
>>> with ShardedSpMM(A, grid=4) as sharded:
...     C, report = sharded.multiply(B, return_report=True)
>>> report.n_shards
4
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..core.config import SMaTConfig
from ..core.policy import ExecutionPolicy
from ..engine import SpMMEngine
from ..formats import CSRMatrix
from .partition import PARTITION_MODES, Partition, parse_grid
from .plan import ShardPlanEntry

__all__ = ["ShardedSpMM"]


class ShardedSpMM:
    """Partitioned SpMM: one balanced shard grid, one tuned plan per shard.

    Parameters
    ----------
    A:
        The sparse matrix in CSR format.
    grid:
        Shard grid: an integer (row panels), an ``"RxC"`` string, or a
        ``(rows, cols)`` pair.
    config:
        Base pipeline configuration for every shard plan.
    mode:
        Balancing mode: ``"nnz"`` (greedy prefix-sum split of non-zeros)
        or ``"cost"`` (equalise Eq. 1 predicted shard cost).
    policy:
        :class:`~repro.core.policy.ExecutionPolicy` of the owned engine:
        pool width and tuning.  (``grid`` and ``mode`` passed to
        this class take precedence over ``policy.grid`` and
        ``policy.shard_mode``.)
    tuner:
        A pre-configured :class:`~repro.tuner.Tuner` for the owned
        engine (implies tuning); controls the per-shard search budget
        and candidate space.
    tuning_cache:
        Path (or :class:`~repro.tuner.TuningCache`) of the owned
        engine's persistent tuning cache (implies tuning).
    engine:
        Run through an existing engine (sharing its plan cache and tuner)
        instead of owning a private one.
        Execution knobs then belong to that engine (passing
        ``policy``/``tuner``/``tuning_cache`` here raises).
    n_cols:
        Operand width the ``"cost"`` balancing mode calibrates its Eq. 1
        weights for (irrelevant to ``"nnz"`` mode).
    """

    def __init__(
        self,
        A: CSRMatrix,
        grid=None,
        config: Optional[SMaTConfig] = None,
        *,
        mode: Optional[str] = None,
        policy: Optional[ExecutionPolicy] = None,
        tuner=None,
        tuning_cache=None,
        engine: Optional[SpMMEngine] = None,
        n_cols: int = 8,
    ):
        if not isinstance(A, CSRMatrix):
            raise TypeError("ShardedSpMM expects a repro.formats.CSRMatrix input")
        if mode is not None and mode not in PARTITION_MODES:
            raise ValueError(f"unknown partition mode {mode!r}; use one of {PARTITION_MODES}")
        if engine is not None and (
            policy is not None or tuner is not None or tuning_cache is not None
        ):
            raise ValueError(
                "pass execution/tuning options (policy, tuner, tuning_cache) "
                "to the engine itself when providing one"
            )
        if policy is None:
            policy = ExecutionPolicy()
        self.A = A
        self.grid: Tuple[int, int] = parse_grid(grid if grid is not None else policy.grid)
        self.mode = mode if mode is not None else policy.shard_mode
        self.n_cols = int(n_cols)
        self.config = (config or SMaTConfig()).validate()
        self._owns_engine = engine is None
        if engine is None:
            n_shards = self.grid[0] * self.grid[1]
            engine = SpMMEngine(
                self.config,
                policy=policy,
                # room for every shard plan plus the partition entry
                cache_size=max(8, 2 * n_shards + 1),
                tuner=tuner,
                tuning_cache=tuning_cache,
            )
        self.engine = engine
        self._partition: Optional[Partition] = None
        self._entries: Optional[List[ShardPlanEntry]] = None
        try:
            self.preprocess()
        except BaseException:
            # an owned engine must not outlive a failed init
            self.close()
            raise

    # -- preprocessing --------------------------------------------------------
    def preprocess(self) -> List[ShardPlanEntry]:
        """Partition the matrix and build (or fetch) every shard plan.
        Idempotent; runs once at construction."""
        if self._entries is None:
            self._partition = self.engine.partition_for(
                self.A, self.grid, mode=self.mode, config=self.config, n_cols=self.n_cols
            )
            self._entries = self.engine.shard_plans_for(self._partition, self.config)
        return self._entries

    @property
    def partition(self) -> Partition:
        """The prepared shard partition of ``A``."""
        assert self._partition is not None
        return self._partition

    @property
    def entries(self) -> List[ShardPlanEntry]:
        """One prepared plan entry per shard."""
        assert self._entries is not None
        return self._entries

    @property
    def n_shards(self) -> int:
        """Number of shards in the grid."""
        return self.partition.n_shards

    @property
    def imbalance(self) -> float:
        """nnz imbalance factor of the partition (1.0 = perfect)."""
        return self.partition.imbalance

    # -- execution ------------------------------------------------------------
    def multiply(self, B: np.ndarray, *, return_report: bool = False):
        """Compute ``C = A @ B`` once and price the prepared shard plans,
        one shard after another in the calling thread.

        Returns ``C``, or ``(C, ShardedReport)`` with ``return_report``.
        """
        C, report = self.engine.execute_sharded(self.partition, self.entries, B)
        if not return_report:
            return C
        return C, report

    # -- lifecycle ------------------------------------------------------------
    def close(self) -> None:
        """Shut down the owned engine (a shared engine is left running)."""
        if self._owns_engine:
            self.engine.close()

    def __enter__(self) -> "ShardedSpMM":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ShardedSpMM A={self.A.shape} nnz={self.A.nnz} "
            f"grid={self.grid[0]}x{self.grid[1]} mode={self.mode!r} "
            f"imbalance={self.imbalance:.3f}>"
        )
