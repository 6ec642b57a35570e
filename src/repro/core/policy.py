"""Unified execution policy for the serving stack.

:class:`ExecutionPolicy` is the one frozen value object that carries the
execution knobs (pool width, tuning, sharded routing, telemetry window,
tracing) and which *executor* runs sharded work -- the in-process thread
pool (``"thread"``) or the GIL-escaping shared-memory process pool
(``"process"``).  :class:`~repro.engine.SpMMEngine`,
:class:`~repro.shard.ShardedSpMM`, every workload function,
``SpMMServer`` and the CLI subcommands take it as ``policy=``; it is the
only way to set these options.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from ..obs.config import ObservabilityConfig

__all__ = [
    "EXECUTOR_KINDS",
    "ExecutionPolicy",
    "default_executor",
]

#: executors selectable via ``ExecutionPolicy(executor=...)`` / ``--executor``
EXECUTOR_KINDS = ("thread", "process")

#: environment variable that picks the executor when the policy leaves it
#: ``None`` (the hook the CI process-mode job variant uses)
EXECUTOR_ENV = "REPRO_EXECUTOR"


def default_executor() -> str:
    """Executor used when a policy does not name one.

    Resolves ``$REPRO_EXECUTOR`` at call time (not at policy
    construction), so one policy value behaves identically across
    environments and the CI job variant can flip a whole test suite to
    the process pool without touching code.
    """
    kind = os.environ.get(EXECUTOR_ENV, "").strip() or "thread"
    if kind not in EXECUTOR_KINDS:
        raise ValueError(
            f"${EXECUTOR_ENV} must be one of {EXECUTOR_KINDS}, got {kind!r}"
        )
    return kind


@dataclass(frozen=True)
class ExecutionPolicy:
    """How the serving stack executes SpMM work.

    One frozen value accepted uniformly by ``SpMMEngine(policy=...)``,
    ``ShardedSpMM``, the workload functions, ``SpMMServer`` and the CLI
    subcommands.
    """

    #: ``"thread"``, ``"process"``, or ``None`` = resolve from
    #: ``$REPRO_EXECUTOR`` (default ``"thread"``) at use time
    executor: Optional[str] = None
    #: pool width -- engine worker threads, or process-pool workers
    max_workers: int = 4
    #: build plans through the auto-tuner (persistent tuning cache)
    tune: bool = False
    #: route ``multiply`` / workload SpMMs through the sharded subsystem
    sharded: bool = False
    #: shard grid: row panels ``"R"``/int or 2D grid ``"RxC"``/tuple
    grid: Union[int, str, Tuple[int, int]] = 4
    #: shard balancing mode: ``"nnz"`` or ``"cost"`` (Eq. 1 predicted cost)
    shard_mode: str = "nnz"
    #: latency samples kept for the telemetry percentiles
    latency_window: int = 1024
    #: tracing/metrics switches (``None`` = tracing off, no-op fast path);
    #: see :class:`repro.obs.ObservabilityConfig`
    obs: Optional[ObservabilityConfig] = None
    #: only ``None``: online tuning was removed; a later benchmark change drops it
    online_tune: None = None

    def __post_init__(self) -> None:
        if self.executor is not None and self.executor not in EXECUTOR_KINDS:
            raise ValueError(
                f"executor must be one of {EXECUTOR_KINDS} or None, got {self.executor!r}"
            )
        if int(self.max_workers) < 1:
            raise ValueError(f"max_workers must be >= 1, got {self.max_workers!r}")
        # imported here: the shard package imports this module
        from ..shard.partition import PARTITION_MODES, parse_grid

        parse_grid(self.grid)
        if self.shard_mode not in PARTITION_MODES:
            raise ValueError(
                f"shard_mode must be one of {PARTITION_MODES}, got {self.shard_mode!r}"
            )
        if int(self.latency_window) < 1:
            raise ValueError(
                f"latency_window must be >= 1, got {self.latency_window!r}"
            )
        if self.obs is not None and not isinstance(self.obs, ObservabilityConfig):
            raise TypeError(
                f"obs must be an ObservabilityConfig or None, got {self.obs!r}"
            )
        if self.online_tune is not None:
            raise TypeError(
                f"online tuning was removed; online_tune must be None, got {self.online_tune!r}"
            )

    def resolved_executor(self) -> str:
        """The concrete executor kind: :attr:`executor` or the
        ``$REPRO_EXECUTOR`` / ``"thread"`` default."""
        return self.executor if self.executor is not None else default_executor()

    # kept for existing callers; a later benchmark change drops it
    def resolved_online_tune(self) -> None:
        """Always ``None``: online tuning was removed."""
        return None

    def replace(self, **changes) -> "ExecutionPolicy":
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        return dataclasses.replace(self, **changes)
