"""Unified execution policy for the serving stack.

:class:`ExecutionPolicy` is the one frozen value object that carries the
execution knobs (pool width, tuning, sharded routing, telemetry window,
tracing).  :class:`~repro.engine.SpMMEngine`,
:class:`~repro.shard.ShardedSpMM`, every workload function,
``SpMMServer`` and the CLI subcommands take it as ``policy=``; it is the
only way to set these options.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from ..obs.config import ObservabilityConfig

__all__ = ["ExecutionPolicy"]


@dataclass(frozen=True)
class ExecutionPolicy:
    """How the serving stack executes SpMM work.

    One frozen value accepted uniformly by ``SpMMEngine(policy=...)``,
    ``ShardedSpMM``, the workload functions, ``SpMMServer`` and the CLI
    subcommands.
    """

    #: only ``None`` or ``"thread"``: shards always run in the caller's
    #: thread and the process executor was removed; a later benchmark
    #: change drops it
    executor: Optional[str] = None
    #: engine worker threads behind ``submit``/``stream``/``multiply_batch``
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
        if self.executor not in (None, "thread"):
            raise TypeError(
                "the process executor was removed; executor must be None or "
                f"'thread', got {self.executor!r}"
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

    # kept for existing callers; a later benchmark change drops both
    def resolved_executor(self) -> str:
        """Always ``"thread"``: the only remaining executor."""
        return "thread"

    def resolved_online_tune(self) -> None:
        """Always ``None``: online tuning was removed."""
        return None

    def replace(self, **changes) -> "ExecutionPolicy":
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        return dataclasses.replace(self, **changes)
