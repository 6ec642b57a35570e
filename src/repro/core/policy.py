"""Unified execution policy for the serving stack.

:class:`ExecutionPolicy` is the one frozen value object that carries the
execution knobs (pool width, tuning, sharded routing, telemetry window,
tracing, online tuning) and which *executor* runs sharded work -- the
in-process thread pool (``"thread"``) or the GIL-escaping shared-memory
process pool (``"process"``).  :class:`~repro.engine.SpMMEngine`,
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
    "OnlineTuningConfig",
    "default_executor",
    "default_online_tune",
]

#: executors selectable via ``ExecutionPolicy(executor=...)`` / ``--executor``
EXECUTOR_KINDS = ("thread", "process")

#: environment variable that picks the executor when the policy leaves it
#: ``None`` (the hook the CI process-mode job variant uses)
EXECUTOR_ENV = "REPRO_EXECUTOR"

#: environment variable that enables online tuning when the policy leaves
#: ``online_tune`` as ``None`` (the hook the CI online-mode job uses)
ONLINE_TUNE_ENV = "REPRO_ONLINE_TUNE"

_ENV_FALSE = ("", "0", "false", "off", "no")
_ENV_TRUE = ("1", "true", "on", "yes")


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
class OnlineTuningConfig:
    """Switches for the online, self-correcting tuner.

    A frozen, hashable, picklable value object (like
    :class:`~repro.obs.ObservabilityConfig`) that rides on
    :class:`ExecutionPolicy` as ``online_tune``.  Online tuning is **off
    by default**: a policy without it keeps the engine's hot path on a
    single ``is None`` check, and the background worker thread is only
    started once an enabled engine actually executes work.

    Attributes:
        drift_threshold: per-backend drift (geometric mean of
            observed/predicted time over the recent window) beyond which
            the cost model is recalibrated and a background re-tune is
            scheduled.  Symmetric: drift above ``t`` or below ``1/t``
            triggers.  Must be > 1.  The default (2.5) sits above the
            intrinsic extrapolation error of the Eq. 1 fit on matrices
            far from the calibration bands (up to ~2x), so only genuine
            mis-calibration trips it.
        min_samples: observations a backend needs in its drift window
            before the threshold is armed (guards against recalibrating
            off one noisy sample).
        window: drift observations retained per backend (bounded deque);
            must be >= ``min_samples``.
        explore: fraction of served (tuned) traffic routed to near-winner
            configurations, in ``[0, 1)``.  ``0.0`` (default) disables
            exploration; the stride is deterministic, not RNG-driven.
        near_margin: a measured candidate within this factor of the
            winner's time counts as a near-winner eligible for
            exploration.  Must be >= 1.
        max_keys: bound on tracked (matrix, config) keys; beyond it new
            keys are observed for metrics but not re-tuned.
        max_pending: bound on the hot-path observation queue; the worker
            drains it, excess observations are dropped oldest-first.
    """

    drift_threshold: float = 2.5
    min_samples: int = 32
    window: int = 128
    explore: float = 0.0
    near_margin: float = 1.5
    max_keys: int = 256
    max_pending: int = 4096

    def __post_init__(self) -> None:
        """Validate field ranges at construction time."""
        if not float(self.drift_threshold) > 1.0:
            raise ValueError(
                f"drift_threshold must be > 1, got {self.drift_threshold!r}"
            )
        if int(self.min_samples) < 1:
            raise ValueError(f"min_samples must be >= 1, got {self.min_samples!r}")
        if int(self.window) < int(self.min_samples):
            raise ValueError(
                f"window must be >= min_samples, got {self.window!r} < "
                f"{self.min_samples!r}"
            )
        if not (0.0 <= float(self.explore) < 1.0):
            raise ValueError(f"explore must be in [0, 1), got {self.explore!r}")
        if float(self.near_margin) < 1.0:
            raise ValueError(f"near_margin must be >= 1, got {self.near_margin!r}")
        if int(self.max_keys) < 1:
            raise ValueError(f"max_keys must be >= 1, got {self.max_keys!r}")
        if int(self.max_pending) < 1:
            raise ValueError(f"max_pending must be >= 1, got {self.max_pending!r}")


def default_online_tune() -> Optional[OnlineTuningConfig]:
    """Online-tuning config used when a policy does not carry one.

    Resolves ``$REPRO_ONLINE_TUNE`` at call time (not at policy
    construction), mirroring :func:`default_executor`: truthy values
    (``1``/``true``/``on``/``yes``) enable a default
    :class:`OnlineTuningConfig`, unset or falsy values keep online
    tuning off, anything else raises.
    """
    raw = os.environ.get(ONLINE_TUNE_ENV, "").strip().lower()
    if raw in _ENV_FALSE:
        return None
    if raw in _ENV_TRUE:
        return OnlineTuningConfig()
    raise ValueError(
        f"${ONLINE_TUNE_ENV} must be one of {_ENV_TRUE + _ENV_FALSE}, got {raw!r}"
    )


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
    #: online self-correcting tuner switches (``None`` = off unless
    #: ``$REPRO_ONLINE_TUNE`` enables the default config at use time);
    #: see :class:`OnlineTuningConfig`
    online_tune: Optional[OnlineTuningConfig] = None

    def __post_init__(self) -> None:
        if self.executor is not None and self.executor not in EXECUTOR_KINDS:
            raise ValueError(
                f"executor must be one of {EXECUTOR_KINDS} or None, got {self.executor!r}"
            )
        if int(self.max_workers) < 1:
            raise ValueError(f"max_workers must be >= 1, got {self.max_workers!r}")
        # imported here: the shard package imports this module
        from ..shard.partition import PARTITION_MODES

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
        if self.online_tune is not None and not isinstance(
            self.online_tune, OnlineTuningConfig
        ):
            raise TypeError(
                f"online_tune must be an OnlineTuningConfig or None, "
                f"got {self.online_tune!r}"
            )

    def resolved_executor(self) -> str:
        """The concrete executor kind: :attr:`executor` or the
        ``$REPRO_EXECUTOR`` / ``"thread"`` default."""
        return self.executor if self.executor is not None else default_executor()

    def resolved_online_tune(self) -> Optional[OnlineTuningConfig]:
        """The effective online-tuning config: :attr:`online_tune` or the
        ``$REPRO_ONLINE_TUNE`` default (``None`` = off)."""
        return (
            self.online_tune
            if self.online_tune is not None
            else default_online_tune()
        )

    def replace(self, **changes) -> "ExecutionPolicy":
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        return dataclasses.replace(self, **changes)
