"""Shared argparse validators and flag groups of the ``repro`` CLI.

Every subcommand used to carry its own copy of the ``--workers`` /
``--batch`` / ``--grid`` definitions, so adding one execution flag meant
editing five parsers.  This module is the single source of those
validators and of the execution flags (``--workers``, ``--grid``,
``--mode``, ``--trace``), and it owns the one mapping from parsed arguments to an
:class:`~repro.core.policy.ExecutionPolicy` -- the CLI's half of the
policy API.

The validators are argparse ``type=`` callables: they raise
:class:`argparse.ArgumentTypeError` with a message naming the constraint,
so ``repro <cmd> --workers 0`` fails at parse time with a usage error
instead of deep inside the engine.
"""

from __future__ import annotations

import argparse
from typing import Optional

from .core.policy import ExecutionPolicy
from .shard.partition import PARTITION_MODES

__all__ = [
    "scale_type",
    "grid_type",
    "damping_type",
    "positive_int",
    "add_workers_arg",
    "add_batch_arg",
    "add_grid_arg",
    "add_shard_mode_arg",
    "add_trace_arg",
    "policy_from_args",
]

#: kernel backends selectable from the command line (``auto`` = tuner pick)
KERNEL_CHOICES = ("smat", "cusparse", "dasp", "magicube", "cublas", "auto")


# -- type= validators ---------------------------------------------------------
def scale_type(text: str) -> float:
    """Argparse type for ``--scale``: a float in (0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid scale value: {text!r}") from None
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"scale must be in (0, 1], got {value!r}")
    return value


def grid_type(text: str) -> str:
    """Argparse type for ``--grid``: validates 'R' / 'RxC' early, keeps
    the string form (the shard API accepts it directly)."""
    from .shard.partition import parse_grid

    try:
        parse_grid(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def damping_type(text: str) -> float:
    """Argparse type for ``--damping``: a float strictly inside (0, 1)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid damping value: {text!r}") from None
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"damping must be in (0, 1), got {value!r}")
    return value


def positive_int(text: str) -> int:
    """Argparse type for counts that must be >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"value must be >= 1, got {value}")
    return value


# -- shared flag groups -------------------------------------------------------
def add_workers_arg(parser: argparse.ArgumentParser, *, default: int = 4) -> None:
    """The ``--workers`` flag (engine pool width, >= 1)."""
    parser.add_argument(
        "--workers",
        type=positive_int,
        default=default,
        help="engine worker pool width (threads serving batches, async jobs and streams)",
    )


def add_batch_arg(parser: argparse.ArgumentParser, *, default: int = 16) -> None:
    """The ``--batch`` flag (operands per engine batch, >= 1)."""
    parser.add_argument(
        "--batch", type=positive_int, default=default, help="operands per batch"
    )


def add_grid_arg(
    parser: argparse.ArgumentParser, *, default: str = "4", help: Optional[str] = None
) -> None:
    """The ``--grid`` flag (shard grid, 'R' or 'RxC')."""
    parser.add_argument(
        "--grid",
        type=grid_type,
        default=default,
        help=help or "shard grid: row panels 'R' or 2D grid 'RxC'",
    )


def add_shard_mode_arg(
    parser: argparse.ArgumentParser, *, help: Optional[str] = None
) -> None:
    """The ``--mode`` flag (shard balancing mode)."""
    parser.add_argument(
        "--mode",
        choices=PARTITION_MODES,
        default="nnz",
        help=help or "shard balancing mode: non-zeros or Eq.1 predicted cost",
    )


def add_trace_arg(parser: argparse.ArgumentParser) -> None:
    """The ``--trace`` flag: write a Chrome trace of the run to a file.

    Passing it turns tracing on (``ObservabilityConfig(tracing=True)``
    rides into the policy via :func:`policy_from_args`); the subcommand
    is responsible for writing the collected spans to the file.
    """
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="record spans and write a Chrome trace-event JSON to FILE "
        "(open with Perfetto / chrome://tracing)",
    )


def policy_from_args(args: argparse.Namespace, **overrides) -> ExecutionPolicy:
    """The :class:`ExecutionPolicy` described by parsed CLI arguments.

    Reads whichever of ``--workers`` / ``--tune`` /
    ``--sharded`` / ``--grid`` / ``--mode`` / ``--trace`` the subcommand
    defined (absent flags keep the policy defaults); ``overrides`` win
    over both.
    """
    from .obs import ObservabilityConfig

    fields = {}
    if getattr(args, "trace", None):
        fields["obs"] = ObservabilityConfig(
            tracing=True, sample_rate=float(getattr(args, "sample_rate", None) or 1.0)
        )
    if getattr(args, "workers", None) is not None:
        fields["max_workers"] = args.workers
    if getattr(args, "tune", None) is not None:
        fields["tune"] = bool(args.tune)
    if getattr(args, "sharded", None) is not None:
        fields["sharded"] = bool(args.sharded)
    if getattr(args, "grid", None) is not None:
        fields["grid"] = args.grid
    if getattr(args, "mode", None) is not None:
        fields["shard_mode"] = args.mode
    fields.update(overrides)
    return ExecutionPolicy(**fields)
