"""Numeric precisions and their Tensor-Core MMA instruction shapes.

The paper's kernel runs FP16 with the ``mma.sync.aligned.m16n8k16``
instruction (Listing 1) and states that the BCSR block dimensions match
the MMA dimensions -- block size ``16 x 8`` for FP16 (Section IV-B).
Other precisions supported by the MMA hardware map to different shapes;
SMaT "works with all data types supported by the MMA hardware units", so
the reproduction models them all.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Tuple

import numpy as np

__all__ = ["Precision", "MMAShape", "get_precision"]


@dataclass(frozen=True)
class MMAShape:
    """One warp-level ``mma.sync`` instruction shape ``m x n x k``."""

    m: int
    n: int
    k: int

    @property
    def flops(self) -> int:
        """Multiply-add FLOPs performed by one instruction (2 * m * n * k)."""
        return 2 * self.m * self.n * self.k

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"m{self.m}n{self.n}k{self.k}"


class Precision(Enum):
    """Value precisions supported by the (simulated) Tensor Cores.

    Each member carries the element size in bytes, the warp-level MMA
    shape used for it on Ampere, the default BCSR block shape (the
    ``h x w`` of the paper: the output-rows x output-cols tile each warp
    owns), and the numpy dtype used for CPU-side numerics.
    """

    FP16 = ("fp16", 2, MMAShape(16, 8, 16), (16, 8), np.float16)
    BF16 = ("bf16", 2, MMAShape(16, 8, 16), (16, 8), np.float32)
    TF32 = ("tf32", 4, MMAShape(16, 8, 8), (16, 8), np.float32)
    FP64 = ("fp64", 8, MMAShape(8, 8, 4), (8, 8), np.float64)
    INT8 = ("int8", 1, MMAShape(16, 8, 32), (16, 8), np.int8)

    def __init__(self, key, itemsize, mma_shape, block_shape, np_dtype):
        self.key = key
        self.itemsize = int(itemsize)
        self.mma_shape: MMAShape = mma_shape
        self.block_shape: Tuple[int, int] = block_shape
        self.np_dtype = np_dtype

    # -- helpers -------------------------------------------------------------
    def mma_count_for_block(self, block_shape: Tuple[int, int], n_cols: int) -> int:
        """Number of MMA instructions needed to apply one stored BCSR block
        of ``block_shape`` against ``n_cols`` columns of ``B``.

        One MMA covers an ``m x k`` fragment of ``A`` and ``k x n`` of
        ``B``.  The block contributes ``ceil(h/m) * ceil(w/k)`` fragments,
        each applied to ``ceil(n_cols/n)`` column tiles (with the final
        partial tile padded -- exactly what the CUDA kernel does).
        """
        h, w = block_shape
        m, n, k = self.mma_shape.m, self.mma_shape.n, self.mma_shape.k
        frag = -(-h // m) * -(-w // k)
        return frag * -(-max(1, n_cols) // n)

    def tc_peak_tflops(self, arch) -> float:
        """Device peak Tensor-Core throughput for this precision."""
        return arch.peak_tflops(self.key)


_ALIASES = {
    "fp16": Precision.FP16,
    "half": Precision.FP16,
    "float16": Precision.FP16,
    "bf16": Precision.BF16,
    "bfloat16": Precision.BF16,
    "tf32": Precision.TF32,
    "fp64": Precision.FP64,
    "double": Precision.FP64,
    "float64": Precision.FP64,
    "int8": Precision.INT8,
}


def get_precision(name) -> Precision:
    """Resolve a precision from a name string or pass through an existing
    :class:`Precision`."""
    if isinstance(name, Precision):
        return name
    key = str(name).lower()
    if key not in _ALIASES:
        raise ValueError(f"unknown precision {name!r}; known: {sorted(set(_ALIASES))}")
    return _ALIASES[key]
