"""Simulated SpMM kernels: SMaT and the paper's comparison targets.

Each kernel executes the SpMM numerically (NumPy) and produces a simulated
A100 execution time through :mod:`repro.gpu`:

* :class:`~repro.kernels.smat.SMaTKernel` -- the paper's BCSR Tensor-Core
  kernel, with the Figure-2 optimisation ladder (naive/B/T/BT/CBT),
* :class:`~repro.kernels.csr_spmm.CusparseCSRKernel` -- cuSPARSE-like CSR
  SpMM on CUDA cores,
* :class:`~repro.kernels.dasp.DASPKernel` -- DASP-like batched SpMV,
* :class:`~repro.kernels.magicube.MagicubeKernel` -- Magicube-like SR-BCRS
  Tensor-Core kernel,
* :class:`~repro.kernels.dense_gemm.CublasDenseKernel` -- cuBLAS-like dense
  GEMM on the densified matrix.

Use :func:`get_kernel` to instantiate by name.
"""

import inspect
from typing import Dict, List, Type

from .base import PRICE_MEMO_SIZE, KernelResult, KernelUnsupportedError, SpMMKernel
from .csr_spmm import CusparseCSRKernel
from .dasp import DASPKernel
from .dense_gemm import CublasDenseKernel
from .magicube import MagicubeKernel
from .smat import SMaTKernel, SMaTVariant

__all__ = [
    "SpMMKernel",
    "KernelResult",
    "KernelUnsupportedError",
    "PRICE_MEMO_SIZE",
    "SMaTKernel",
    "SMaTVariant",
    "CusparseCSRKernel",
    "DASPKernel",
    "MagicubeKernel",
    "CublasDenseKernel",
    "KERNEL_REGISTRY",
    "get_kernel",
    "available_kernels",
    "kernel_info",
]

KERNEL_REGISTRY: Dict[str, Type[SpMMKernel]] = {
    "smat": SMaTKernel,
    "cusparse": CusparseCSRKernel,
    "dasp": DASPKernel,
    "magicube": MagicubeKernel,
    "cublas": CublasDenseKernel,
}


def get_kernel(name: str, *args, **kwargs) -> SpMMKernel:
    """Instantiate a kernel by (case-insensitive) library name.

    Constructor arguments are checked against the kernel's own signature
    *before* instantiation: passing an argument the backend does not
    accept (e.g. SMaT's ``block_shape`` to cuSPARSE) raises a
    :class:`TypeError` naming the backend, instead of an anonymous
    ``__init__`` failure from deep inside the registry.
    """
    key = name.lower()
    if key not in KERNEL_REGISTRY:
        raise ValueError(f"unknown kernel {name!r}; available: {sorted(KERNEL_REGISTRY)}")
    cls = KERNEL_REGISTRY[key]
    try:
        inspect.signature(cls.__init__).bind(None, *args, **kwargs)
    except TypeError as exc:
        raise TypeError(
            f"kernel backend {key!r} ({cls.__name__}) does not accept these "
            f"arguments: {exc}"
        ) from None
    return cls(*args, **kwargs)


def available_kernels() -> list[str]:
    """Names of all registered kernels."""
    return sorted(KERNEL_REGISTRY)


def kernel_info() -> List[dict]:
    """One descriptive row per registered backend (for ``repro kernels``).

    Each row carries the registry key, the display name, the internal
    storage format, whether the backend consumes the block-minimising
    reordering, and a one-line summary of its cost model.
    """
    return [
        {
            "kernel": key,
            "library": cls.name,
            "format": cls.input_format,
            "reordered": cls.wants_reordering,
            "cost_model": cls.cost_notes,
        }
        for key, cls in KERNEL_REGISTRY.items()
    ]
