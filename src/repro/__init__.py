"""repro -- a Python reproduction of SMaT (SC'24).

SMaT ("High Performance Unstructured SpMM Computation Using Tensor Cores",
Okanovic et al., SC 2024) is an SpMM library that runs unstructured sparse
matrices on NVIDIA Tensor Cores via a BCSR blocking, a block-minimising
row permutation, and a low-level MMA kernel.  This package reproduces the
full system in Python: the storage formats, the reordering algorithms, the
kernel (and every baseline the paper compares against) on an analytical
A100 performance simulator, and the complete benchmark harness for every
table and figure of the evaluation.

Quick start
-----------
>>> import numpy as np
>>> from repro import SMaT, SMaTConfig
>>> from repro.matrices import band_matrix
>>> A = band_matrix(2048, 32)
>>> smat = SMaT(A, SMaTConfig(reorder="jaccard"))
>>> B = np.ones((2048, 8), dtype=np.float32)
>>> C, report = smat.multiply(B, return_report=True)
>>> C.shape
(2048, 8)
"""

from . import (
    analysis,
    core,
    engine,
    formats,
    gpu,
    kernels,
    matrices,
    reorder,
    serve,
    shard,
    tuner,
    workloads,
)
from .core import (
    DEFAULT_LIBRARIES,
    ExecutionPlan,
    ExecutionPolicy,
    LibraryMeasurement,
    LinearPerformanceModel,
    MultiplyReport,
    PreprocessReport,
    SMaT,
    SMaTConfig,
    compare_libraries,
)
from .engine import SpMMEngine
from .serve import SpMMClient, SpMMServer
from .formats import BCSRMatrix, COOMatrix, CSCMatrix, CSRMatrix, DenseMatrix, SRBCRSMatrix
from .shard import ShardedSpMM
from .tuner import Tuner, TuningCache, TuningResult
from .workloads import WorkloadReport
from .gpu import A100_SXM4_40GB, GPUArchitecture, Precision
from .kernels import (
    CublasDenseKernel,
    CusparseCSRKernel,
    DASPKernel,
    KernelResult,
    MagicubeKernel,
    SMaTKernel,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "SMaT",
    "SMaTConfig",
    "ExecutionPolicy",
    "SpMMEngine",
    "SpMMServer",
    "SpMMClient",
    "ShardedSpMM",
    "Tuner",
    "TuningResult",
    "TuningCache",
    "WorkloadReport",
    "ExecutionPlan",
    "PreprocessReport",
    "MultiplyReport",
    "LinearPerformanceModel",
    "compare_libraries",
    "LibraryMeasurement",
    "DEFAULT_LIBRARIES",
    "CSRMatrix",
    "CSCMatrix",
    "COOMatrix",
    "BCSRMatrix",
    "SRBCRSMatrix",
    "DenseMatrix",
    "SMaTKernel",
    "CusparseCSRKernel",
    "DASPKernel",
    "MagicubeKernel",
    "CublasDenseKernel",
    "KernelResult",
    "GPUArchitecture",
    "A100_SXM4_40GB",
    "Precision",
    "formats",
    "matrices",
    "reorder",
    "gpu",
    "kernels",
    "core",
    "engine",
    "serve",
    "shard",
    "tuner",
    "workloads",
    "analysis",
]
