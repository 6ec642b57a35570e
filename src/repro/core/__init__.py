"""SMaT's core: configuration, end-to-end pipeline, performance model and
library comparison harness."""

from .comparison import DEFAULT_LIBRARIES, LibraryMeasurement, compare_libraries
from .config import SMaTConfig
from .policy import ExecutionPolicy
from .perfmodel import FitResult, LinearPerformanceModel, block_count_bounds
from .plan import ExecutionPlan, config_signature, matrix_fingerprint, plan_key
from .smat import MultiplyReport, PreprocessReport, SMaT

__all__ = [
    "SMaT",
    "SMaTConfig",
    "ExecutionPolicy",
    "ExecutionPlan",
    "PreprocessReport",
    "MultiplyReport",
    "matrix_fingerprint",
    "config_signature",
    "plan_key",
    "LinearPerformanceModel",
    "FitResult",
    "block_count_bounds",
    "compare_libraries",
    "LibraryMeasurement",
    "DEFAULT_LIBRARIES",
]
