"""Auto-tuning: per-matrix block-shape x reordering configuration search.

The paper picks its configuration (MMA-matched 16 x 8 blocks, Jaccard row
reordering) by hand through the ablations of Sections IV-B and IV-C.
This package turns those ablations into a self-optimising subsystem:

* :mod:`~repro.tuner.space` enumerates the candidate configurations
  (MMA-tile block-shape menu x reordering algorithms x the row+column
  knob),
* :mod:`~repro.tuner.model` prices candidates with the paper's own
  analytical model (Eq. 1 fitted through the real kernel + cost model,
  Eq. 2 block-count bounds) so hopeless candidates are pruned before any
  expensive reordering runs,
* :class:`~repro.tuner.search.Tuner` measures the survivors with real
  timed runs and returns a :class:`~repro.tuner.search.TuningResult`
  whose winner is never worse than the paper's default, and
* :class:`~repro.tuner.cache.TuningCache` persists winners on disk keyed
  by matrix fingerprint, so ``SMaTConfig(reorder="auto")`` and
  ``SpMMEngine(policy=ExecutionPolicy(tune=True))`` pay the search once
  per matrix across processes and engine instances.

Quick start
-----------
>>> from repro.matrices import suitesparse
>>> from repro.tuner import tune
>>> A = suitesparse.load("cant", scale=0.05)
>>> result = tune(A)                       # doctest: +SKIP
>>> result.best_config.reorder             # doctest: +SKIP
'jaccard'
>>> result.tuned_vs_default >= 1.0         # doctest: +SKIP
True
"""

from ..core.policy import OnlineTuningConfig
from .cache import TuningCache, TuningCacheStats, default_cache_path
from .model import CandidateEstimate, calibrate, clear_calibration_cache, estimate_candidate
from .online import OnlineTelemetry, OnlineTuner
from .search import (
    CandidateOutcome,
    Tuner,
    TuningResult,
    resolve_auto_config,
    tune,
    tuning_key,
)
from .space import (
    DEFAULT_REORDERERS,
    Candidate,
    backend_menu,
    block_shape_menu,
    candidate_space,
)

__all__ = [
    "Tuner",
    "TuningResult",
    "OnlineTuner",
    "OnlineTelemetry",
    "OnlineTuningConfig",
    "CandidateOutcome",
    "tune",
    "resolve_auto_config",
    "tuning_key",
    "Candidate",
    "candidate_space",
    "backend_menu",
    "block_shape_menu",
    "DEFAULT_REORDERERS",
    "CandidateEstimate",
    "estimate_candidate",
    "calibrate",
    "clear_calibration_cache",
    "TuningCache",
    "TuningCacheStats",
    "default_cache_path",
]
