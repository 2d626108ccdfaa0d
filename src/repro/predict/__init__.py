"""Extension: scaling prediction (the paper's follow-on direction).

Two predictors over collected scaling data:

* :class:`CubeInterpolator` — continuous queries on a *measured*
  kernel (off-grid configurations);
* :class:`ScalingPredictor` — full-surface prediction for an
  *unmeasured* kernel from seven probe runs, by nearest neighbours in
  scaling-shape space;
* :class:`CrossFamilyPredictor` — cross-architecture transfer of a
  kernel's scaling surface from one microarchitecture family's grid
  to another's, via a corpus measured on both.
"""

from repro.predict.interpolate import CubeInterpolator, interpolator
from repro.predict.predictor import PredictedCube, ScalingPredictor
from repro.predict.what_if import (
    STANDARD_SCENARIOS,
    Scenario,
    WhatIfResult,
    best_advice,
    what_if,
)
from repro.predict.sampling import (
    ReconstructionReport,
    SamplingPlan,
    budget_sweep,
    collect_plan_dataset,
    evaluate_plan,
    plan_for_budget,
)
from repro.predict.transfer import (
    CrossFamilyPredictor,
    TransferPrediction,
    clear_transfer_cache,
    transfer_predictor,
)

__all__ = [
    "CrossFamilyPredictor",
    "CubeInterpolator",
    "PredictedCube",
    "ReconstructionReport",
    "SamplingPlan",
    "STANDARD_SCENARIOS",
    "ScalingPredictor",
    "Scenario",
    "TransferPrediction",
    "WhatIfResult",
    "best_advice",
    "budget_sweep",
    "clear_transfer_cache",
    "collect_plan_dataset",
    "evaluate_plan",
    "interpolator",
    "plan_for_budget",
    "transfer_predictor",
    "what_if",
]
