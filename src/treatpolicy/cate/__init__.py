"""Conditional treatment effect estimation, intervals, and diagnostics."""

from .diagnostics import (
    CalibrationSegment,
    CateDiagnostics,
    cate_calibration_curve,
    cate_diagnostics,
)
from .intervals import (
    CateFitSpec,
    CateInterval,
    UncertaintySpec,
    causal_shift,
    tilted_mean,
    uncertainty_interval,
)
from .meta import ENSEMBLE_MODES, CateEnsemble, CateModel, ensemble_cate, fit_meta_learner

__all__ = [
    "CateModel",
    "CateEnsemble",
    "ENSEMBLE_MODES",
    "fit_meta_learner",
    "ensemble_cate",
    "UncertaintySpec",
    "CateFitSpec",
    "CateInterval",
    "tilted_mean",
    "causal_shift",
    "uncertainty_interval",
    "CalibrationSegment",
    "cate_calibration_curve",
    "CateDiagnostics",
    "cate_diagnostics",
]
