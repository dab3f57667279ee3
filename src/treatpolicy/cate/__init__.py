"""Conditional treatment effect estimation, intervals, and diagnostics."""

from .diagnostics import (
    CalibrationSegment,
    cate_calibration_curve,
    cate_diagnostics,
)
from .intervals import (
    CateFitSpec,
    CateInterval,
    UncertaintySpec,
    causal_shift,
    gate_menu,
    tilted_mean,
    uncertainty_interval,
)
from .meta import CateModel, fit_meta_learner

__all__ = [
    "CateModel",
    "fit_meta_learner",
    "UncertaintySpec",
    "CateFitSpec",
    "gate_menu",
    "CateInterval",
    "tilted_mean",
    "causal_shift",
    "uncertainty_interval",
    "CalibrationSegment",
    "cate_calibration_curve",
    "cate_diagnostics",
]
