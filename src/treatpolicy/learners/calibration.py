"""Sigmoid (Platt-style) recalibration of probabilistic classifiers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from .linear import fit_linear, sigmoid

__all__ = ["CalibratedClassifier", "calibrate"]

_EPS = 1e-7


def _logit(p: np.ndarray) -> np.ndarray:
    p = np.clip(p, _EPS, 1.0 - _EPS)
    return np.log(p / (1.0 - p))


@dataclass
class CalibratedClassifier:
    """Wraps a base scorer with p -> sigmoid(slope * logit(p) + offset).

    Outputs stay in (0, 1); with positive slope (any base scorer better than
    chance) the map is strictly increasing in the base score, so rankings and
    AUROC are preserved.
    """

    base: object
    slope: float
    offset: float

    def __post_init__(self):
        self.slope, self.offset = float(self.slope), float(self.offset)

    def predict_proba(self, X) -> np.ndarray:
        z = _logit(np.asarray(self.base.predict_proba(X), dtype=float))
        return sigmoid(self.slope * z + self.offset)


def calibrate(model, X_val, y_val) -> CalibratedClassifier:
    """Fit the sigmoid recalibration on held-out (X_val, y_val).

    The one-dimensional logistic fit carries a vanishing ridge (1e-6) purely
    for numerical stability when the validation rows are separable; it leaves
    a well-calibrated model at slope ~ 1, offset ~ 0.
    """
    y_val = np.asarray(y_val, dtype=float)
    classes = np.unique(y_val)
    if classes.size < 2:
        raise DataError("calibration rows contain a single class")
    if not np.all(np.isin(classes, (0.0, 1.0))):
        raise DataError("calibration targets must be 0/1")
    scores = np.asarray(model.predict_proba(X_val), dtype=float)
    z = _logit(scores)
    fit = fit_linear(z[:, None], y_val, family="logistic", penalty="l2", lam=1e-6)
    return CalibratedClassifier(base=model, slope=float(fit.coefficients[0]),
                                offset=float(fit.intercept))
