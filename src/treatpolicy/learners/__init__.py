"""Learner menu: linear models, boosted trees, calibration, metrics.

The menu is addressed through :class:`LearnerSpec` (kind + hyperparameters).
Linear kinds are fit on per-fit z-scored covariates; the fitted wrapper
stores the centering so predictions are consistent on raw inputs.  Tree
kinds take raw values.  Every regressor takes row weights, so a fit on
integer weights equals a fit on as many copies of each row; classifiers are
unweighted.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DataError
from .calibration import CalibratedClassifier, calibrate
from .linear import PENALTIES, LinearModel, _check_weights, fit_linear, sigmoid
from .metrics import (
    auroc,
    brier,
    calibration_curve,
    eval_metrics,
    kendall_tau,
    mae,
    pearson,
    r_squared,
    rmse,
)
from .serialize import decode_model, encode_model, load_model, register_codec, save_model
from .trees import BoostedTreesModel, Tree, fit_gbt

__all__ = [
    "LearnerSpec",
    "FittedModel",
    "fit_regressor",
    "fit_classifier",
    "standardize",
    "LinearModel",
    "fit_linear",
    "BoostedTreesModel",
    "Tree",
    "fit_gbt",
    "CalibratedClassifier",
    "calibrate",
    "eval_metrics",
    "rmse",
    "mae",
    "r_squared",
    "brier",
    "auroc",
    "calibration_curve",
    "pearson",
    "kendall_tau",
    "sigmoid",
    "encode_model",
    "decode_model",
    "save_model",
    "load_model",
    "register_codec",
]

REGRESSOR_KINDS = ("ols", "ridge", "lasso", "gbt")
CLASSIFIER_KINDS = ("logistic", "gbt")

_LINEAR_KEYS = {"lam", "tol", "max_iter", "fit_intercept"}
_LOGISTIC_KEYS = _LINEAR_KEYS | {"penalty"}
_GBT_KEYS = {"n_trees", "max_depth", "learning_rate", "min_samples_leaf"}


def _integer(lo):
    return lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= lo


def _finite(lo, strict=True):
    return lambda v: (
        isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
        and (v > lo if strict else v >= lo)
    )


# what each hyperparameter must be, so that values a fit cannot use are
# refused before any stage runs; true/false are not numbers
_PARAM_VALUES = {
    "n_trees": ("an integer >= 0", _integer(0)),
    "max_depth": ("an integer >= 1", _integer(1)),
    "min_samples_leaf": ("an integer >= 1", _integer(1)),
    "max_iter": ("an integer >= 1", _integer(1)),
    "learning_rate": ("a finite number > 0", _finite(0)),
    "tol": ("a finite number > 0", _finite(0)),
    "lam": ("a finite number >= 0", _finite(0, strict=False)),
    "fit_intercept": ("true or false", lambda v: isinstance(v, bool)),
    "penalty": (f"one of {list(PENALTIES)}", lambda v: v in PENALTIES),
}


@dataclass(frozen=True)
class LearnerSpec:
    """Names one learner from the menu with its hyperparameters."""

    kind: str
    params: tuple = ()

    @classmethod
    def from_dict(cls, d: dict) -> "LearnerSpec":
        d = dict(d)
        kind = d.pop("kind", None)
        if kind is None:
            raise ConfigError("learner spec needs a 'kind'")
        spec = cls(kind=kind, params=tuple(sorted(d.items())))
        spec.validate()
        return spec

    def to_dict(self) -> dict:
        return {"kind": self.kind, **dict(self.params)}

    @property
    def param_dict(self) -> dict:
        return dict(self.params)

    @property
    def closed_form(self) -> bool:
        """ols and ridge: one linear solve, too quick a fit to be worth a worker process."""
        return self.kind in ("ols", "ridge")

    def validate(self, task: str | None = None) -> None:
        all_kinds = set(REGRESSOR_KINDS) | set(CLASSIFIER_KINDS)
        if self.kind not in all_kinds:
            raise ConfigError(f"unknown learner kind {self.kind!r}")
        if task == "regression" and self.kind not in REGRESSOR_KINDS:
            raise ConfigError(f"learner {self.kind!r} cannot fit a regression target")
        if task == "classification" and self.kind not in CLASSIFIER_KINDS:
            raise ConfigError(f"learner {self.kind!r} cannot fit a classification target")
        allowed = {
            "ols": {"fit_intercept"},
            "ridge": _LINEAR_KEYS,
            "lasso": _LINEAR_KEYS,
            "logistic": _LOGISTIC_KEYS,
            "gbt": _GBT_KEYS,
        }[self.kind]
        extra = set(self.param_dict) - allowed
        if extra:
            raise ConfigError(
                f"learner {self.kind!r} got unknown parameter(s) {sorted(extra)}"
            )
        for key, v in self.params:
            what, ok = _PARAM_VALUES[key]
            if not ok(v):
                raise ConfigError(f"{self.kind} {key} must be {what}, got {v!r}")


@dataclass
class FittedModel:
    """A fitted learner plus the standardization applied at fit time."""

    family: str
    task: str
    model: object
    center: np.ndarray | None = None
    scale: np.ndarray | None = None

    def __post_init__(self):
        if self.center is not None:
            self.center = np.asarray(self.center, dtype=float)
            self.scale = np.asarray(self.scale, dtype=float)

    def _transform(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if self.center is None:
            return X
        return (X - self.center) / self.scale

    def predict(self, X) -> np.ndarray:
        return self.model.predict(self._transform(X))

    def predict_proba(self, X) -> np.ndarray:
        return self.model.predict_proba(self._transform(X))


def standardize(X: np.ndarray, w=None):
    """Z-score the columns of X, each row weighted by ``w`` if given; returns
    the scores with the center and scale used.  A constant column is centred
    on its value with scale 1, so its scores are exactly 0."""
    if X.shape[0] == 0:
        raise DataError("cannot fit on an empty dataset")
    if w is None:
        center, scale = X.mean(axis=0), X.std(axis=0)
    else:
        center = np.average(X, axis=0, weights=w)
        scale = np.sqrt(np.average((X - center) ** 2, axis=0, weights=w))
    const = (X == X[0]).all(axis=0)
    center = np.where(const, X[0], center)
    scale = np.where(const | ~(scale > 0), 1.0, scale)
    return (X - center) / scale, center, scale


def fit_regressor(spec: LearnerSpec, X, y, sample_weight=None) -> FittedModel:
    """Fit the named regressor, each row weighted by ``sample_weight`` if
    given; linear kinds are standardized internally."""
    spec.validate(task="regression")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    p = spec.param_dict
    if spec.kind == "gbt":
        model = fit_gbt(X, y, loss="squared", sample_weight=sample_weight, **p)
        return FittedModel(family=spec.kind, task="regression", model=model)
    w = None if sample_weight is None else _check_weights(sample_weight, X.shape[0])
    Z, center, scale = standardize(X, w)
    penalty = {"ols": "none", "ridge": "l2", "lasso": "l1"}[spec.kind]
    model = fit_linear(Z, y, family="least-squares", penalty=penalty, sample_weight=w, **p)
    return FittedModel(
        family=spec.kind, task="regression", model=model, center=center, scale=scale
    )


def fit_classifier(spec: LearnerSpec, X, y) -> FittedModel:
    """Fit the named probabilistic classifier on 0/1 labels."""
    spec.validate(task="classification")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    p = spec.param_dict
    if spec.kind == "gbt":
        model = fit_gbt(X, y, loss="logistic", **p)
        return FittedModel(family=spec.kind, task="classification", model=model)
    p.setdefault("penalty", "l2")
    p.setdefault("lam", 1.0)
    Z, center, scale = standardize(X)
    model = fit_linear(Z, y, family="logistic", **p)
    return FittedModel(
        family=spec.kind, task="classification", model=model, center=center, scale=scale
    )


register_codec("linear", LinearModel)
register_codec("gbt", BoostedTreesModel)
register_codec("calibrated", CalibratedClassifier)
register_codec("fitted", FittedModel)
