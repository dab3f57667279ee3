"""Propensity scoring, overlap bounds, trimming, and overlap diagnostics.

Scores are clipped to [1e-6, 1 - 1e-6].  The retained (overlap) region is the
closed interval [eta_low, eta_high]; trimming keeps rows whose score falls
inside it.  A high treatment-separability AUROC (scores predict the observed
arm too well) raises a warning flag in the overlap report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .ingest import Dataset
from .learners import (
    LearnerSpec,
    auroc as _auroc,
    calibrate,
    eval_metrics,
    fit_classifier,
    register_codec,
)

__all__ = [
    "PropensityModel",
    "fit_propensity",
    "select_overlap_bounds",
    "overlap_mask",
    "overlap_report",
]

SCORE_CLIP = (1e-6, 1.0 - 1e-6)
AUROC_FLAG_THRESHOLD = 0.95

# the default treatment scorer, as a config learner dict
PROPENSITY_LEARNER = {"kind": "logistic", "lam": 1.0}


@dataclass
class PropensityModel:
    """A treatment scorer with optional recalibration, bounds, and fit metrics."""

    scorer: object
    family: str
    bounds: tuple[float, float] | None = None
    metrics: dict | None = None

    def __post_init__(self):
        if self.bounds is not None:
            lo, hi = self.bounds
            self.bounds = (float(lo), float(hi))

    def predict(self, X) -> np.ndarray:
        scores = np.asarray(self.scorer.predict_proba(X), dtype=float)
        return np.clip(scores, SCORE_CLIP[0], SCORE_CLIP[1])


def fit_propensity(
    train: Dataset,
    spec: LearnerSpec,
    calibration: Dataset | None = None,
) -> PropensityModel:
    """Fit the treatment scorer on train rows, recalibrating on held-out rows.

    Records a classification metric set (Brier, AUROC, accuracy/precision/
    recall/F1, calibration curve) on the train rows and, when given, on the
    calibration rows with the recalibrated scores.
    """
    t = train.treatment.astype(float)
    if np.unique(t).size < 2:
        raise DataError("train rows contain a single treatment arm")
    base = fit_classifier(spec, train.covariates, t)
    scorer: object = base
    metrics: dict = {
        "train": eval_metrics(base.predict_proba(train.covariates), t, "classification")
    }
    if calibration is not None:
        scorer = calibrate(base, calibration.covariates, calibration.treatment.astype(float))
        metrics["calibration"] = eval_metrics(
            scorer.predict_proba(calibration.covariates),
            calibration.treatment.astype(float),
            "classification",
        )
    return PropensityModel(scorer=scorer, family=spec.kind, metrics=metrics)


def select_overlap_bounds(
    scores,
    method: str,
    *,
    treatment=None,
    eta_low: float | None = None,
    eta_high: float | None = None,
    q_low: float | None = None,
    q_high: float | None = None,
    min_count: int | None = None,
) -> tuple[float, float]:
    """Choose the retained score interval [eta_low, eta_high].

    Methods
    -------
    fixed
        Pass bounds through unchanged.
    quantile
        Per-arm score quantiles: the low bound is the largest of the two
        arms' q_low quantiles, the high bound the smallest of their q_high
        quantiles, so the retained range is quantile-supported in both arms.
    min-count
        Widest bounds leaving at least ``min_count`` units of each arm at or
        below the low bound and at or above the high bound, so every retained
        score has that many units of both arms on each side.

    Infeasible results (eta_low >= eta_high) raise DataError.
    """
    scores = np.asarray(scores, dtype=float)
    if method == "fixed":
        if eta_low is None or eta_high is None:
            raise ValueError("fixed bounds need eta_low and eta_high")
        if not (0.0 <= eta_low and eta_high <= 1.0):
            raise ValueError("bounds must lie in [0, 1]")
        lo, hi = float(eta_low), float(eta_high)
    elif method == "quantile":
        if q_low is None or q_high is None:
            raise ValueError("quantile bounds need q_low and q_high")
        if not (0.0 <= q_low < q_high <= 1.0):
            raise ValueError("need 0 <= q_low < q_high <= 1")
        arm0, arm1 = _split_arms(scores, treatment)
        lo = max(float(np.quantile(arm0, q_low)), float(np.quantile(arm1, q_low)))
        hi = min(float(np.quantile(arm0, q_high)), float(np.quantile(arm1, q_high)))
    elif method == "min-count":
        if min_count is None or min_count < 1:
            raise ValueError("min-count bounds need min_count >= 1")
        arm0, arm1 = _split_arms(scores, treatment)
        k = int(min_count)
        if arm0.size < k or arm1.size < k:
            raise DataError(
                f"min-count {k} exceeds an arm size ({arm0.size}, {arm1.size})"
            )
        s0 = np.sort(arm0)
        s1 = np.sort(arm1)
        lo = max(float(s0[k - 1]), float(s1[k - 1]))
        hi = min(float(s0[-k]), float(s1[-k]))
    else:
        raise ValueError(f"unknown bounds method {method!r}")

    if lo >= hi:
        raise DataError(f"infeasible overlap bounds: eta_low {lo} >= eta_high {hi}")
    return lo, hi


def _split_arms(scores, treatment):
    if treatment is None:
        raise ValueError("this bounds method needs the treatment labels")
    treatment = np.asarray(treatment)
    if treatment.shape != scores.shape:
        raise ValueError("treatment length does not match scores")
    arm0 = scores[treatment == 0]
    arm1 = scores[treatment == 1]
    if arm0.size == 0 or arm1.size == 0:
        raise DataError("both treatment arms are required to choose bounds")
    return arm0, arm1


def overlap_mask(scores, eta_low: float, eta_high: float) -> np.ndarray:
    """True for rows inside the closed retained interval."""
    scores = np.asarray(scores, dtype=float)
    return (scores >= eta_low) & (scores <= eta_high)


def overlap_report(
    scores,
    treatment,
    bounds: tuple[float, float],
    bins: int = 20,
) -> dict:
    """Summarize arm-wise score distributions and the effect of trimming.

    Returns the dict that ``propensity/overlap.json`` holds under ``report``:
    the ``bounds`` as ``{"eta_low", "eta_high"}``, the ``bin_edges``, per-arm
    ``histograms`` of all and retained scores, ``n_total``, ``n_retained``,
    ``n_excluded_by_arm``, the arm-separating ``auroc`` and its
    ``auroc_flag`` against ``auroc_flag_threshold``.  The flag fires when the
    scores separate the observed arms with AUROC at or above
    ``AUROC_FLAG_THRESHOLD``, a sign the overlap assumption is strained.
    """
    scores = np.asarray(scores, dtype=float)
    treatment = np.asarray(treatment)
    if treatment.shape != scores.shape:
        raise ValueError("treatment length does not match scores")
    retained = overlap_mask(scores, *bounds)
    edges = np.linspace(0.0, 1.0, bins + 1)
    histograms = {}
    excluded = {}
    for arm in (0, 1):
        arm_mask = treatment == arm
        all_counts, _ = np.histogram(scores[arm_mask], bins=edges)
        kept_counts, _ = np.histogram(scores[arm_mask & retained], bins=edges)
        histograms[str(arm)] = {
            "all": all_counts.astype(int).tolist(),
            "retained": kept_counts.astype(int).tolist(),
        }
        excluded[str(arm)] = int(np.sum(arm_mask & ~retained))
    score_auroc = _auroc(scores, treatment.astype(float))
    return {
        "bounds": {"eta_low": float(bounds[0]), "eta_high": float(bounds[1])},
        "bin_edges": [float(e) for e in edges],
        "histograms": histograms,
        "n_total": int(scores.size),
        "n_retained": int(retained.sum()),
        "n_excluded_by_arm": excluded,
        "auroc": score_auroc,
        "auroc_flag": score_auroc is not None and score_auroc >= AUROC_FLAG_THRESHOLD,
        "auroc_flag_threshold": AUROC_FLAG_THRESHOLD,
    }


register_codec("propensity", PropensityModel)
