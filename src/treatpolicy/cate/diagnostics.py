"""Cross-model diagnostics for effect estimates.

The calibration curve checks whether sorting by estimated effect recovers
segment-level effects measured by a doubly robust estimator; the
correlation matrices show how much the estimators agree with each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from ..learners.metrics import kendall_tau, pearson

__all__ = ["CalibrationSegment", "cate_calibration_curve", "cate_diagnostics"]


@dataclass
class CalibrationSegment:
    segment: int
    count: int
    mean_cate: float
    aipw_ate: float | None


def cate_calibration_curve(
    tau,
    treatment,
    outcome,
    prop_scores,
    K: int,
    mu0,
    mu1,
) -> list[CalibrationSegment]:
    """Segment rows by estimated effect and compare against AIPW segment ATEs.

    Rows are sorted by tau and split into K equal-count segments (sizes
    differ by at most one).  Within each segment the doubly robust estimate
    mean[mu1 - mu0 + t(y - mu1)/e - (1 - t)(y - mu0)/(1 - e)] uses outcome
    predictions mu0/mu1 fit on held-out rows; a segment missing an arm
    reports no AIPW value.
    """
    tau = np.asarray(tau, dtype=float)
    t = np.asarray(treatment)
    y = np.asarray(outcome, dtype=float)
    e = np.asarray(prop_scores, dtype=float)
    mu0 = np.asarray(mu0, dtype=float)
    mu1 = np.asarray(mu1, dtype=float)
    n = tau.size
    if not (t.size == y.size == e.size == mu0.size == mu1.size == n):
        raise ValueError("all per-row inputs must share one length")
    if K < 2:
        raise ValueError(f"need at least 2 segments, got {K}")
    if K > n:
        raise DataError(f"cannot split {n} rows into {K} segments")

    scores = mu1 - mu0 + t * (y - mu1) / e - (1 - t) * (y - mu0) / (1.0 - e)
    order = np.argsort(tau, kind="stable")
    segments = []
    for i, seg in enumerate(np.array_split(order, K)):
        arms = t[seg]
        has_both = (arms == 0).any() and (arms == 1).any()
        segments.append(
            CalibrationSegment(
                segment=i,
                count=int(seg.size),
                mean_cate=float(tau[seg].mean()),
                aipw_ate=float(scores[seg].mean()) if has_both else None,
            )
        )
    return segments


def cate_diagnostics(estimates: dict) -> dict:
    """Pairwise agreement between named effect vectors scored on shared rows.

    Returns the dict that ``cate/diagnostics.json`` holds: the ``names`` in
    insertion order, the ``pearson`` and ``kendall`` matrices in that order
    as nested lists, and ``ates``, each model's implied average effect (the
    mean of its vector).  A vector that is one number up to rounding
    (``ptp(v) <= 1e-12 * max|v|``, as an s-learner on ols gives) has no
    ranking to agree with: its off-diagonal cells are NaN.
    """
    names = list(estimates)
    if not names:
        raise ValueError("need at least one estimate vector")
    vectors = [np.asarray(estimates[name], dtype=float) for name in names]
    n = vectors[0].size
    for name, v in zip(names, vectors):
        if v.size != n:
            raise ValueError(f"estimate {name!r} has length {v.size}, expected {n}")
    k = len(names)
    flat = [np.ptp(v) <= 1e-12 * np.max(np.abs(v)) for v in vectors]
    pear = np.ones((k, k))
    kend = np.ones((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            if flat[i] or flat[j]:
                pear[i, j] = pear[j, i] = kend[i, j] = kend[j, i] = np.nan
                continue
            pear[i, j] = pear[j, i] = pearson(vectors[i], vectors[j])
            kend[i, j] = kend[j, i] = kendall_tau(vectors[i], vectors[j])
    ates = {name: float(v.mean()) for name, v in zip(names, vectors)}
    return {"names": names, "pearson": pear.tolist(), "kendall": kend.tolist(), "ates": ates}
