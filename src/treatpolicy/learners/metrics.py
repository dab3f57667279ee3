"""Prediction-quality metrics for regression and classification.

AUROC is the rank-based Mann-Whitney statistic with midranks for ties, so a
tied positive/negative pair counts one half.  The calibration curve uses ten
equal-width bins on [0, 1] with empty bins omitted.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError

__all__ = [
    "rmse",
    "mae",
    "r_squared",
    "brier",
    "auroc",
    "calibration_curve",
    "eval_metrics",
    "pearson",
    "kendall_tau",
]


def _check(pred, truth):
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError("predictions and truths must be 1-D of equal length")
    if pred.size == 0:
        raise DataError("empty prediction vector")
    return pred, truth


def rmse(pred, truth) -> float:
    pred, truth = _check(pred, truth)
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


def mae(pred, truth) -> float:
    pred, truth = _check(pred, truth)
    return float(np.mean(np.abs(pred - truth)))


def r_squared(pred, truth) -> float:
    pred, truth = _check(pred, truth)
    ss_res = float(np.sum((truth - pred) ** 2))
    ss_tot = float(np.sum((truth - truth.mean()) ** 2))
    if ss_tot == 0.0:
        return float("nan")
    return 1.0 - ss_res / ss_tot


def brier(pred, truth) -> float:
    pred, truth = _check(pred, truth)
    return float(np.mean((pred - truth) ** 2))


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; a run of tied values at sorted positions i..j gets (i + j) / 2 + 1."""
    n = values.size
    order = np.argsort(values, kind="mergesort")
    ranked = values[order]
    starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    ends = np.r_[starts[1:], n] - 1
    ranks = np.empty(n, dtype=float)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def auroc(scores, labels) -> float | None:
    """Mann-Whitney AUROC with tie correction; None when one class is absent."""
    scores, labels = _check(scores, labels)
    if not np.all(np.isin(labels, (0.0, 1.0))):
        raise DataError("labels must be 0/1")
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = _midranks(scores)
    rank_sum = float(ranks[labels == 1.0].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def calibration_curve(pred, truth) -> list[dict]:
    """Ten equal-width reliability bins over [0, 1]; empty bins are omitted."""
    pred, truth = _check(pred, truth)
    bins = 10
    idx = np.minimum((pred * bins).astype(int), bins - 1)
    out = []
    for b in range(bins):
        mask = idx == b
        count = int(mask.sum())
        if count == 0:
            continue
        out.append(
            {
                "bin_low": b / bins,
                "bin_high": (b + 1) / bins,
                "mean_predicted": float(pred[mask].mean()),
                "fraction_positive": float(truth[mask].mean()),
                "count": count,
            }
        )
    return out


def _classification_counts(scores, labels):
    pred = scores >= 0.5
    pos = labels == 1.0
    tp = int(np.sum(pred & pos))
    fp = int(np.sum(pred & ~pos))
    fn = int(np.sum(~pred & pos))
    tn = int(np.sum(~pred & ~pos))
    return tp, fp, fn, tn


def eval_metrics(predictions, truths, task: str) -> dict:
    """Metric set for one prediction vector.

    task="regression": rmse, mae, r2.  task="classification": brier, auroc
    (None if one class), accuracy/precision/recall/f1 at threshold 0.5, and
    the ten-bin calibration curve.  Undefined ratios (no predicted positives,
    no true positives) report 0.0.
    """
    if task == "regression":
        return {
            "rmse": rmse(predictions, truths),
            "mae": mae(predictions, truths),
            "r2": r_squared(predictions, truths),
        }
    if task != "classification":
        raise ValueError(f"unknown task {task!r}")
    pred, truth = _check(predictions, truths)
    if not np.all(np.isin(truth, (0.0, 1.0))):
        raise DataError("classification truths must be 0/1")
    tp, fp, fn, tn = _classification_counts(pred, truth)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {
        "brier": brier(pred, truth),
        "auroc": auroc(pred, truth),
        "accuracy": (tp + tn) / truth.size,
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "calibration_curve": calibration_curve(pred, truth),
    }


def pearson(a, b) -> float:
    a, b = _check(a, b)
    sa = float(np.std(a))
    sb = float(np.std(b))
    if sa == 0.0 or sb == 0.0:
        return float("nan")
    return float(np.mean((a - a.mean()) * (b - b.mean())) / (sa * sb))


def _pairs_within(counts: np.ndarray) -> int:
    """Pairs inside groups of the given sizes."""
    counts = counts.astype(np.int64)
    return int(np.sum(counts * (counts - 1) // 2))


def _strict_inversions(ranks: np.ndarray) -> int:
    """Pairs i < j with ranks[i] > ranks[j], by a bottom-up merge sort.

    Each level merges adjacent sorted blocks of width w.  A block pair's keys
    are offset by pair index times the rank count, so one searchsorted over
    all left blocks counts, for every right-block element, the left elements
    above it, and one stable sort merges every pair at once.
    """
    n = ranks.size
    span = int(ranks.max()) + 1
    pos = np.arange(n, dtype=np.int64)
    cur = ranks.astype(np.int64)
    inversions = 0
    w = 1
    while w < n:
        pair = pos // (2 * w)
        keys = pair * span + cur
        left = (pos // w) % 2 == 0
        right_keys = keys[~left]
        right_pair = pair[~left]
        # A right block exists only after a full left block, which sits at
        # [pair * w, pair * w + w) among the concatenated left elements.
        not_above = np.searchsorted(keys[left], right_keys, side="right")
        inversions += int(np.sum(right_pair * w + w - not_above))
        cur = np.sort(keys, kind="stable") - pair * span
        w *= 2
    return inversions


def kendall_tau(a, b) -> float:
    """Kendall tau-b (tie-corrected) by Knight's method (JASA 1966).

    Rows are sorted once by (a, b).  Ties in a, in b and in (a, b) jointly
    come from run lengths; discordant pairs are the strict inversions of b's
    dense ranks in that order.  Every count is an exact integer, so the value
    equals the brute force over all pairs bit for bit, in O(n log n) time
    and O(n) memory.  NaN when n < 2, when either vector is constant, or
    when any value of a or b is not finite (NaN or +-inf).
    """
    a, b = _check(a, b)
    n = a.size
    if n < 2 or not (np.isfinite(a).all() and np.isfinite(b).all()):
        return float("nan")
    order = np.lexsort((b, a))
    a_sorted = a[order]
    b_sorted = b[order]
    new_run = (a_sorted[1:] != a_sorted[:-1]) | (b_sorted[1:] != b_sorted[:-1])
    ties_ab = _pairs_within(np.diff(np.flatnonzero(np.r_[True, new_run, True])))
    ties_a = _pairs_within(np.unique(a_sorted, return_counts=True)[1])
    _, b_dense, b_counts = np.unique(b_sorted, return_inverse=True, return_counts=True)
    ties_b = _pairs_within(b_counts)
    discordant = _strict_inversions(b_dense)
    n0 = n * (n - 1) // 2
    concordant_minus_discordant = float(n0 - ties_a - ties_b + ties_ab - 2 * discordant)
    denom = np.sqrt(float(n0 - ties_a) * float(n0 - ties_b))
    if denom == 0.0:
        return float("nan")
    return concordant_minus_discordant / denom
