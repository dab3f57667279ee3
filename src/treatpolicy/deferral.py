"""Deferral rule combining overlap trimming with uncertainty screening.

A row is routed to a human decision-maker when its propensity score falls
outside the overlap bounds, or, in conservative mode, when its effect
interval straddles zero.  Deferred rows keep their factual treatment and
outcome; downstream value estimation consumes them as-is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cate.intervals import CateInterval
from .errors import DataError
from .ingest import Dataset, summarize
from .learners import standardize
from .learners.linear import fit_linear
from .propensity import overlap_mask

__all__ = [
    "DeferralRule",
    "DeferralDecision",
    "evaluate_deferral",
    "characterize_subpop",
]

MODES = ("inclusive", "conservative")

REASON_OVERLAP = "overlap"
REASON_UNCERTAINTY = "uncertainty"


@dataclass(frozen=True)
class DeferralRule:
    """Overlap bounds plus the combination mode."""

    eta_low: float
    eta_high: float
    mode: str = "conservative"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0.0 <= self.eta_low < self.eta_high <= 1.0:
            raise ValueError(
                f"need 0 <= eta_low < eta_high <= 1, got ({self.eta_low}, {self.eta_high})"
            )


@dataclass
class DeferralDecision:
    """Per-row defer flags with the first reason that fired, ``""`` for a
    kept row."""

    defer: np.ndarray
    reason: np.ndarray

    @property
    def n_deferred(self) -> int:
        return int(self.defer.sum())


def evaluate_deferral(
    rule: DeferralRule,
    prop_scores,
    interval: CateInterval | None = None,
) -> DeferralDecision:
    """Apply the rule row-wise: defer when the score is outside the closed
    overlap interval (:func:`overlap_mask`) or, in conservative mode, when
    the effect interval contains zero.  Overlap wins as the recorded reason."""
    e = np.asarray(prop_scores, dtype=float)
    outside = ~overlap_mask(e, rule.eta_low, rule.eta_high)
    if rule.mode == "conservative":
        if interval is None:
            raise ValueError("conservative mode needs an effect interval")
        if interval.lower.shape != e.shape:
            raise DataError(
                f"interval covers {interval.lower.shape[0]} rows, scores cover {e.size}"
            )
        uncertain = interval.contains_zero()
    else:
        uncertain = np.zeros_like(outside)
    defer = outside | uncertain
    reason = np.where(outside, REASON_OVERLAP, np.where(uncertain, REASON_UNCERTAINTY, ""))
    return DeferralDecision(defer=defer, reason=reason)


def characterize_subpop(deferred, data: Dataset, lam: float = 0.1) -> dict:
    """Profile the deferred sub-population against the recommended one.

    Fits an L1-penalized logistic regression of the defer flag on z-scored
    covariates and ranks surviving coefficients by magnitude.  Returns the
    profile that ``defer/subpop.json`` holds per model:
    ``coefficients`` (``column`` and ``coefficient``, largest magnitude
    first), ``n_deferred``, ``n_recommended`` and ``table``, the
    :func:`summarize` table by defer flag as its header row, then every
    cell as text.  Needs both classes present.
    """
    flags = np.asarray(deferred, dtype=bool)
    if flags.shape != (data.n,):
        raise DataError("deferral flags length does not match dataset")
    n_def = int(flags.sum())
    if n_def == 0 or n_def == data.n:
        raise DataError("deferral characterization needs both deferred and recommended rows")

    Z = standardize(data.covariates)[0]
    model = fit_linear(Z, flags.astype(float), family="logistic", penalty="l1", lam=lam)
    ranked = sorted(
        (
            {"column": col.name, "coefficient": float(b)}
            for col, b in zip(data.columns, model.coefficients)
            if b != 0.0
        ),
        key=lambda row: -abs(row["coefficient"]),
    )
    header, rows = summarize(data, group_by=flags, group_names=("recommended", "deferred"))
    return {
        "coefficients": ranked,
        "n_deferred": n_def,
        "n_recommended": data.n - n_def,
        "table": [header, *([str(cell) for cell in row] for row in rows)],
    }
