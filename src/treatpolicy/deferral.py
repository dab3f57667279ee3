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
from .ingest import Dataset, SummaryTable, summarize
from .learners import standardize
from .learners.linear import fit_linear

__all__ = [
    "DeferralRule",
    "DeferralDecision",
    "evaluate_deferral",
    "SubpopProfile",
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
    """Per-row defer flags with the first reason that fired."""

    defer: np.ndarray
    reason: list

    @property
    def n_deferred(self) -> int:
        return int(self.defer.sum())


def evaluate_deferral(
    rule: DeferralRule,
    prop_scores,
    interval: CateInterval | None = None,
) -> DeferralDecision:
    """Apply the rule row-wise: defer when the score leaves the overlap
    interval (strict on both sides) or, in conservative mode, when the
    effect interval contains zero.  Overlap wins as the recorded reason."""
    e = np.asarray(prop_scores, dtype=float)
    outside = (rule.eta_low > e) | (e > rule.eta_high)
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
    reason = [
        REASON_OVERLAP if o else (REASON_UNCERTAINTY if u else None)
        for o, u in zip(outside, uncertain)
    ]
    return DeferralDecision(defer=defer, reason=reason)


@dataclass
class SubpopProfile:
    """What separates deferred rows from recommended ones."""

    coefficients: list
    table: SummaryTable
    n_deferred: int
    n_recommended: int

    def to_dict(self) -> dict:
        return {
            "coefficients": self.coefficients,
            "n_deferred": self.n_deferred,
            "n_recommended": self.n_recommended,
        }


def characterize_subpop(deferred, data: Dataset, lam: float = 0.1) -> SubpopProfile:
    """Profile the deferred sub-population against the recommended one.

    Fits an L1-penalized logistic regression of the defer flag on z-scored
    covariates and ranks surviving coefficients by magnitude, alongside the
    grouped descriptive table.  Needs both classes present.
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
    table = summarize(data, group_by=flags, group_names=("recommended", "deferred"))
    return SubpopProfile(
        coefficients=ranked,
        table=table,
        n_deferred=n_def,
        n_recommended=data.n - n_def,
    )
