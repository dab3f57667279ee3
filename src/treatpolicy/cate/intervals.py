"""Joint statistical and causal uncertainty intervals for effect estimates.

The statistical part is a percentile interval over bootstrap refits with
resampling stratified by arm.  The causal part widens the interval against
hidden confounding bounded by a sensitivity parameter lam >= 1: each train
residual's weight may drift anywhere in [1/lam, lam], and the worst-case
weighted mean over a sorted pool is attained by down-weighting everything
below some cut and up-weighting everything above it, so scanning all cuts
gives a sharp per-arm shift that grows monotonically with lam.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DataError
from ..ingest import Dataset
from ..learners import LearnerSpec
from .meta import CateModel, fit_meta_learner

__all__ = [
    "UncertaintySpec",
    "CateFitSpec",
    "CateInterval",
    "tilted_mean",
    "causal_shift",
    "uncertainty_interval",
]


@dataclass(frozen=True)
class UncertaintySpec:
    """Uncertainty knobs: coverage alpha_stat, sensitivity lam, replicates b_boot."""

    alpha_stat: float
    lam: float = 1.0
    b_boot: int = 200

    def __post_init__(self):
        if not 0.0 <= self.alpha_stat < 1.0:
            raise ConfigError(f"alpha_stat must be in [0, 1), got {self.alpha_stat}")
        if self.lam < 1.0:
            raise ConfigError(f"lam must be >= 1, got {self.lam}")
        if self.b_boot < 0 or self.b_boot != int(self.b_boot):
            raise ConfigError(f"b_boot must be a nonnegative integer, got {self.b_boot}")
        if self.alpha_stat > 0.0 and self.b_boot < 2:
            raise ConfigError("b_boot must be >= 2 when alpha_stat > 0")


@dataclass(frozen=True)
class CateFitSpec:
    """Recipe for (re)fitting one meta-learner: kind plus base learner."""

    kind: str
    learner: LearnerSpec
    g_constant: float | None = None

    def fit(self, train: Dataset, *, propensity=None) -> CateModel:
        return fit_meta_learner(
            self.kind, train, self.learner, propensity=propensity, g_constant=self.g_constant
        )


@dataclass
class CateInterval:
    """Per-row effect bounds with the point estimate between them."""

    lower: np.ndarray
    point: np.ndarray
    upper: np.ndarray
    shift: float = 0.0

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float)
        self.point = np.asarray(self.point, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)

    def contains_zero(self) -> np.ndarray:
        return (self.lower <= 0.0) & (0.0 <= self.upper)


def tilted_mean(residuals, lam: float) -> float:
    """Worst-case mean of a pool whose weights may each tilt within [1/lam, lam].

    Scans every cut of the sorted pool (weight 1/lam below, lam above,
    normalized) and returns the maximum.  The two degenerate cuts give the
    plain mean, so the result never falls below it and equals it at lam = 1.
    """
    r = np.sort(np.asarray(residuals, dtype=float))
    n = r.size
    if n == 0:
        raise DataError("empty residual pool")
    if lam < 1.0:
        raise ValueError(f"lam must be >= 1, got {lam}")
    if lam == 1.0:
        return float(r.mean())
    below = np.concatenate([[0.0], np.cumsum(r)])
    total = below[-1]
    k = np.arange(n + 1, dtype=float)
    num = below / lam + (total - below) * lam
    den = k / lam + (n - k) * lam
    return float(np.max(num / den))


def causal_shift(residuals, lam: float) -> float:
    """How far the worst-case tilted mean sits above the plain mean; >= 0."""
    r = np.asarray(residuals, dtype=float)
    if r.size == 0:
        raise DataError("empty residual pool")
    return max(0.0, tilted_mean(r, lam) - float(r.mean()))


def _stratified_resample(rng, treatment: np.ndarray) -> np.ndarray:
    idx0 = np.flatnonzero(treatment == 0)
    idx1 = np.flatnonzero(treatment == 1)
    take0 = rng.choice(idx0, size=idx0.size, replace=True)
    take1 = rng.choice(idx1, size=idx1.size, replace=True)
    return np.concatenate([take0, take1])


def uncertainty_interval(
    fit_spec: CateFitSpec,
    train: Dataset,
    X_query,
    theta: UncertaintySpec,
    seed: int | None = None,
    *,
    propensity=None,
    model: CateModel | None = None,
) -> CateInterval:
    """Bounds per query row: percentile bootstrap unioned with causal widening.

    When alpha_stat = 0 the statistical part is the point estimate itself.
    The causal part shifts the point by the summed per-arm residual tilts at
    lam, symmetric on both sides; the reported interval is the union of the
    two extents, so it always brackets the point estimate.
    """
    X_query = np.asarray(X_query, dtype=float)
    if model is None:
        model = fit_spec.fit(train, propensity=propensity)
    point = model.predict(X_query)

    if theta.alpha_stat > 0.0:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        boot = np.empty((theta.b_boot, X_query.shape[0]))
        for b in range(theta.b_boot):
            take = _stratified_resample(rng, train.treatment)
            refit = fit_spec.fit(train.subset(take), propensity=propensity)
            boot[b] = refit.predict(X_query)
        tail = (1.0 - theta.alpha_stat) / 2.0
        stat_lo = np.quantile(boot, tail, axis=0)
        stat_hi = np.quantile(boot, 1.0 - tail, axis=0)
    else:
        stat_lo = point.copy()
        stat_hi = point.copy()

    shift = 0.0
    for arm in (0, 1):
        pool = model.residual_pools.get(arm)
        if pool is None or len(pool) == 0:
            raise DataError(f"empty residual pool for arm {arm}")
        shift += causal_shift(pool, theta.lam)

    lower = np.minimum(stat_lo, point - shift)
    upper = np.maximum(stat_hi, point + shift)
    return CateInterval(lower=lower, point=point, upper=upper, shift=shift)
