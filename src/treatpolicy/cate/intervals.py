"""Joint statistical and causal uncertainty intervals for effect estimates.

The statistical part is a percentile interval over bootstrap refits with
resampling stratified by arm, held as draw counts; ols and ridge refits are
solved from count-weighted moments and kept as their coefficients, every
other refit fits each drawn row once with its count as row weight.  The
percentiles are taken a slice of query rows at a time, ``_CHUNK_BYTES`` of
effects per slice, so memory does not grow as b_boot x query rows; the
exception is the refits that are not solved in closed form (gbt, lasso, and
an ols or ridge replicate that fails the conditioning check), which keep
their effects on every query row.  The causal part widens the interval
against hidden confounding bounded by a sensitivity parameter lam >= 1: each
train residual of the point fit (y - predicted outcome under the observed
arm), taken when the interval is computed, may have its weight drift anywhere
in [1/lam, lam], and the worst-case weighted mean over an arm's sorted pool
is attained by down-weighting everything below some cut and up-weighting
everything above it, so scanning all cuts gives a sharp per-arm shift that
grows monotonically with lam.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import policy_eval
from ..errors import ConfigError, DataError
from ..ingest import Dataset
from ..learners import LearnerSpec
from ..parallel import pmap
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

    def fit(self, train: Dataset, *, weights=None, propensity=None) -> CateModel:
        return fit_meta_learner(
            self.kind, train, self.learner,
            propensity=propensity, g_constant=self.g_constant, weights=weights,
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


class _Refits:
    """Least-squares refits on the rows X of one design, one per count row: weighted
    means and variances z-score X as ``standardize`` does with the counts as weights, and
    the z-scored Gram plus lam I is what ``fit_linear`` solves.  X is centred once."""

    def __init__(self, X, lam: float, intercept: bool):
        self.center = X.mean(axis=0)
        self.X, self.Xc, self.lam, self.intercept = X, X - self.center, lam, intercept
        self.floor = 1e-12 * (X * X).mean(axis=0)  # below it, a column is constant

    def chunk(self, C) -> None:
        n, d = self.Xc.shape
        self.C, self.mu = C, C @ self.Xc / n
        # count rows times the design only: the per-replicate X'WX changes with BLAS threads
        S = np.stack([(C * x) @ self.Xc for x in self.Xc.T], axis=1)
        S -= n * self.mu[:, :, None] * self.mu[:, None, :]
        var = np.diagonal(S, axis1=1, axis2=2) / n
        self.ok = (var > self.floor).all(axis=1)
        self.s = np.sqrt(np.where(self.ok[:, None], var, 1.0))
        self.gram = S / (self.s[:, :, None] * self.s[:, None, :]) + self.lam * np.eye(d)
        self.ok &= np.linalg.cond(self.gram) < 1e6  # a singular solve need not raise
        self.gram[~self.ok] = np.eye(d)

    def solve(self, T):
        """(coef, offset) of the refits to targets T, (n,) or one row per replicate."""
        t0 = T.mean(axis=-1)
        CT = self.C * (T - t0[..., None])
        tbar = CT.sum(axis=1) / len(self.Xc)
        rhs = (CT @ self.Xc - len(self.Xc) * self.mu * tbar[:, None]) / self.s
        coef = np.linalg.solve(self.gram, rhs[:, :, None])[:, :, 0] / self.s
        return coef, (t0 + tbar if self.intercept else 0.0) - (self.mu * coef).sum(axis=1)

    def predict(self, Q, fit) -> np.ndarray:
        return ((Q - self.center) @ fit[0].T + fit[1]).T


def _linear_refits(fit_spec: CateFitSpec, model: CateModel, train: Dataset, arms, X_query):
    """``(solve, effects)`` of an ols or ridge meta-learner's refits: ``solve(counts)`` gives
    ``(ok, fits)`` for a chunk of count rows per arm, a replicate that is not ok being left
    to the loop, and ``effects(fits, rows)`` the (replicates, rows) effects of fits stacked
    over the chunks on a slice ``rows`` of the query rows, one product per arm."""
    p = fit_spec.learner.param_dict
    lam = float(p.get("lam", 0.0)) if fit_spec.learner.kind == "ridge" else 0.0
    X, y, intercept = train.covariates, train.outcome, p.get("fit_intercept", True)
    if model.kind == "s":
        rows = np.concatenate(arms)
        design = _Refits(np.hstack([X, train.treatment[:, None]])[rows], lam, intercept)

        def solve(counts):
            design.chunk(np.hstack(counts))
            coef = design.solve(y[rows])[0]  # f(x, 1) - f(x, 0) is the slope of the arm column
            return design.ok, (coef[:, -1],)

        def effects(fits, rows):
            return np.repeat(fits[0][:, None], len(X_query[rows]), axis=1)

        return solve, effects
    f0, f1 = (_Refits(X[rows], lam, intercept) for rows in arms)
    y0, y1 = (y[rows] for rows in arms)
    g = model._g(X_query) if model.kind == "x" else None

    def solve(counts):
        f0.chunk(counts[0])
        f1.chunk(counts[1])
        mu0, mu1 = f0.solve(y0), f1.solve(y1)
        if model.kind == "t":
            return f0.ok & f1.ok, (*mu0, *mu1)
        # imputed effects: y - mu_0(x) on treated rows, mu_1(x) - y on controls
        tau_t = f1.solve(y1 - f0.predict(f1.X, mu0))
        tau_c = f0.solve(f1.predict(f0.X, mu1) - y0)
        return f0.ok & f1.ok, (*tau_c, *tau_t)

    def effects(fits, rows):
        e0, e1 = f0.predict(X_query[rows], fits[:2]), f1.predict(X_query[rows], fits[2:])
        if model.kind == "t":
            return e1 - e0
        return g[rows] * e0 + (1.0 - g[rows]) * e1

    return solve, effects


def _bootstrap(fit_spec, model, train: Dataset, X_query, B: int, seed, propensity):
    """``effects(rows)``: the (B, rows) refit effects on arm-stratified resamples, control
    arm drawn first, on a slice ``rows`` of the query rows.

    ols and ridge replicates are solved from count-weighted moments and kept as their
    coefficients, (B, d) and an offset per arm; every other refit fits each drawn row once,
    weighted by its count, and keeps its effects on every query row.  Those, from gbt and
    lasso refits and from closed-form replicates that fail the conditioning check, are the
    one term that grows as B x query rows.  The counts are drawn here, in order; gbt and
    lasso refits run in worker processes (``pmap``), which take them as they are drawn,
    across chunks, and the closed-form fallbacks run in this one."""
    arms = [np.flatnonzero(train.treatment == a) for a in (0, 1)]
    closed_form = fit_spec.learner.closed_form
    solve = linear = None
    if closed_form:
        solve, linear = _linear_refits(fit_spec, model, train, arms, X_query)
    chunks = []  # the closed-form fits of each chunk of count rows
    looped = []  # the replicates left to refits, in the order their counts are yielded

    def draws():
        sizes = [rows.size for rows in arms]
        for start, counts in policy_eval._resample_counts(seed, sizes, B):
            ok = np.zeros(len(counts[0]), bool)
            if solve:
                ok, fits = solve(counts)
                chunks.append(fits)
            for j in np.flatnonzero(~ok):
                c = np.zeros(train.n)
                for rows, cnt in zip(arms, counts):
                    c[rows] = cnt[j]
                looped.append(start + j)
                yield c

    def refit(c):
        keep = np.flatnonzero(c)
        fitted = fit_spec.fit(train.subset(keep), weights=c[keep], propensity=propensity)
        return fitted.predict(X_query)

    refits = [refit(c) for c in draws()] if closed_form else list(pmap(refit, draws()))
    stacked = [np.concatenate(parts) for parts in zip(*chunks)]

    def effects(rows):
        boot = linear(stacked, rows) if linear else np.empty((B, len(X_query[rows])))
        for b, effect in zip(looped, refits):
            boot[b] = effect[rows]
        return boot

    return effects


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

    When alpha_stat = 0 the statistical part is the point estimate itself;
    otherwise its percentiles are taken over slices of ``_CHUNK_BYTES // (8 *
    b_boot)`` query rows, the budget of a chunk of count rows, so the effects
    held at once stay one chunk's size.  The causal part shifts the point by
    the summed per-arm tilts at lam of the point fit's sorted train
    residuals, symmetric on both sides; the reported interval is the union of
    the two extents, so it always brackets the point estimate.
    """
    X_query = np.asarray(X_query, dtype=float)
    if model is None:
        model = fit_spec.fit(train, propensity=propensity)
    point = model.predict(X_query)

    if theta.alpha_stat > 0.0:
        effects = _bootstrap(fit_spec, model, train, X_query, theta.b_boot, seed, propensity)
        tail = (1.0 - theta.alpha_stat) / 2.0
        stat_lo, stat_hi = np.empty_like(point), np.empty_like(point)
        step = max(1, policy_eval._CHUNK_BYTES // (8 * theta.b_boot))
        for start in range(0, len(point), step):
            rows = slice(start, start + step)
            # a slice's effects are not read again, so the quantiles may partition them
            stat_lo[rows], stat_hi[rows] = np.quantile(
                effects(rows), [tail, 1.0 - tail], axis=0, overwrite_input=True
            )
    else:
        stat_lo = point.copy()
        stat_hi = point.copy()

    residuals = train.outcome - model.predict_outcome(train.covariates, train.treatment)
    shift = sum(causal_shift(np.sort(residuals[train.treatment == arm]), theta.lam)
                for arm in (0, 1))

    lower = np.minimum(stat_lo, point - shift)
    upper = np.maximum(stat_hi, point + shift)
    return CateInterval(lower=lower, point=point, upper=upper, shift=shift)
