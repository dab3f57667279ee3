"""Joint statistical and causal uncertainty intervals for effect estimates.

The statistical part is a percentile interval over bootstrap refits with
resampling stratified by arm, held as draw counts.  ols and ridge refits are
solved from one set of count-weighted moments per arm and replicate, taken in
one pass over the draws and shared by every ols and ridge model of a menu
(``_BootstrapMoments``), whatever its kind, lam or intercept.  Each arm's
moments are centred on its own train mean: the s kind moves the two arms'
moments to the train mean and sums them with the arm column added, and the x
kind's imputed targets are linear in its first-stage fits, so its second
stage is solved from the same moments, with the other arm's first-stage fit
moved to this arm's centring.  They are kept as their coefficients; every other
refit fits each drawn row once with its count as row weight.  The
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
from ..errors import DataError
from ..ingest import Dataset
from ..learners import LearnerSpec
from ..parallel import pmap
from .meta import CateModel, fit_meta_learner

__all__ = [
    "UncertaintySpec",
    "CateFitSpec",
    "gate_menu",
    "CateInterval",
    "tilted_mean",
    "causal_shift",
    "uncertainty_interval",
]

@dataclass(frozen=True)
class UncertaintySpec:
    """Uncertainty knobs: coverage alpha_stat, sensitivity lam, replicates b_boot,
    taken as given: ``config._uncertainty`` checks them at load."""

    alpha_stat: float
    lam: float = 1.0
    b_boot: int = 200


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


def gate_menu(menu: dict, train: Dataset, val: Dataset, propensity) -> tuple[dict, dict]:
    """Fit every menu model on ``train`` and put it through the component gate:
    a model whose outcome error on ``val`` is no better than predicting the
    mean carries no signal and must not shape a policy.  Returns each model's
    gate entry (``heldout_mse``, ``outcome_variance``, ``excluded``) and the
    retained models, both in menu order."""
    var_val = float(np.var(val.outcome))
    gate = {}
    retained = {}
    for name, fit_spec in menu.items():
        model = fit_spec.fit(train, propensity=propensity)
        pred = model.predict_outcome(val.covariates, val.treatment)
        mse = float(np.mean((pred - val.outcome) ** 2))
        excluded = bool(mse >= var_val)
        gate[name] = {"heldout_mse": mse, "outcome_variance": var_val, "excluded": excluded}
        if not excluded:
            retained[name] = model
    return gate, retained


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
    if lam == 1.0:
        return float(r.mean())
    below = np.concatenate([[0.0], np.cumsum(r)])
    total = below[-1]
    k = np.arange(n + 1, dtype=float)
    num = below / lam + (total - below) * lam
    den = k / lam + (n - k) * lam
    return float(np.max(num / den))


def causal_shift(residuals, lam: float) -> float:
    """How far the worst-case tilted mean sits above the plain mean; >= 0.
    An empty pool raises DataError (from ``tilted_mean``)."""
    r = np.asarray(residuals, dtype=float)
    return max(0.0, tilted_mean(r, lam) - float(r.mean()))


class _BootstrapMoments:
    """Count-weighted moments of one train split's bootstrap, shared by every ols and
    ridge model refitted on it.

    Per arm and replicate they are ``A' diag(c) A`` for ``A = [x - m, 1, y - ybar]``, with
    c the replicate's draw counts, m the arm's train mean and ybar the train outcome mean:
    one (b_boot, d + 2, d + 2) array per arm, control arm first.  Centred on its own arm's
    mean, a column that is constant in the arm is about 0 and fails the variance floor,
    as on the rows.  They are built in one pass over the count draws the first time a
    closed-form model asks for them, so a menu without one pays nothing.  Use with
    another train Dataset, even an equal copy, another b_boot or another seed is
    refused."""

    def __init__(self, train: Dataset, b_boot: int, seed: int | None = None):
        self.train, self.b_boot, self.seed = train, b_boot, seed
        # the draws are taken again for replicates left to refits, so fix the stream
        self.entropy = np.random.SeedSequence(seed).entropy
        self.arms = [np.flatnonzero(train.treatment == a) for a in (0, 1)]
        self.centers = [train.covariates[rows].mean(axis=0) for rows in self.arms]
        self.ybar = train.outcome.mean()
        self._blocks = None

    def check(self, train: Dataset, b_boot: int, seed) -> None:
        if train is not self.train or b_boot != self.b_boot or seed != self.seed:
            raise ValueError("bootstrap moments were built for other train rows, "
                             f"b_boot or seed (b_boot={self.b_boot}, seed={self.seed})")

    def draws(self):
        """The replicates' ``(start, counts)`` chunks, as ``policy_eval._resample_counts``."""
        sizes = [rows.size for rows in self.arms]
        return policy_eval._resample_counts(self.entropy, sizes, self.b_boot)

    @property
    def blocks(self) -> list:
        if self._blocks is None:
            X, y = self.train.covariates, self.train.outcome
            designs = [
                np.column_stack([X[rows] - m, np.ones(rows.size), y[rows] - self.ybar])
                for rows, m in zip(self.arms, self.centers)
            ]
            p = designs[0].shape[1]
            self._blocks = [np.empty((self.b_boot, p, p)) for _ in designs]
            for start, counts in self.draws():
                for M, A, C in zip(self._blocks, designs, counts):
                    # count rows times the design only: the per-replicate A'CA changes
                    # with BLAS threads
                    M[start:start + len(C)] = np.stack([(C * a) @ A for a in A.T], axis=1)
        return self._blocks


def _recentre(M, shift) -> None:
    """Move moments M of ``[x - m, ..., 1, y - ybar]`` in place to ``x - m + shift``: each
    x column gains shift times the ones column, on both sides."""
    d = len(shift)
    M[:, :d] += shift[:, None] * M[:, -2, None]
    M[:, :, :d] += M[:, :, -2, None] * shift


class _Fits:
    """Least-squares refits of one design, one per replicate, from its moments M of
    ``[design, 1, y - ybar]`` over n rows by count: weighted means and variances z-score
    the design as ``standardize`` does with the counts as weights, and the z-scored
    scatter plus lam I is what ``fit_linear`` solves."""

    def __init__(self, M, n: int, floor, lam: float, intercept: bool, ybar: float):
        p = M.shape[-1] - 2
        self.mu = M[:, :p, p] / n
        self.S = M[:, :p, :p] - n * self.mu[:, :, None] * self.mu[:, None, :]
        y_mu = M[:, p, p + 1] / n
        self.y_mu = ybar + y_mu  # the weighted outcome mean
        self.Sy = M[:, :p, p + 1] - n * self.mu * y_mu[:, None]
        var = np.diagonal(self.S, axis1=1, axis2=2) / n
        self.ok = (var > floor).all(axis=1)  # below the floor, a column is constant
        self.s = np.sqrt(np.where(self.ok[:, None], var, 1.0))
        self.gram = self.S / (self.s[:, :, None] * self.s[:, None, :]) + lam * np.eye(p)
        self.ok &= np.linalg.cond(self.gram) < 1e6  # a singular solve need not raise
        self.gram[~self.ok] = np.eye(p)
        self.intercept = intercept

    def solve(self, St, t_mu):
        """(coef, offset) of the refits to a target with centred cross-products St with
        the design and weighted mean t_mu; a fit predicts ``(x - m) @ coef + offset``."""
        coef = np.linalg.solve(self.gram, (St / self.s)[:, :, None])[:, :, 0] / self.s
        return coef, (t_mu if self.intercept else 0.0) - (self.mu * coef).sum(axis=1)

    def imputed(self, fit, sign: float):
        """The refits to ``sign * (y - f(x))`` for per-replicate linear fits f: the
        target is linear in f, so its moments are the design's."""
        coef, offset = fit
        return self.solve(sign * (self.Sy - np.einsum("bij,bj->bi", self.S, coef)),
                          sign * (self.y_mu - (self.mu * coef).sum(axis=1) - offset))


def _predict(Q, fit) -> np.ndarray:
    return (Q @ fit[0].T + fit[1]).T


def _moved(fit, shift):
    """A fit of ``(x - m) @ coef + offset`` written on ``x - m - shift``."""
    coef, offset = fit
    return coef, offset + coef @ shift


def _linear_refits(fit_spec: CateFitSpec, model: CateModel, moments: _BootstrapMoments,
                   X_query):
    """``(ok, effects)`` of an ols or ridge meta-learner's refits, all solved from the
    shared moments: a replicate that is not ok is left to the loop, and ``effects(rows)``
    gives the (replicates, rows) effects on a slice ``rows`` of the query rows, one
    product per fit."""
    p = fit_spec.learner.param_dict
    lam = float(p.get("lam", 0.0)) if fit_spec.learner.kind == "ridge" else 0.0
    intercept = p.get("fit_intercept", True)
    X, t = moments.train.covariates, moments.train.treatment
    if model.kind == "s":
        # the design [x - m, t] on the train mean m: the arm column is arm 1's ones
        # column and 0 on controls
        d = X.shape[1]
        m = X.mean(axis=0)
        idx = np.r_[:d + 1, d, d + 1]
        controls, treated = (M[:, idx[:, None], idx] for M in moments.blocks)
        for M, c in zip((controls, treated), moments.centers):
            _recentre(M, c - m)
        controls[:, d] = controls[:, :, d] = 0.0
        floor = 1e-12 * np.append(np.square(X).mean(axis=0), np.mean(t * t))
        fits = _Fits(controls + treated, len(t), floor, lam, intercept, moments.ybar)
        # f(x, 1) - f(x, 0) is the slope of the arm column
        slope = fits.solve(fits.Sy, fits.y_mu)[0][:, -1]
        return fits.ok, lambda rows: np.repeat(slope[:, None], len(X_query[rows]), axis=1)
    f0, f1 = (
        _Fits(M, rows.size, 1e-12 * np.square(X[rows]).mean(axis=0), lam, intercept,
              moments.ybar)
        for M, rows in zip(moments.blocks, moments.arms)
    )
    mu0, mu1 = f0.solve(f0.Sy, f0.y_mu), f1.solve(f1.Sy, f1.y_mu)
    g = model._g(X_query) if model.kind == "x" else None
    # each arm's fits are on its own centring; imputed effects: y - mu_0(x) on treated
    # rows, mu_1(x) - y on controls
    m0, m1 = moments.centers
    if model.kind == "t":
        fits = (mu0, mu1)
    else:
        fits = (f0.imputed(_moved(mu1, m0 - m1), -1.0), f1.imputed(_moved(mu0, m1 - m0), 1.0))

    def effects(rows):
        e0, e1 = (_predict(X_query[rows] - c, fit) for c, fit in zip(moments.centers, fits))
        if model.kind == "t":
            return e1 - e0
        return g[rows] * e0 + (1.0 - g[rows]) * e1

    return f0.ok & f1.ok, effects


def _bootstrap(fit_spec, model, train: Dataset, X_query, B: int, seed, propensity,
               moments: _BootstrapMoments | None = None):
    """``effects(rows)``: the (B, rows) refit effects on arm-stratified resamples, control
    arm drawn first, on a slice ``rows`` of the query rows.

    ols and ridge replicates are solved from the moments, shared across models when
    given, and kept as their coefficients, (B, d) and an offset per fit; every other
    refit fits each drawn row once, weighted by its count, and keeps its effects on
    every query row.  Those, from gbt and lasso refits and from closed-form replicates
    that fail the conditioning check, are the one term that grows as B x query rows.
    Their counts are drawn here, in order, again from the moments' stream for the
    closed-form ones; gbt and lasso refits run in worker processes (``pmap``), which
    take them as they are drawn, and the closed-form fallbacks run in this one."""
    moments = moments or _BootstrapMoments(train, B, seed)
    closed_form = fit_spec.learner.closed_form
    ok, linear = np.zeros(B, bool), None
    if closed_form:
        ok, linear = _linear_refits(fit_spec, model, moments, X_query)
    looped = np.flatnonzero(~ok)

    def draws():
        for start, counts in moments.draws() if looped.size else ():
            for b in looped[(start <= looped) & (looped < start + len(counts[0]))]:
                c = np.zeros(train.n)
                for rows, cnt in zip(moments.arms, counts):
                    c[rows] = cnt[b - start]
                yield c

    def refit(c):
        keep = np.flatnonzero(c)
        fitted = fit_spec.fit(train.subset(keep), weights=c[keep], propensity=propensity)
        return fitted.predict(X_query)

    refits = [refit(c) for c in draws()] if closed_form else list(pmap(refit, draws()))

    def effects(rows):
        boot = linear(rows) if linear else np.empty((B, len(X_query[rows])))
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
    moments: _BootstrapMoments | None = None,
) -> CateInterval:
    """Bounds per query row: percentile bootstrap unioned with causal widening.

    When alpha_stat = 0 the statistical part is the point estimate itself;
    otherwise its percentiles are taken over slices of ``_CHUNK_BYTES // (8 *
    b_boot)`` query rows, the budget of a chunk of count rows, so the effects
    held at once stay one chunk's size.  ``moments``, built for ``train``,
    ``theta.b_boot`` and ``seed``, lets the models of one menu share their ols
    and ridge refits' moments; without it the call builds its own.  The
    causal part shifts the point by the summed per-arm tilts at lam of the
    point fit's sorted train residuals, symmetric on both sides; at lam = 1
    every tilt is 0 and the residuals are not computed.  The reported
    interval is the union of the two extents, so it always brackets the
    point estimate.
    """
    X_query = np.asarray(X_query, dtype=float)
    if moments is not None:
        moments.check(train, theta.b_boot, seed)
    if model is None:
        model = fit_spec.fit(train, propensity=propensity)
    point = model.predict(X_query)

    if theta.alpha_stat > 0.0:
        effects = _bootstrap(fit_spec, model, train, X_query, theta.b_boot, seed, propensity,
                             moments=moments)
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

    shift = 0.0
    if theta.lam != 1.0:
        residuals = train.outcome - model.predict_outcome(train.covariates, train.treatment)
        shift = sum(causal_shift(np.sort(residuals[train.treatment == arm]), theta.lam)
                    for arm in (0, 1))

    lower = np.minimum(stat_lo, point - shift)
    upper = np.maximum(stat_hi, point + shift)
    return CateInterval(lower=lower, point=point, upper=upper, shift=shift)
