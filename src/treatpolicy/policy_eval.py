"""Policies over effect estimates and their off-policy value estimation.

A policy maps each row to Treat1, Treat0, or Defer.  Non-deferred rows
matched by the policy (observed arm equals the recommendation) are weighted
by the inverse probability of that arm, self-normalized; deferred rows
contribute their factual outcome mean; the two parts mix by the empirical
defer proportion of the rows valued.

Policies are built from per-row effect vectors only: ``build_policy_set``
turns each model's estimates into a policy and each ``ensemble-<mode>``
into a vote over those same vectors (``ensemble_effects``), so a policy
never scores a fitted model.  Every value is a ratio of sums of one set
of per-row terms per policy (``_sum_columns``), reduced by
``_round_values``.  ``point_values`` sums each term once over all rows:
the rank curve and the simulation study's IPW and DR values come from it,
with a DR plug-in from ``fit_plug_in``.  ``bootstrap_tournament`` takes
its points from the same terms, then values every policy on B shared row
resamples held as draw counts, one matmul per chunk of rounds and policy,
valued in one ``_round_values`` call per chunk and estimator.
``summarize_bootstrap`` reduces one policy's replicates to the summary
statistics of the value table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EstimationError
from .ingest import Dataset
from .learners import fit_regressor
from .parallel import pmap

__all__ = [
    "DEFER", "ENSEMBLE_MODES", "DecisionRule", "Policy", "build_policy", "ensemble_effects",
    "build_policy_set", "baselines",
    "fit_plug_in", "point_values", "summarize_bootstrap", "TournamentResult",
    "bootstrap_tournament", "rank_curve", "outcome_tree",
]

DEFER = -1

P_STAR_CLIP = (0.01, 0.99)

# the default DR plug-in learner, as a config learner dict
PLUG_IN_LEARNER = {"kind": "gbt", "n_trees": 100, "max_depth": 3, "min_samples_leaf": 10}

ESTIMATORS = ("IPW", "DR")

DIRECTIONS = ("higher-better", "lower-better")

ENSEMBLE_MODES = ("average", "majority", "consensus")

# bytes of one chunk of bootstrap count rows (at least one round is taken);
# small, so that the chunk does not set the process's peak memory
_CHUNK_BYTES = 1 << 18


def _resample_counts(seed, sizes, B: int):
    """Yield B resamples as (start, counts) chunks of about ``_CHUNK_BYTES`` of count rows,
    one (rounds, n) array per stratum of n rows.  Replicate by replicate and stratum by
    stratum, each draws ``rng.integers(0, n, n)`` from ``SeedSequence(seed)`` (the stream
    of ``rng.choice(rows, n)``) and counts it into its row."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    chunk = max(1, _CHUNK_BYTES // (8 * sum(sizes)))
    for start in range(0, B, chunk):
        counts = [np.empty((min(chunk, B - start), n)) for n in sizes]
        for row in range(len(counts[0])):
            for c, n in zip(counts, sizes):
                c[row] = np.bincount(rng.integers(0, n, n), minlength=n)
        yield start, counts


@dataclass(frozen=True)
class DecisionRule:
    """Threshold rule turning effect estimates into treat/control calls.

    higher-better treats when tau >= threshold (boundary treats); the
    lower-better direction flips the comparison to tau <= threshold, for
    outcomes where smaller values are the goal.
    """

    threshold: float = 0.0
    direction: str = "higher-better"

    def apply(self, tau) -> np.ndarray:
        tau = np.asarray(tau, dtype=float)
        if self.direction == "higher-better":
            return tau >= self.threshold
        return tau <= self.threshold


@dataclass
class Policy:
    """Per-row recommendations: 1 treat, 0 control, -1 defer."""

    name: str
    rec: np.ndarray
    source: str = "cate-model"
    factual: bool = False

    def __post_init__(self):
        self.rec = np.asarray(self.rec, dtype=np.int8)
        bad = ~np.isin(self.rec, (0, 1, DEFER))
        if bad.any():
            raise ValueError(f"recommendations must be 0, 1, or {DEFER}")

    @property
    def n_deferred(self) -> int:
        return int((self.rec == DEFER).sum())

    @property
    def treated_fraction(self) -> float:
        return float((self.rec == 1).mean())


def build_policy(
    tau,
    decision_rule: DecisionRule,
    *,
    defer=None,
    name: str = "policy",
    source: str = "cate-model",
) -> Policy:
    """Apply the decision rule to a per-row effect vector, with deferral
    taking precedence over the rule."""
    tau = np.asarray(tau, dtype=float)
    rec = decision_rule.apply(tau).astype(np.int8)
    if defer is not None:
        defer = np.asarray(defer, dtype=bool)
        if defer.shape != tau.shape:
            raise ValueError("defer flags length does not match effect estimates")
        rec = np.where(defer, DEFER, rec)
    return Policy(name=name, rec=rec, source=source)


def ensemble_effects(taus, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Combine a (k, n) stack of member effect vectors into a pseudo-effect
    and defer flags per row.

    "average" passes the mean effect through on the original scale;
    "majority" takes a sign vote (tau >= 0 counts positive) and outputs a
    +1/-1 pseudo-effect, deferring exact ties; "consensus" outputs the
    shared sign only on unanimity and defers otherwise.  Deferred rows get
    pseudo-effect 0.  Needs at least two members.
    """
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 2 or taus.shape[0] < 2:
        raise ValueError("ensemble needs at least two members")
    if mode == "average":
        return taus.mean(axis=0), np.zeros(taus.shape[1], dtype=bool)
    n_members = taus.shape[0]
    n_plus = (taus >= 0.0).sum(axis=0)
    if mode == "majority":
        plus = n_plus * 2 > n_members
        minus = n_plus * 2 < n_members
    else:
        plus = n_plus == n_members
        minus = n_plus == 0
    defer = ~(plus | minus)
    pseudo = np.where(defer, 0.0, np.where(plus, 1.0, -1.0))
    return pseudo, defer


def _scores(p_star) -> np.ndarray:
    return np.clip(np.asarray(p_star, dtype=float), *P_STAR_CLIP)


def _sum_columns(policy: Policy, t, y, p1, plug_in) -> np.ndarray:
    """Per-row terms whose count-weighted sums value the policy on a round:
    the deferred indicator d, d*y, the matched weight w (1[t = rec]/p_rec, 0
    where deferred), w*y, w*y_hat and y_hat, with y_hat the plug-in at the
    recommended arm (0 where deferred or without a plug-in).  A factual
    policy is valued as one that defers every row: the plain outcome mean.
    A point value sums each term once over all rows."""
    d = (policy.rec == DEFER) | policy.factual
    arm = np.where(d, 0, policy.rec)
    w = np.where(~d & (t == arm), 1.0 / np.where(arm == 1, p1, 1.0 - p1), 0.0)
    y_hat = np.where(d, 0.0, 0.0 if plug_in is None else plug_in[np.arange(y.size), arm])
    return np.column_stack([d, d * y, w, w * y, w * y_hat, y_hat])


def _round_values(sums: np.ndarray, n: int, estimator: str) -> np.ndarray:
    """Values on a chunk of rounds (or of policies) from their ``_sum_columns``
    sums.  IPW is the matched rows' weighted outcome mean; DR adds the weighted
    plug-in residuals to the plug-in mean; either mixes with the deferred rows'
    outcome mean by their share.  A round with zero matched weight has zero
    w*y and w*y_hat sums, so 0/0 makes it NaN; one that drew only deferred
    rows is their mean."""
    n_def, s_dy, s_w, s_wy, s_wyhat, s_yhat = sums.T
    n_nd = n - n_def
    p_def = n_def / n
    with np.errstate(divide="ignore", invalid="ignore"):
        v_def = np.where(n_def > 0, s_dy / n_def, 0.0)
        v_nd = s_wy / s_w if estimator == "IPW" else (s_wy - s_wyhat) / s_w + s_yhat / n_nd
    return np.where(n_nd == 0, v_def, v_nd * (1.0 - p_def) + v_def * p_def)


def _check_policy(policy: Policy, data: Dataset) -> None:
    if policy.rec.size != data.n:
        raise ValueError(
            f"policy covers {policy.rec.size} rows, dataset has {data.n}"
        )


def baselines(data: Dataset, propensity, seed: int | None = None) -> list[Policy]:
    """Reference policies: observed practice, proportion-matched random
    assignment, propensity-threshold assignment, and the two constants."""
    t = np.asarray(data.treatment, dtype=np.int8)
    e = _scores(propensity)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    frac = float((t == 1).mean())
    random_rec = (rng.random(data.n) < frac).astype(np.int8)
    return [
        Policy(name="doctors", rec=t, source="baseline", factual=True),
        Policy(name="random", rec=random_rec, source="baseline"),
        Policy(name="propensity", rec=(e > 0.5).astype(np.int8), source="baseline"),
        Policy(name="treat-all-0", rec=np.zeros(data.n, dtype=np.int8), source="baseline"),
        Policy(name="treat-all-1", rec=np.ones(data.n, dtype=np.int8), source="baseline"),
    ]


def build_policy_set(
    effects: dict,
    decision_rule: DecisionRule,
    data: Dataset,
    propensity,
    *,
    defer: dict | None = None,
    modes=(),
    ensemble_defer=None,
    seed: int | None = None,
) -> list[Policy]:
    """The menu policies, then ``ensemble-<mode>`` per mode, then the baselines.

    ``effects`` maps each model name to its effect vector on the rows of
    ``data``; ``defer`` maps every name to its defer flags.  Each ensemble
    votes over all of ``effects`` in insertion order, defers on its own
    vote and on ``ensemble_defer``, and needs at least two models; with
    fewer none is built.
    """
    policies = [
        build_policy(
            tau, decision_rule, defer=None if defer is None else defer[name], name=name,
            source="cate-model",
        )
        for name, tau in effects.items()
    ]
    if len(effects) >= 2:
        taus = np.stack(list(effects.values()))
        for mode in modes:
            pseudo, vote_defer = ensemble_effects(taus, mode)
            if ensemble_defer is not None:
                vote_defer |= np.asarray(ensemble_defer, dtype=bool)
            policies.append(
                build_policy(
                    pseudo, decision_rule, defer=vote_defer, name=f"ensemble-{mode}",
                    source="ensemble",
                )
            )
    policies.extend(baselines(data, propensity, seed=seed))
    return policies


def fit_plug_in(spec, train: Dataset, X_eval) -> np.ndarray:
    """Per-arm outcome regressions for the DR estimator, fitted on ``train``
    and scored at ``X_eval``: shape (n, 2), column index = arm.  Unless the
    learner is closed-form, the two arms are fitted in worker processes (``pmap``)."""
    treated = train.treatment == 1

    def fit_arm(rows):
        return fit_regressor(spec, train.covariates[rows], train.outcome[rows]).predict(X_eval)

    arms = (~treated, treated)
    return np.column_stack([fit_arm(rows) for rows in arms] if spec.closed_form
                           else list(pmap(fit_arm, arms)))


def summarize_bootstrap(values) -> dict:
    """Mean, sample std and quantiles of the replicates that did not fail
    (NaN); every statistic is NaN when all of them failed."""
    values = np.asarray(values, dtype=float)
    ok = values[~np.isnan(values)]
    if ok.size == 0:
        return {k: float("nan") for k in ("mean", "std", "min", "q25", "median", "q75", "max")}
    return {
        "mean": float(ok.mean()),
        "std": float(ok.std(ddof=1)) if ok.size > 1 else 0.0,
        "min": float(ok.min()),
        "q25": float(np.quantile(ok, 0.25)),
        "median": float(np.quantile(ok, 0.5)),
        "q75": float(np.quantile(ok, 0.75)),
        "max": float(ok.max()),
    }


@dataclass
class TournamentResult:
    """Per-estimator values of every policy over shared bootstrap rounds.

    ``points[est][i]`` values policy i on all rows, ``distributions[est][i]``
    on each round (NaN where the estimate failed), and ``wins[est][i, j]``
    counts rounds where policy i strictly beats policy j.
    """

    policies: list
    points: dict
    wins: dict
    distributions: dict
    skipped: dict


def _stacks(policies: list, data: Dataset, p_star, estimators, plug_in) -> list:
    """Check the valuation inputs; then each policy's ``_sum_columns`` stack."""
    for policy in policies:
        _check_policy(policy, data)
    if "DR" in estimators and plug_in is None:
        raise ValueError("DR estimation needs plug-in outcome predictions")
    if plug_in is not None and np.shape(plug_in) != (data.n, 2):
        raise ValueError(f"plug-in predictions must be shaped ({data.n}, 2)")
    p1 = _scores(p_star)
    plug = None if plug_in is None else np.asarray(plug_in, dtype=float)
    return [_sum_columns(p, data.treatment, data.outcome, p1, plug) for p in policies]


def _points(policies: list, stacks: list, n: int, estimators) -> dict:
    """Values on all rows: the round that draws every row once.  Each term is
    summed pairwise along its own contiguous row, as ``y.mean()`` sums y, so a
    factual policy is exactly the outcome mean."""
    sums = np.array([np.ascontiguousarray(s.T).sum(axis=1) for s in stacks]).reshape(-1, 6)
    unmatched = np.flatnonzero((sums[:, 2] == 0.0) & (sums[:, 0] < n))
    if unmatched.size:
        raise EstimationError(f"policy {policies[unmatched[0]].name!r}: no rows match the "
                              "recommended arm; zero total weight")
    return {est: _round_values(sums, n, est) for est in estimators}


def point_values(
    policies: list,
    data: Dataset,
    p_star,
    *,
    estimators=ESTIMATORS,
    plug_in=None,
) -> dict:
    """Value every policy on all rows: ``{est: values}`` in policy order.

    IPW is the self-normalized inverse-probability value; DR adds the
    weighted plug-in residuals to the plug-in mean, with ``plug_in`` holding
    outcome predictions per row for both arms, shape (n, 2), column index =
    arm.  A factual policy is the plain outcome mean under both.  A policy
    whose non-deferred rows carry no matched weight raises EstimationError.
    """
    stacks = _stacks(policies, data, p_star, estimators, plug_in)
    return _points(policies, stacks, data.n, estimators)


def bootstrap_tournament(
    policies: list,
    data: Dataset,
    p_star,
    *,
    estimators=ESTIMATORS,
    B: int = 1000,
    seed: int | None = None,
    plug_in=None,
) -> TournamentResult:
    """Value every policy on all rows, as ``point_values`` does, then on B
    shared row resamples, all from one ``_sum_columns`` stack per policy.

    Round b draws rows ``rng.integers(0, n, n)`` from ``SeedSequence(seed)``
    and is held as a row of draw counts.  One matmul of a chunk of count
    rows with a policy's stack gives every sum its estimators need on those
    rounds, and ``_round_values`` turns the sums into values, as it does the
    points' sums.  A round with zero matched weight is NaN, wins no pair in
    either direction and counts in ``skipped``; a failure on all rows raises.
    """
    n = data.n
    stacks = _stacks(policies, data, p_star, estimators, plug_in)
    points = _points(policies, stacks, n, estimators)

    dists = {est: np.empty((len(policies), B)) for est in estimators}
    for start, (counts,) in _resample_counts(seed, [n], B):
        # every policy's sums on the chunk, policy by policy, valued in one call
        sums = np.concatenate([counts @ stack for stack in stacks])
        for est in estimators:
            values = _round_values(sums, n, est).reshape(len(policies), len(counts))
            dists[est][:, start:start + len(counts)] = values
    skipped = {est: int(np.isnan(v).sum()) for est, v in dists.items()}
    wins = {
        est: (v[:, None, :] > v[None, :, :]).sum(axis=-1).astype(int)
        for est, v in dists.items()
    }
    return TournamentResult(
        policies=[p.name for p in policies], points=points, wins=wins, distributions=dists,
        skipped=skipped,
    )


def rank_curve(
    tau,
    data: Dataset,
    p_star,
    *,
    estimator: str = "IPW",
    step: float = 0.1,
    plug_in=None,
) -> list[dict]:
    """Value of treating everyone above each effect quantile.

    For each grid level q the policy treats rows with tau strictly above
    the q-quantile, so q = 1 treats nobody (identical to the all-control
    policy) and q = 0 treats everything above the minimum.
    """
    tau = np.asarray(tau, dtype=float)
    if tau.size != data.n:
        raise ValueError("effect vector length does not match dataset")
    grid = np.linspace(0.0, 1.0, int(round(1.0 / step)) + 1)
    policies = [Policy(name=f"q{q}", rec=tau > np.quantile(tau, q)) for q in grid]
    values = point_values(
        policies, data, p_star, estimators=(estimator,), plug_in=plug_in
    )[estimator]
    return [
        {"q": float(q), "treated_fraction": float(p.rec.mean()), "value": float(v)}
        for q, p, v in zip(grid, policies, values)
    ]


def _node(y: np.ndarray) -> dict:
    n = int(y.size)
    out = {"n": n, "mean": None, "sem": None}
    if n >= 1:
        out["mean"] = float(y.mean())
    if n >= 2:
        out["sem"] = float(y.std(ddof=1) / np.sqrt(n))
    return out


def outcome_tree(policy: Policy, data: Dataset) -> dict:
    """Factual outcome summaries split by observed arm, then by whether the
    policy agrees with, disagrees with, or defers on that arm."""
    _check_policy(policy, data)
    t = np.asarray(data.treatment, dtype=np.int8)
    y = data.outcome
    rec = policy.rec
    root = _node(y)
    root["children"] = {}
    for arm in (0, 1):
        in_arm = t == arm
        arm_node = _node(y[in_arm])
        agree = in_arm & (rec == arm)
        disagree = in_arm & (rec != arm) & (rec != DEFER)
        defer = in_arm & (rec == DEFER)
        arm_node["children"] = {
            "agree": _node(y[agree]),
            "disagree": _node(y[disagree]),
            "defer": _node(y[defer]),
        }
        root["children"][f"arm_{arm}"] = arm_node
    return root

