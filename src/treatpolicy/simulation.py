"""Semi-synthetic outcome generation and the validation study built on it.

Potential outcomes are linear in the covariates: the effect direction
vector blends the fitted propensity coefficients (clinical knowledge) with
a random direction by a weight lam, is rescaled so the mean absolute
effect hits a target C, and both arms get Gaussian noise scaled to the
arm's systematic SD.  Smaller outcomes are better under this generator:
the optimal policy treats exactly where the effect is negative.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DataError
from .ingest import ColumnInfo, Dataset
from .learners import LearnerSpec, fit_classifier, standardize
from .learners.linear import fit_linear
from .learners.metrics import pearson
from .policy_eval import (
    DEFER,
    ENSEMBLE_MODES,
    DecisionRule,
    Policy,
    build_policy_set,
    fit_plug_in,
    point_values,
)

__all__ = [
    "SimulationSpec",
    "SimulatedOutcomes",
    "simulate_outcomes",
    "true_policy_value",
    "synthetic_covariates",
    "StudyReport",
    "run_study",
]

# the generator's convention: smaller outcomes are better, treat where tau <= 0
STUDY_RULE = DecisionRule(threshold=0.0, direction="lower-better")

@dataclass(frozen=True)
class SimulationSpec:
    """Generator knobs: correctness weight lam, target effect size, noise."""

    lam: float
    effect_size: float
    noise_factor: float = 1.2
    seed: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError(f"lam must be in [0, 1], got {self.lam}")
        if self.effect_size <= 0.0:
            raise ConfigError(f"effect_size must be positive, got {self.effect_size}")
        if self.noise_factor <= 0.0:
            raise ConfigError(f"noise_factor must be positive, got {self.noise_factor}")

    def to_dict(self) -> dict:
        return {
            "lam": self.lam,
            "effect_size": self.effect_size,
            "noise_factor": self.noise_factor,
            "seed": self.seed,
        }


@dataclass
class SimulatedOutcomes:
    """Both potential outcomes for every row plus the generating pieces."""

    y0: np.ndarray
    y1: np.ndarray
    mu0: np.ndarray
    mu1: np.ndarray
    delta: np.ndarray
    w0: np.ndarray
    w1: np.ndarray
    sigma0: float
    sigma1: float
    beta_prop: np.ndarray
    beta_rand: np.ndarray
    optimal_policy: np.ndarray

    @property
    def tau(self) -> np.ndarray:
        return self.mu1 - self.mu0

    def observed(self, treatment) -> np.ndarray:
        t = np.asarray(treatment)
        return np.where(t == 1, self.y1, self.y0)

    def subset(self, idx) -> "SimulatedOutcomes":
        idx = np.asarray(idx)
        return SimulatedOutcomes(
            y0=self.y0[idx],
            y1=self.y1[idx],
            mu0=self.mu0[idx],
            mu1=self.mu1[idx],
            delta=self.delta,
            w0=self.w0,
            w1=self.w1,
            sigma0=self.sigma0,
            sigma1=self.sigma1,
            beta_prop=self.beta_prop,
            beta_rand=self.beta_rand,
            optimal_policy=self.optimal_policy[idx],
        )


def _unit(v: np.ndarray, label: str) -> np.ndarray:
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise DataError(f"{label} has zero norm; cannot normalize")
    return v / norm


def simulate_outcomes(X, T, spec: SimulationSpec) -> SimulatedOutcomes:
    """Generate both potential outcomes for standardized covariates X.

    The effect direction is sqrt(lam) times the unit propensity coefficient
    vector plus sqrt(1 - lam) times a unit random vector, rescaled so the
    mean absolute effect equals spec.effect_size; outcome means are w0.x
    and w1.x with w1 = w0 + delta, and each arm's noise SD is noise_factor
    times the SD of its systematic part.  Treating is optimal exactly where
    the effect is negative (smaller outcomes are better).
    """
    X = np.asarray(X, dtype=float)
    T = np.asarray(T)
    n, d = X.shape
    if not ((T == 0).any() and (T == 1).any()):
        raise DataError("both treatment arms must be present")

    prop = fit_linear(X, T.astype(float), family="logistic", penalty="none")
    beta_prop = _unit(np.asarray(prop.coefficients, dtype=float), "propensity coefficients")

    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    scale = 1.0 / np.sqrt(d)
    beta_rand = _unit(rng.normal(0.0, scale, d), "random direction")

    delta = np.sqrt(spec.lam) * beta_prop + np.sqrt(1.0 - spec.lam) * beta_rand
    a = float(np.mean(np.abs(X @ delta)))
    if a == 0.0:
        raise DataError("mean absolute effect is zero; cannot rescale")
    delta = delta * (spec.effect_size / a)

    w0 = rng.normal(0.0, scale, d)
    mu0 = X @ w0
    sigma0 = float(mu0.std())
    w1 = delta + w0
    mu1 = X @ w1
    sigma1 = float(mu1.std())

    eps0 = rng.normal(0.0, spec.noise_factor * sigma0, n)
    eps1 = rng.normal(0.0, spec.noise_factor * sigma1, n)
    return SimulatedOutcomes(
        y0=mu0 + eps0,
        y1=mu1 + eps1,
        mu0=mu0,
        mu1=mu1,
        delta=delta,
        w0=w0,
        w1=w1,
        sigma0=sigma0,
        sigma1=sigma1,
        beta_prop=beta_prop,
        beta_rand=beta_rand,
        optimal_policy=(X @ delta < 0.0).astype(np.int8),
    )


def true_policy_value(policy: Policy, outcomes: SimulatedOutcomes, treatment, expected: bool = False) -> float:
    """Mean outcome if recommendations were followed; deferred rows keep the
    factual arm.  With ``expected`` the noiseless outcome means are used."""
    t = np.asarray(treatment)
    y0 = outcomes.mu0 if expected else outcomes.y0
    y1 = outcomes.mu1 if expected else outcomes.y1
    if policy.rec.size != t.size or t.size != y0.size:
        raise ValueError("policy, treatment, and outcomes must cover the same rows")
    arm = np.where(policy.rec == DEFER, t, policy.rec)
    return float(np.where(arm == 1, y1, y0).mean())


def synthetic_covariates(n: int, d: int, seed: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Standard Gaussian covariates with treatment assigned by a random
    logistic rule; redraws the assignment if one arm comes up empty."""
    root = np.random.SeedSequence(seed)
    rng = np.random.default_rng(root)
    X = rng.normal(size=(n, d))
    gamma = rng.normal(0.0, 1.0 / np.sqrt(d), d)
    logits = X @ gamma
    p = 1.0 / (1.0 + np.exp(-logits))
    T = (rng.random(n) < p).astype(int)
    attempts = 0
    while not ((T == 0).any() and (T == 1).any()):
        attempts += 1
        if attempts > 10:
            raise DataError("could not draw both treatment arms")
        T = (rng.random(n) < p).astype(int)
    return X, T


@dataclass
class StudyReport:
    """Per-run policy values, their aggregates, and the validation checks."""

    rows: list
    aggregates: list
    checks: dict
    failures: list
    n_runs: int
    spec: dict
    policies: list = field(default_factory=list)

    @property
    def n_failed(self) -> int:
        return len(self.failures)

    def aggregate(self, policy: str) -> dict:
        for row in self.aggregates:
            if row["policy"] == policy:
                return row
        raise KeyError(policy)

    def to_dict(self) -> dict:
        return {
            "rows": self.rows,
            "aggregates": self.aggregates,
            "checks": self.checks,
            "failures": self.failures,
            "n_runs": self.n_runs,
            "spec": self.spec,
            "policies": self.policies,
        }


def _sem(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(values.std(ddof=1) / np.sqrt(values.size))


def run_study(
    X,
    T,
    sim_spec: SimulationSpec,
    menu: dict,
    *,
    runs: int = 5,
    seed: int | None = None,
    train_frac: float = 0.7,
    plug_in_spec: LearnerSpec | None = None,
    p_star_spec: LearnerSpec | None = None,
) -> StudyReport:
    """Validate the estimation stack against simulated ground truth.

    Each run re-simulates outcomes on standardized covariates, refits every
    menu meta-learner on a fresh train split, and values the policies on the
    held-out rows with evaluate's own ``fit_plug_in``, ``build_policy_set``
    and ``point_values`` (every ensemble mode, no deferral, ``STUDY_RULE``),
    next to their true values.  A run that raises is recorded as a failure
    and the study continues.
    """
    if runs < 2:
        raise ConfigError(f"need at least 2 runs, got {runs}")
    if not 0.0 < train_frac < 1.0:
        raise ConfigError(f"train_frac must be in (0, 1), got {train_frac}")
    if not menu:
        raise ConfigError("empty model menu")
    X = standardize(np.asarray(X, dtype=float))[0]
    T = np.asarray(T)
    plug_spec = plug_in_spec or LearnerSpec.from_dict(
        {"kind": "gbt", "n_trees": 100, "max_depth": 3, "min_samples_leaf": 10}
    )
    pstar_spec = p_star_spec or LearnerSpec.from_dict({"kind": "logistic", "lam": 1.0})
    columns = [ColumnInfo(f"x{j}", "numeric") for j in range(X.shape[1])]

    run_seeds = np.random.SeedSequence(seed).generate_state(3 * runs, dtype=np.uint32)
    rows: list[dict] = []
    failures: list[dict] = []
    policy_order: list[str] = []

    for r in range(runs):
        sim_seed = int(run_seeds[3 * r])
        split_seed = int(run_seeds[3 * r + 1])
        base_seed = int(run_seeds[3 * r + 2])
        try:
            run_rows = _one_run(
                X, T, sim_spec, menu, plug_spec, pstar_spec, columns,
                train_frac=train_frac,
                sim_seed=sim_seed,
                split_seed=split_seed,
                baseline_seed=base_seed,
            )
        except Exception as exc:  # noqa: BLE001 - a failed run must not kill the study
            failures.append({"run": r, "error": f"{type(exc).__name__}: {exc}"})
            continue
        for row in run_rows:
            row["run"] = r
            if row["policy"] not in policy_order:
                policy_order.append(row["policy"])
        rows.extend(run_rows)

    if not rows:
        raise DataError("every study run failed")

    aggregates = []
    for name in policy_order:
        sub = [row for row in rows if row["policy"] == name]
        agg = {"policy": name, "n_runs": len(sub)}
        for key in ("v_ipw", "v_dr", "v_true"):
            vals = np.array([row[key] for row in sub], dtype=float)
            agg[f"{key}_mean"] = float(vals.mean())
            agg[f"{key}_sem"] = _sem(vals)
        aggregates.append(agg)

    checks = _study_checks(rows, aggregates, menu)
    return StudyReport(
        rows=rows,
        aggregates=aggregates,
        checks=checks,
        failures=failures,
        n_runs=runs,
        spec=sim_spec.to_dict(),
        policies=policy_order,
    )


def _one_run(
    X, T, sim_spec, menu, plug_spec, pstar_spec, columns,
    *,
    train_frac, sim_seed, split_seed, baseline_seed,
) -> list[dict]:
    n = X.shape[0]
    outcomes = simulate_outcomes(X, T, replace(sim_spec, seed=sim_seed))
    y_obs = outcomes.observed(T)

    perm = np.random.default_rng(np.random.SeedSequence(split_seed)).permutation(n)
    n_train = int(round(train_frac * n))
    train_idx, test_idx = perm[:n_train], perm[n_train:]
    if train_idx.size < 4 or test_idx.size < 4:
        raise DataError("split leaves too few rows to fit or evaluate")

    train = Dataset(covariates=X[train_idx], columns=columns, treatment=T[train_idx], outcome=y_obs[train_idx])
    test = Dataset(covariates=X[test_idx], columns=columns, treatment=T[test_idx], outcome=y_obs[test_idx])
    out_test = outcomes.subset(test_idx)

    # evaluation propensity: plain L2 logistic on every row
    p_star_model = fit_classifier(pstar_spec, X, T)
    p_star_test = p_star_model.predict_proba(test.covariates)

    plug_test = fit_plug_in(plug_spec, train, test.covariates)
    taus = {
        name: fit_spec.fit(train, propensity=p_star_model).predict(test.covariates)
        for name, fit_spec in menu.items()
    }
    policies = build_policy_set(
        taus, STUDY_RULE, test, p_star_test, modes=ENSEMBLE_MODES, seed=baseline_seed
    )
    policies.append(Policy(name="optimal", rec=out_test.optimal_policy, source="baseline"))
    values = point_values(policies, test, p_star_test, plug_in=plug_test)

    return [
        {
            "policy": policy.name,
            "source": policy.source,
            "n_deferred": policy.n_deferred,
            "treated_fraction": policy.treated_fraction,
            "v_ipw": float(values["IPW"][i]),
            "v_dr": float(values["DR"][i]),
            "v_true": true_policy_value(policy, out_test, test.treatment),
        }
        for i, policy in enumerate(policies)
    ]


def _study_checks(rows: list, aggregates: list, menu: dict) -> dict:
    v_true = np.array([row["v_true"] for row in rows], dtype=float)
    v_dr = np.array([row["v_dr"] for row in rows], dtype=float)
    v_ipw = np.array([row["v_ipw"] for row in rows], dtype=float)
    pearson_dr = float(pearson(v_dr, v_true))
    pearson_ipw = float(pearson(v_ipw, v_true))
    fidelity = {
        "pearson_dr": pearson_dr,
        "pearson_ipw": pearson_ipw,
        "pass": bool(pearson_dr >= 0.9),
    }

    by_name = {row["policy"]: row for row in aggregates}
    doctors = by_name["doctors"]["v_true_mean"]
    optimal = by_name["optimal"]["v_true_mean"]
    # pick the menu policy with the best (lowest) estimated DR value
    selected = min(menu, key=lambda name: by_name[name]["v_dr_mean"])
    selected_true = by_name[selected]["v_true_mean"]
    improves = {
        "selected": selected,
        "selected_true": selected_true,
        "doctors_true": doctors,
        "pass": bool(selected_true < doctors),
    }
    gap = doctors - optimal
    closure = float((doctors - selected_true) / gap) if gap != 0.0 else float("nan")
    approaches = {
        "selected": selected,
        "optimal_true": optimal,
        "closure": closure,
        "pass": bool(gap != 0.0 and closure >= 0.5),
    }
    return {
        "fidelity": fidelity,
        "improves_on_current": improves,
        "approaches_optimal": approaches,
    }
