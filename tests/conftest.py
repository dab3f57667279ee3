import os

import numpy as np
import pytest

from treatpolicy.errors import DataError
from treatpolicy.ingest import ColumnInfo, Dataset
from treatpolicy.policy_eval import point_values


def make_dataset(cov, t, y, columns=None, split=None):
    cov = np.asarray(cov, dtype=float)
    if columns is None:
        columns = [ColumnInfo(f"x{j}", "numeric") for j in range(cov.shape[1])]
    return Dataset(
        covariates=cov,
        columns=columns,
        treatment=np.asarray(t),
        outcome=np.asarray(y, dtype=float),
        split=None if split is None else np.asarray(split, dtype="<U10"),
    )


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


def see_cpus(monkeypatch, n):
    """Let ``pmap`` start up to n workers: with 1 it runs every task in this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.fixture
def one_worker(monkeypatch):
    """Run every ``pmap`` in the test's own process, for tests that watch what it calls."""
    see_cpus(monkeypatch, 1)


def ipw_value(policy, data, p_star):
    """One policy's IPW point value through the shared valuation path."""
    return point_values([policy], data, p_star, estimators=("IPW",))["IPW"][0]


def dr_value(policy, data, p_star, plug_in):
    """One policy's DR point value through the shared valuation path."""
    return point_values([policy], data, p_star, estimators=("DR",), plug_in=plug_in)["DR"][0]


def linear_dataset(n, d, beta, effect, seed, noise=1.0, t_prob=0.5):
    """Rows with y = x @ beta + t * effect(x) + eps; effect may be scalar or callable."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    t = (rng.random(n) < t_prob).astype(int)
    if callable(effect):
        tau = effect(X)
    else:
        tau = np.full(n, float(effect))
    y = X @ np.asarray(beta, dtype=float) + t * tau + rng.normal(scale=noise, size=n)
    return make_dataset(X, t, y), tau


def write_observational_csv(path, n=400, d=4, seed=7):
    """Overlapping two-arm table with an effect that varies in x2."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    e = 1.0 / (1.0 + np.exp(-(0.8 * X[:, 0] - 0.5 * X[:, 1])))
    t = (rng.random(n) < e).astype(int)
    beta = np.zeros(d)
    beta[:3] = [1.0, -0.5, 0.25]
    y = X @ beta + t * (0.8 + 0.5 * X[:, 2]) + rng.normal(scale=0.5, size=n)
    names = [f"x{j}" for j in range(d)] + ["treat", "outcome"]
    lines = [",".join(names)]
    for i in range(n):
        cells = [repr(float(v)) for v in X[i]] + [str(int(t[i])), repr(float(y[i]))]
        lines.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def pipeline_raw(csv_path, out_dir, **extra):
    """Small but nondegenerate pipeline config; sections in extra merge over it."""
    raw = {
        "data": {"path": str(csv_path), "treatment": "treat", "outcome": "outcome"},
        "cate": {
            "menu": {
                "t-ridge": {"kind": "t", "learner": {"kind": "ridge", "lam": 1.0}},
                "s-ols": {"kind": "s", "learner": {"kind": "ols"}},
            },
            "ensembles": ["average", "majority"],
        },
        "uncertainty": {"alpha_stat": 0.8, "b_boot": 40},
        "evaluation": {"bootstrap_b": 80, "plug_in": {"kind": "ridge", "lam": 1.0}},
        "identification": {"acknowledged": True},
        "output_dir": str(out_dir),
    }
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(raw.get(key), dict):
            raw[key] = {**raw[key], **value}
        else:
            raw[key] = value
    return raw
