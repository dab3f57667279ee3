"""Conditional average treatment effect estimation via meta-learners.

Three fit strategies over a shared learner menu:

* "s": one model f(x, t) with the arm appended as a feature;
  tau(x) = f(x, 1) - f(x, 0).
* "t": per-arm outcome models mu_0, mu_1; tau(x) = mu_1(x) - mu_0(x).
* "x": per-arm outcome models first, then imputed-effect regressions
  (y - mu_0(x) on treated rows, mu_1(x) - y on controls), blended by the
  propensity score g(x): tau(x) = g(x) tau_c(x) + (1 - g(x)) tau_t(x).

Every fitted model keeps per-arm pools of sorted training residuals
(y - predicted outcome under the observed arm); the sensitivity analysis in
the interval machinery tilts these pools.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from ..ingest import Dataset
from ..learners import (
    LearnerSpec,
    decode_model,
    encode_model,
    fit_regressor,
    register_codec,
)

__all__ = ["CateModel", "CateEnsemble", "ENSEMBLE_MODES", "fit_meta_learner", "ensemble_cate"]

KINDS = ("s", "t", "x")

ENSEMBLE_MODES = ("average", "majority", "consensus")


@dataclass
class CateModel:
    kind: str
    family: str
    components: dict
    residual_pools: dict
    g_constant: float | None = None
    propensity: object | None = None

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if self.kind == "s":
            f = self.components["f"]
            ones = np.ones((X.shape[0], 1))
            return f.predict(np.hstack([X, ones])) - f.predict(
                np.hstack([X, np.zeros((X.shape[0], 1))])
            )
        if self.kind == "t":
            return self.components["mu1"].predict(X) - self.components["mu0"].predict(X)
        tau_c = self.components["tau_control"].predict(X)
        tau_t = self.components["tau_treated"].predict(X)
        g = self._g(X)
        return g * tau_c + (1.0 - g) * tau_t

    def _g(self, X) -> np.ndarray:
        if self.g_constant is not None:
            return np.full(X.shape[0], float(self.g_constant))
        return np.asarray(self.propensity.predict(X), dtype=float)

    def predict_with_defer(self, X) -> tuple[np.ndarray, np.ndarray]:
        tau = self.predict(X)
        return tau, np.zeros(tau.shape[0], dtype=bool)


def fit_meta_learner(
    kind: str,
    train: Dataset,
    spec: LearnerSpec,
    *,
    propensity=None,
    g_constant: float | None = None,
) -> CateModel:
    """Fit one meta-learner on the train rows.

    The "x" kind needs either a propensity scorer or a constant blend weight.
    Each arm must hold at least two rows.
    """
    kind = kind.lower()
    if kind not in KINDS:
        raise ValueError(f"unknown meta-learner kind {kind!r}")
    X = train.covariates
    y = train.outcome
    t = train.treatment.astype(int)
    treated = t == 1
    if treated.sum() < 2 or (~treated).sum() < 2:
        raise DataError(
            f"need at least two rows per arm, got {int((~treated).sum())} control "
            f"and {int(treated.sum())} treated"
        )

    if kind == "s":
        Xa = np.hstack([X, t.astype(float)[:, None]])
        f = fit_regressor(spec, Xa, y)
        fitted_obs = f.predict(Xa)
        components = {"f": f}
    else:
        mu0 = fit_regressor(spec, X[~treated], y[~treated])
        mu1 = fit_regressor(spec, X[treated], y[treated])
        fitted_obs = np.where(treated, mu1.predict(X), mu0.predict(X))
        components = {"mu0": mu0, "mu1": mu1}
        if kind == "x":
            if propensity is None and g_constant is None:
                raise ValueError(
                    "x kind needs a propensity scorer or a constant blend weight"
                )
            d_treated = y[treated] - mu0.predict(X[treated])
            d_control = mu1.predict(X[~treated]) - y[~treated]
            components["tau_treated"] = fit_regressor(spec, X[treated], d_treated)
            components["tau_control"] = fit_regressor(spec, X[~treated], d_control)

    residuals = y - fitted_obs
    pools = {
        0: np.sort(residuals[~treated]),
        1: np.sort(residuals[treated]),
    }
    return CateModel(
        kind=kind,
        family=spec.kind,
        components=components,
        residual_pools=pools,
        g_constant=g_constant,
        propensity=propensity if kind == "x" else None,
    )


@dataclass
class CateEnsemble:
    """Combines member effect estimates into one policy-ready scorer.

    Modes: "average" passes the mean effect through on the original scale;
    "majority" takes a sign vote (tau >= 0 counts positive) and outputs a
    +1/-1 pseudo-effect, deferring exact ties; "consensus" outputs the
    shared sign only on unanimity and defers otherwise.  Deferred rows get
    pseudo-effect 0 alongside a True defer flag.
    """

    members: list
    mode: str

    @property
    def kind(self) -> str:
        return f"ensemble-{self.mode}"

    def predict_with_defer(self, X) -> tuple[np.ndarray, np.ndarray]:
        taus = np.stack([m.predict(X) for m in self.members])
        if self.mode == "average":
            return taus.mean(axis=0), np.zeros(taus.shape[1], dtype=bool)
        n_members = len(self.members)
        n_plus = (taus >= 0.0).sum(axis=0)
        if self.mode == "majority":
            plus = n_plus * 2 > n_members
            minus = n_plus * 2 < n_members
        elif self.mode == "consensus":
            plus = n_plus == n_members
            minus = n_plus == 0
        else:
            raise ValueError(f"unknown ensemble mode {self.mode!r}")
        defer = ~(plus | minus)
        pseudo = np.where(plus, 1.0, -1.0)
        pseudo = np.where(defer, 0.0, pseudo)
        return pseudo, defer

    def predict(self, X) -> np.ndarray:
        return self.predict_with_defer(X)[0]


def ensemble_cate(models, mode: str) -> CateEnsemble:
    """Build an ensemble scorer over at least two fitted members."""
    models = list(models)
    if len(models) < 2:
        raise ValueError("ensemble needs at least two members")
    if mode not in ENSEMBLE_MODES:
        raise ValueError(f"unknown ensemble mode {mode!r}")
    return CateEnsemble(members=models, mode=mode)


def _encode_cate(m: CateModel) -> dict:
    return {
        "kind": m.kind,
        "family": m.family,
        "components": {k: encode_model(v) for k, v in m.components.items()},
        "residual_pools": {str(k): [float(x) for x in v] for k, v in m.residual_pools.items()},
        "g_constant": m.g_constant,
        "propensity": None if m.propensity is None else encode_model(m.propensity),
    }


def _decode_cate(d: dict) -> CateModel:
    return CateModel(
        kind=d["kind"],
        family=d["family"],
        components={k: decode_model(v) for k, v in d["components"].items()},
        residual_pools={int(k): np.asarray(v, dtype=float) for k, v in d["residual_pools"].items()},
        g_constant=d["g_constant"],
        propensity=None if d["propensity"] is None else decode_model(d["propensity"]),
    )


register_codec("cate", CateModel, _encode_cate, _decode_cate)
