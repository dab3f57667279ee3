"""Conditional average treatment effect estimation via meta-learners.

Three fit strategies over a shared learner menu:

* "s": one model f(x, t) with the arm appended as a feature;
  tau(x) = f(x, 1) - f(x, 0).
* "t": per-arm outcome models mu_0, mu_1; tau(x) = mu_1(x) - mu_0(x).
* "x": per-arm outcome models first, then imputed-effect regressions
  (y - mu_0(x) on treated rows, mu_1(x) - y on controls), blended by the
  propensity score g(x): tau(x) = g(x) tau_c(x) + (1 - g(x)) tau_t(x).

A point fit keeps per-arm pools of sorted training residuals (y - predicted
outcome under the observed arm), which intervals tilt; bootstrap refits build
none.  Row weights reach every base fit (the design rows for "s", each arm's
rows for "t" and both stages of "x"), so a bootstrap refit fits each drawn
row once with its count as weight.
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

__all__ = ["CateModel", "fit_meta_learner"]

KINDS = ("s", "t", "x")


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

    def predict_outcome(self, X, t) -> np.ndarray:
        """Predicted outcome of each row under its observed arm ``t``."""
        X = np.asarray(X, dtype=float)
        t = np.asarray(t)
        if self.kind == "s":
            return self.components["f"].predict(np.hstack([X, t.astype(float)[:, None]]))
        return np.where(
            t == 1, self.components["mu1"].predict(X), self.components["mu0"].predict(X)
        )


def fit_meta_learner(
    kind: str,
    train: Dataset,
    spec: LearnerSpec,
    *,
    propensity=None,
    g_constant: float | None = None,
    pools: bool = True,
    weights=None,
) -> CateModel:
    """Fit one meta-learner on the train rows, each weighted by ``weights`` if given.

    The "x" kind needs either a propensity scorer or a constant blend weight.
    Each arm must hold at least two rows, counted by weight.  With ``pools``
    false the model gets no residual pools, which only a point fit's intervals
    read; a weighted fit must pass ``pools=False``.
    """
    kind = kind.lower()
    if kind not in KINDS:
        raise ValueError(f"unknown meta-learner kind {kind!r}")
    X = train.covariates
    y = train.outcome
    t = train.treatment.astype(int)
    treated = t == 1
    if weights is None:
        w = w0 = w1 = None
        sizes = int((~treated).sum()), int(treated.sum())
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != t.shape:
            raise ValueError(f"weights have shape {w.shape}, expected ({len(t)},)")
        if pools:
            raise ValueError("residual pools come from unweighted rows; pass pools=False")
        w0, w1 = w[~treated], w[treated]
        sizes = float(w0.sum()), float(w1.sum())
    if min(sizes) < 2:
        raise DataError(
            f"need at least two rows per arm, got {sizes[0]} control and {sizes[1]} treated"
        )

    if kind == "s":
        design = np.hstack([X, t.astype(float)[:, None]])
        components = {"f": fit_regressor(spec, design, y, w)}
    else:
        mu0 = fit_regressor(spec, X[~treated], y[~treated], w0)
        mu1 = fit_regressor(spec, X[treated], y[treated], w1)
        components = {"mu0": mu0, "mu1": mu1}
        if kind == "x":
            if propensity is None and g_constant is None:
                raise ValueError(
                    "x kind needs a propensity scorer or a constant blend weight"
                )
            d_treated = y[treated] - mu0.predict(X[treated])
            d_control = mu1.predict(X[~treated]) - y[~treated]
            components["tau_treated"] = fit_regressor(spec, X[treated], d_treated, w1)
            components["tau_control"] = fit_regressor(spec, X[~treated], d_control, w0)

    model = CateModel(
        kind=kind,
        family=spec.kind,
        components=components,
        residual_pools={},
        g_constant=g_constant,
        propensity=propensity if kind == "x" else None,
    )
    if pools:
        fitted = components["f"].predict(design) if kind == "s" else model.predict_outcome(X, t)
        residuals = y - fitted
        model.residual_pools = {
            0: np.sort(residuals[~treated]),
            1: np.sort(residuals[treated]),
        }
    return model


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
