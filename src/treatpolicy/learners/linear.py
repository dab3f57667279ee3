"""Linear models: least squares and logistic, with none/L1/L2 penalties.

Objectives (penalties never touch the intercept):

* least-squares: 0.5 * ||y - b - X beta||^2 + penalty
* logistic:      sum_i log(1 + exp(-s_i eta_i)) + penalty   (s in {-1, +1})

with penalty = lam * ||beta||_1 for L1 and 0.5 * lam * ||beta||^2 for L2, on
the raw sum scale, so the L2 least-squares solution without intercept is the
closed form (X'X + lam I)^(-1) X'y.

Solvers: one weighted least-squares core minimises
0.5 * sum_i w_i (z_i - b - x_i beta)^2 + penalty.  Weighted centring removes
the intercept and sqrt(w)-scaled rows leave an unweighted problem: one linear
solve for none/L2, cyclic coordinate descent to a coefficient-change plus
duality-gap tolerance for L1.  Least squares calls the core once with unit
weights.  Logistic runs damped Newton as iteratively reweighted least squares:
each step calls the core on the working response eta + (y - p) / w with
weights w = p (1 - p), then halves the step until the penalized loss does not
increase.  All fits are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConvergenceError, DataError

__all__ = ["LinearModel", "fit_linear"]

FAMILIES = ("least-squares", "logistic")
PENALTIES = ("none", "l1", "l2")


def sigmoid(eta: np.ndarray) -> np.ndarray:
    out = np.empty_like(eta, dtype=float)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ex = np.exp(eta[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass
class LinearModel:
    coefficients: np.ndarray
    intercept: float
    family: str
    penalty: str
    lam: float
    n_iter: int = 0

    def decision_function(self, X) -> np.ndarray:
        return np.asarray(X, dtype=float) @ self.coefficients + self.intercept

    def predict(self, X) -> np.ndarray:
        eta = self.decision_function(X)
        if self.family == "logistic":
            return sigmoid(eta)
        return eta

    def predict_proba(self, X) -> np.ndarray:
        if self.family != "logistic":
            raise ValueError("predict_proba requires a logistic model")
        return sigmoid(self.decision_function(X))

    def to_dict(self) -> dict:
        return {
            "coefficients": [float(c) for c in self.coefficients],
            "intercept": float(self.intercept),
            "family": self.family,
            "penalty": self.penalty,
            "lam": float(self.lam),
            "n_iter": int(self.n_iter),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LinearModel":
        return cls(
            coefficients=np.asarray(d["coefficients"], dtype=float),
            intercept=float(d["intercept"]),
            family=d["family"],
            penalty=d["penalty"],
            lam=float(d["lam"]),
            n_iter=int(d["n_iter"]),
        )


def fit_linear(
    X,
    y,
    *,
    family: str = "least-squares",
    penalty: str = "none",
    lam: float = 0.0,
    fit_intercept: bool = True,
    tol: float = 1e-6,
    max_iter: int | None = None,
    sample_weight=None,
) -> LinearModel:
    """Fit a linear model; see the module docstring for objectives and solvers.

    ``sample_weight`` weights each row's squared error (least squares only),
    so integer weights fit as many copies of each row would.

    Raises ConvergenceError (carrying the last iterate and residual gap) if an
    iterative solver exhausts its iteration cap.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    if y.shape != (X.shape[0],):
        raise ValueError("y length does not match X")
    if X.shape[0] == 0:
        raise DataError("cannot fit on an empty dataset")
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if penalty not in PENALTIES:
        raise ValueError(f"unknown penalty {penalty!r}")
    if lam < 0:
        raise ValueError("lam must be non-negative")
    if penalty == "none":
        lam = 0.0

    if family == "least-squares":
        w = None if sample_weight is None else _check_weights(sample_weight, X.shape[0])
        beta0 = np.zeros(X.shape[1])
        return _weighted_fit(X, y, w, beta0, penalty, lam, fit_intercept, tol, max_iter or 1000)
    if sample_weight is not None:
        raise ValueError("sample_weight is taken by the least-squares family only")
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise DataError("logistic family requires 0/1 targets")
    return _fit_logistic(X, y, penalty, lam, fit_intercept, tol, max_iter or 200)


def _check_weights(sample_weight, n: int) -> np.ndarray:
    w = np.asarray(sample_weight, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"sample_weight has shape {w.shape}, expected ({n},)")
    if not np.isfinite(w).all():
        raise ValueError("sample_weight must be finite")
    if not (w > 0).all():
        raise ValueError("sample_weight must be > 0")
    return w


def _weighted_fit(X, z, w, beta, penalty, lam, fit_intercept, tol, max_iter) -> LinearModel:
    """Minimise 0.5 * sum_i w_i (z_i - b - x_i beta)^2 + penalty over (b, beta).

    ``w=None`` means unit weights and skips the row scaling.  The L1 solve
    starts from ``beta``; past ``max_iter`` sweeps it raises ConvergenceError
    carrying the last iterate, intercept included.
    """
    if fit_intercept:
        if w is None:
            xm, zm = X.mean(axis=0), float(z.mean())
        else:
            w_sum = float(w.sum())
            xm, zm = (w @ X) / w_sum, float(w @ z) / w_sum
        X, z = X - xm, z - zm
    if w is not None:
        sw = np.sqrt(w)
        X, z = X * sw[:, None], z * sw
    if penalty == "l1":
        beta = beta.copy()
        col_sq = (X * X).sum(axis=0)
        converged, n_iter, gap = _cd_sweeps(X, z, beta, z - X @ beta, col_sq, lam, tol, max_iter)
    else:
        gram = X.T @ X + lam * np.eye(X.shape[1])
        rhs = X.T @ z
        try:
            beta = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            beta = np.linalg.lstsq(gram, rhs, rcond=None)[0]
        converged, n_iter = True, 0
    intercept = zm - float(xm @ beta) if fit_intercept else 0.0
    model = LinearModel(beta, intercept, "least-squares", penalty, lam, n_iter)
    if not converged:
        raise ConvergenceError(
            f"coordinate descent did not converge in {max_iter} sweeps (gap {gap:.3e})",
            last_model=model,
            gap=gap,
        )
    return model


def _soft_threshold(z: float, t: float) -> float:
    if z > t:
        return z - t
    if z < -t:
        return z + t
    return 0.0


def _lasso_gap(Xc, yc, beta, resid, lam) -> float:
    # duality gap for 0.5*||yc - Xc b||^2 + lam*||b||_1 with the scaled
    # residual as the dual candidate; lam == 0 falls back to the normal
    # equations residual
    corr = float(np.abs(Xc.T @ resid).max(initial=0.0))
    if lam <= 0.0:
        return corr
    primal = 0.5 * float(resid @ resid) + lam * float(np.abs(beta).sum())
    scale = min(1.0, lam / corr) if corr > lam else 1.0
    theta = scale * resid
    dual = 0.5 * float(yc @ yc) - 0.5 * float((theta - yc) @ (theta - yc))
    return primal - dual


def _cd_sweeps(Xc, yc, beta, resid, col_sq, lam, tol, max_iter):
    """Cyclic coordinate descent on 0.5*||yc - Xc b||^2 + lam*||b||_1.

    Updates ``beta`` and ``resid`` in place; returns (converged, n_sweeps, gap).
    """
    d = Xc.shape[1]
    for sweep in range(1, max_iter + 1):
        max_delta = 0.0
        for j in range(d):
            if col_sq[j] == 0.0:
                continue
            old = beta[j]
            if old != 0.0:
                resid += Xc[:, j] * old
            rho = float(Xc[:, j] @ resid)
            new = _soft_threshold(rho, lam) / col_sq[j]
            if new != 0.0:
                resid -= Xc[:, j] * new
            beta[j] = new
            max_delta = max(max_delta, abs(new - old))
        if max_delta < tol * max(1.0, float(np.abs(beta).max(initial=0.0))):
            gap = _lasso_gap(Xc, yc, beta, resid, lam)
            if gap < tol or max_delta == 0.0:
                return True, sweep, gap
    return False, max_iter, _lasso_gap(Xc, yc, beta, resid, lam)


def _logistic_loss(eta, y, lam_l2, lam_l1, beta):
    ce = float(np.sum(np.logaddexp(0.0, eta) - y * eta))
    return ce + 0.5 * lam_l2 * float(beta @ beta) + lam_l1 * float(np.abs(beta).sum())


def _fit_logistic(X, y, penalty, lam, fit_intercept, tol, max_iter) -> LinearModel:
    n, d = X.shape
    lam_l2 = lam if penalty == "l2" else 0.0
    lam_l1 = lam if penalty == "l1" else 0.0
    beta = np.zeros(d)
    intercept = 0.0
    eta = np.zeros(n)
    loss = _logistic_loss(eta, y, lam_l2, lam_l1, beta)
    inner_tol = max(tol / 10.0, 1e-10)

    for iteration in range(1, max_iter + 1):
        # Newton step == weighted least squares on the working response
        p = sigmoid(eta)
        w = np.clip(p * (1.0 - p), 1e-10, None)
        z = eta + (y - p) / w
        try:
            fit = _weighted_fit(X, z, w, beta, penalty, lam, fit_intercept, inner_tol, 100)
        except ConvergenceError as err:  # an inner L1 solve may stop short
            fit = err.last_model
        new_beta, new_intercept = fit.coefficients, fit.intercept

        # damping: halve the step until the penalized loss does not increase
        scale = 1.0
        for _ in range(40):
            cand_beta = beta + scale * (new_beta - beta)
            cand_int = intercept + scale * (new_intercept - intercept)
            cand_eta = X @ cand_beta + cand_int
            cand_loss = _logistic_loss(cand_eta, y, lam_l2, lam_l1, cand_beta)
            if cand_loss <= loss + 1e-12:
                break
            scale *= 0.5
        delta = max(
            float(np.abs(cand_beta - beta).max(initial=0.0)), abs(cand_int - intercept)
        )
        beta, intercept, eta, loss = cand_beta, cand_int, cand_eta, cand_loss
        if delta < tol:
            return LinearModel(beta, intercept, "logistic", penalty, lam, iteration)

    grad_norm = float(np.abs(X.T @ (sigmoid(eta) - y) + lam_l2 * beta).max(initial=0.0))
    raise ConvergenceError(
        f"logistic fit did not converge in {max_iter} iterations "
        f"(max |gradient| {grad_norm:.3e})",
        last_model=LinearModel(beta, intercept, "logistic", penalty, lam, max_iter),
        gap=grad_norm,
    )
