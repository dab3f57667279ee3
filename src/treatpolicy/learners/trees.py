"""Gradient boosted regression trees, squared and logistic loss.

Trees are grown greedily by variance reduction on the stage gradients g
(residuals y - F for squared loss, pseudo-residuals y - p for logistic loss)
with the exact search over presorted columns (Chen & Guestrin, KDD 2016):
each column is sorted once per fit, rows inside a run of tied values by row
id.  Thresholds are midpoints between consecutive distinct sorted values, or
the lower value where the midpoint rounds up onto the upper one; ties in gain
break toward the lowest feature index, then the lowest threshold.  Both
losses share one leaf rule, the Newton step sum(g) / sum(h) over the leaf's
rows, with hessian h = p (1 - p) for logistic loss and h = 1 for squared loss
(where the step is the mean residual).

Optional row weights w > 0 act as row counts: the search cumulates w g and w,
``min_samples_leaf`` bounds a child's summed weight, leaves take
sum(w g) / sum(w h), and the base score is the weighted mean.  A row with
integer weight c therefore fits as c copies of it would, up to rounding.
Without weights the arithmetic is the unweighted one.

Only a column that holds tied values can have equal neighbours in a node's
sorted rows, so the presort flags those columns once per fit and a node
compares sorted values in them alone; every other boundary is a candidate.

There is no row or feature subsampling, so fits are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..errors import DataError
from .linear import _check_weights, sigmoid

__all__ = ["Tree", "BoostedTreesModel", "fit_gbt"]

LEAF = -1


@dataclass
class Tree:
    """One regression tree in flat-array form.

    ``feature[i] == -1`` marks node i as a leaf with prediction ``value[i]``;
    otherwise rows with ``x[feature[i]] <= threshold[i]`` go to ``left[i]``.
    """

    feature: list[int] = field(default_factory=list)
    threshold: list[float] = field(default_factory=list)
    left: list[int] = field(default_factory=list)
    right: list[int] = field(default_factory=list)
    value: list[float] = field(default_factory=list)

    def add_leaf(self, value: float) -> int:
        return self._add(LEAF, 0.0, LEAF, LEAF, value)

    def add_split(self, feature: int, threshold: float) -> int:
        return self._add(feature, threshold, LEAF, LEAF, 0.0)

    def _add(self, f, t, l, r, v) -> int:
        self.feature.append(int(f))
        self.threshold.append(float(t))
        self.left.append(int(l))
        self.right.append(int(r))
        self.value.append(float(v))
        return len(self.feature) - 1

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = np.empty(X.shape[0])
        stack = [(0, np.arange(X.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if self.feature[node] == LEAF:
                out[idx] = self.value[node]
                continue
            go_left = X[idx, self.feature[node]] <= self.threshold[node]
            stack.append((self.left[node], idx[go_left]))
            stack.append((self.right[node], idx[~go_left]))
        return out

    def to_dict(self) -> dict:
        return {
            "feature": list(self.feature),
            "threshold": [float(t) for t in self.threshold],
            "left": list(self.left),
            "right": list(self.right),
            "value": [float(v) for v in self.value],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Tree":
        return cls(
            feature=list(d["feature"]),
            threshold=[float(t) for t in d["threshold"]],
            left=list(d["left"]),
            right=list(d["right"]),
            value=[float(v) for v in d["value"]],
        )


def _best_split(fit, g, rows, S):
    """Best (feature, threshold, cut) by variance reduction over one node.

    Row j of ``S`` holds the node's ``rows`` sorted by feature j, and ``g`` is
    the gradient times the row weight.  Returns None when no split strictly
    improves the squared-error criterion.
    """
    d, m = S.shape
    min_leaf, w = fit.min_leaf, fit.w
    size = m if w is None else float(w[rows].sum())
    if d == 0 or m < 2 or size < 2 * min_leaf:
        return None
    total = float(g[rows].sum())
    if w is None:
        left_sum, k = np.cumsum(g[S], axis=1)[:, :-1], np.arange(1, m)
    else:  # one complex cumsum runs both sums, each in its own exact order
        both = np.cumsum(fit.gw[S], axis=1)[:, :-1]
        left_sum, k = both.real, both.imag
    gain = left_sum**2 / k + (total - left_sum) ** 2 / (size - k) - total * total / size
    if w is not None:
        gain[(k < min_leaf) | (size - k < min_leaf)] = -np.inf
    elif min_leaf > 1:
        gain[:, : min_leaf - 1] = -np.inf
        gain[:, m - min_leaf :] = -np.inf
    if fit.tied.size:  # a boundary between equal values is no threshold
        xs = np.take_along_axis(fit.x_tied, S[fit.tied], axis=1)
        part = gain[fit.tied]
        part[xs[:, 1:] == xs[:, :-1]] = -np.inf
        gain[fit.tied] = part
    feat, pos = divmod(int(np.argmax(gain)), m - 1)  # lowest feature, then threshold
    if not gain[feat, pos] > 1e-12:
        return None
    lo, hi = fit.X[S[feat, pos], feat], fit.X[S[feat, pos + 1], feat]
    thr = 0.5 * (lo + hi)
    return feat, (thr if thr < hi else lo), pos + 1


class _Fit(NamedTuple):
    """What every node of one fit's trees reads: the covariates, the row weights
    (None for unit weights) and w g + i w for the tree being grown, the columns
    holding ties with their values, and the growth limits."""

    X: np.ndarray
    w: np.ndarray | None
    gw: np.ndarray | None
    tied: np.ndarray
    x_tied: np.ndarray
    max_depth: int
    min_leaf: int


def _grow(tree, fit, g, h, rows, S, depth, step):
    split = None if depth >= fit.max_depth else _best_split(fit, g, rows, S)
    if split is None:
        # the Newton step is the tree's prediction for these rows
        step[rows] = value = float(g[rows].sum() / max(h[rows].sum(), 1e-12))
        return tree.add_leaf(value)
    feat, thr, cut = split
    node = tree.add_split(feat, thr)
    # a stable partition by the split keeps every feature's row order sorted
    depth += 1
    left = right = None  # a leaf reads its rows only
    if depth < fit.max_depth:
        go_left = np.zeros(step.size, dtype=bool)
        go_left[S[feat, :cut]] = True
        mask = go_left[S].ravel()
        # np.compress, not boolean indexing: the same rows, faster on nodes of hundreds of rows
        flat, d = S.ravel(), len(S)
        left = np.compress(mask, flat).reshape(d, cut)
        right = np.compress(~mask, flat).reshape(d, -1)
    tree.left[node] = _grow(tree, fit, g, h, S[feat, :cut], left, depth, step)
    tree.right[node] = _grow(tree, fit, g, h, S[feat, cut:], right, depth, step)
    return node


@dataclass
class BoostedTreesModel:
    base_score: float
    learning_rate: float
    loss: str
    trees: list[Tree]
    n_features: int

    def raw_predict(self, X, n_trees: int | None = None) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got shape {X.shape}")
        use = self.trees if n_trees is None else self.trees[:n_trees]
        out = np.full(X.shape[0], self.base_score)
        for tree in use:
            out += self.learning_rate * tree.predict(X)
        return out

    def predict(self, X, n_trees: int | None = None) -> np.ndarray:
        raw = self.raw_predict(X, n_trees)
        if self.loss == "logistic":
            return sigmoid(raw)
        return raw

    def predict_proba(self, X, n_trees: int | None = None) -> np.ndarray:
        if self.loss != "logistic":
            raise ValueError("predict_proba requires logistic loss")
        return sigmoid(self.raw_predict(X, n_trees))

    def to_dict(self) -> dict:
        return {
            "base_score": float(self.base_score),
            "learning_rate": float(self.learning_rate),
            "loss": self.loss,
            "trees": [t.to_dict() for t in self.trees],
            "n_features": int(self.n_features),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BoostedTreesModel":
        return cls(
            base_score=float(d["base_score"]),
            learning_rate=float(d["learning_rate"]),
            loss=d["loss"],
            trees=[Tree.from_dict(t) for t in d["trees"]],
            n_features=int(d["n_features"]),
        )


def fit_gbt(
    X,
    y,
    *,
    loss: str = "squared",
    n_trees: int = 200,
    max_depth: int = 3,
    learning_rate: float = 0.1,
    min_samples_leaf: int = 1,
    sample_weight=None,
) -> BoostedTreesModel:
    """Fit a gradient boosted trees model, optionally with row weights.

    A constant target yields a single-leaf model (every tree degenerates to a
    zero leaf), never an error.  ``sample_weight`` must hold one finite weight
    > 0 per row.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    if y.shape != (X.shape[0],):
        raise ValueError("y length does not match X")
    if X.shape[0] == 0:
        raise DataError("cannot fit on an empty dataset")
    if loss not in ("squared", "logistic"):
        raise ValueError(f"unknown loss {loss!r}")
    if n_trees < 0 or max_depth < 1 or min_samples_leaf < 1:
        raise ValueError("n_trees, max_depth, min_samples_leaf out of range")
    w = None if sample_weight is None else _check_weights(sample_weight, X.shape[0])

    n = X.shape[0]
    S0 = np.argsort(X.T, axis=1, kind="stable")  # shared by every tree
    xs = np.take_along_axis(X.T, S0, axis=1)
    tied = np.flatnonzero((xs[:, 1:] == xs[:, :-1]).any(axis=1))
    gw = None if w is None else w * 1j
    fit = _Fit(X, w, gw, tied, np.ascontiguousarray(X.T[tied]), max_depth, min_samples_leaf)

    y_bar = float(y.mean() if w is None else (w * y).sum() / w.sum())
    if loss == "logistic":
        if not np.all(np.isin(y, (0.0, 1.0))):
            raise DataError("logistic loss requires 0/1 targets")
        p_bar = float(np.clip(y_bar, 1e-6, 1.0 - 1e-6))
        base = float(np.log(p_bar / (1.0 - p_bar)))
    else:
        base = y_bar

    F = np.full(n, base)
    h = np.ones(n)  # the squared-loss hessian
    trees: list[Tree] = []
    for _ in range(n_trees):
        if loss == "logistic":
            p = sigmoid(F)
            g = y - p
            h = np.clip(p * (1.0 - p), 1e-12, None)
        else:
            g = y - F
        tree = Tree()
        step = np.empty(n)
        wg, wh = (g, h) if w is None else (w * g, w * h)
        if gw is not None:
            gw.real = wg
        _grow(tree, fit, wg, wh, np.arange(n), S0, 0, step)
        trees.append(tree)
        F += learning_rate * step

    return BoostedTreesModel(
        base_score=base,
        learning_rate=learning_rate,
        loss=loss,
        trees=trees,
        n_features=X.shape[1],
    )
