from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treatpolicy.errors import DataError
from treatpolicy.learners.linear import sigmoid
from treatpolicy.learners import decode_model, encode_model
from treatpolicy.learners.trees import BoostedTreesModel, Tree, fit_gbt


def _oracle_best_split(X, g, idx, min_leaf):
    """The per-node, per-feature search that presorting replaced.

    Each feature is sorted at each node; rows inside a run of tied values are
    ordered by row id, and a midpoint that rounds up onto the upper value is
    replaced by the lower one.
    """
    m = idx.size
    if m < 2 * min_leaf:
        return None
    best = None  # (gain, feature, threshold, sorted order, split position)
    g_node = g[idx]
    total = float(g_node.sum())
    base = total * total / m
    for j in range(X.shape[1]):
        xs_raw = X[idx, j]
        order = np.lexsort((idx, xs_raw))
        xs = xs_raw[order]
        if xs[0] == xs[-1]:
            continue
        gs = g_node[order]
        left_sum = np.cumsum(gs)[:-1]
        k = np.arange(1, m)
        valid = xs[1:] != xs[:-1]
        if min_leaf > 1:
            valid &= (k >= min_leaf) & (m - k >= min_leaf)
        if not valid.any():
            continue
        right_sum = total - left_sum
        gain = left_sum**2 / k + right_sum**2 / (m - k) - base
        gain = np.where(valid, gain, -np.inf)
        pos = int(np.argmax(gain))
        if gain[pos] > 1e-12 and (best is None or gain[pos] > best[0]):
            thr = 0.5 * (xs[pos] + xs[pos + 1])
            if thr >= xs[pos + 1]:
                thr = xs[pos]
            best = (float(gain[pos]), j, thr, order, pos + 1)
    return best


def _oracle_grow(tree, X, g, idx, depth, max_depth, min_leaf, leaf_value):
    split = None if depth >= max_depth else _oracle_best_split(X, g, idx, min_leaf)
    if split is None:
        return tree.add_leaf(leaf_value(idx))
    _gain, feat, thr, order, cut = split
    node = tree.add_split(feat, thr)
    args = (depth + 1, max_depth, min_leaf, leaf_value)
    tree.left[node] = _oracle_grow(tree, X, g, idx[order[:cut]], *args)
    tree.right[node] = _oracle_grow(tree, X, g, idx[order[cut:]], *args)
    return node


def oracle_fit_gbt(X, y, *, loss, n_trees, max_depth, learning_rate, min_samples_leaf):
    """Boosting with the oracle search and a full prediction after each tree."""
    if loss == "logistic":
        p_bar = float(np.clip(y.mean(), 1e-6, 1.0 - 1e-6))
        base = float(np.log(p_bar / (1.0 - p_bar)))
    else:
        base = float(y.mean())
    F = np.full(X.shape[0], base)
    trees = []
    for _ in range(n_trees):
        if loss == "logistic":
            p = sigmoid(F)
            g = y - p
            h = np.clip(p * (1.0 - p), 1e-12, None)

            def leaf_value(idx, g=g, h=h):
                return float(g[idx].sum() / max(h[idx].sum(), 1e-12))

        else:
            g = y - F

            def leaf_value(idx, g=g):
                return float(g[idx].mean())

        tree = Tree()
        _oracle_grow(tree, X, g, np.arange(X.shape[0]), 0, max_depth, min_samples_leaf,
                     leaf_value)
        trees.append(tree)
        F += learning_rate * tree.predict(X)
    return BoostedTreesModel(base_score=base, learning_rate=learning_rate, loss=loss,
                             trees=trees, n_features=X.shape[1])


class TestSingleTreeBehaviour:
    def test_step_function_recovered_exactly(self):
        X = np.linspace(0, 1, 20)[:, None]
        y = (X[:, 0] >= 0.5).astype(float) * 3.0 + 1.0
        model = fit_gbt(X, y, n_trees=1, max_depth=1, learning_rate=1.0)
        np.testing.assert_allclose(model.predict(X), y, atol=1e-12)

    def test_constant_target_single_leaf(self):
        X = np.random.default_rng(0).normal(size=(15, 3))
        y = np.full(15, 5.0)
        model = fit_gbt(X, y, n_trees=10, max_depth=3)
        np.testing.assert_array_equal(model.predict(X), np.full(15, 5.0))
        for tree in model.trees:
            assert tree.feature == [-1]  # single leaf, no splits

    def test_tie_breaks_to_lowest_feature_index(self):
        # two identical columns give identical gains; the split must land on
        # column 0
        x = np.array([0.0, 1.0, 2.0, 3.0])
        X = np.column_stack([x, x])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        model = fit_gbt(X, y, n_trees=1, max_depth=1, learning_rate=1.0)
        root = model.trees[0]
        assert root.feature[0] == 0

    def test_tie_breaks_to_lowest_threshold(self):
        # y symmetric in x: splitting at 0.5 or 2.5 reduces variance equally,
        # the lower threshold must win
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1.0, 0.0, 0.0, 1.0])
        model = fit_gbt(X, y, n_trees=1, max_depth=1, learning_rate=1.0)
        root = model.trees[0]
        assert root.feature[0] == 0
        assert root.threshold[0] == pytest.approx(0.5)


class TestEdgeCases:
    def test_zero_columns_give_single_leaf_trees_at_the_mean(self):
        y = np.array([1.0, 2.0, 4.0, 8.0, 5.0])
        model = fit_gbt(np.empty((5, 0)), y, n_trees=3, max_depth=2)
        assert all(tree.feature == [-1] for tree in model.trees)
        np.testing.assert_allclose(model.predict(np.empty((5, 0))), np.full(5, y.mean()))

    def test_constant_columns_give_single_leaf_trees(self):
        X = np.full((6, 2), 3.0)
        y = np.array([0.0, 1.0, 5.0, 2.0, 7.0, 1.0])
        model = fit_gbt(X, y, n_trees=4, max_depth=3)
        assert all(tree.feature == [-1] for tree in model.trees)
        np.testing.assert_allclose(model.predict(X), np.full(6, y.mean()))

    def test_threshold_separates_adjacent_floats(self):
        # 0.5 * (nextafter(100, 0) + 100) rounds to 100.0, which would send
        # both rows left
        lo = np.nextafter(100.0, 0.0)
        X = np.array([[lo], [100.0]])
        y = np.array([0.0, 1.0])
        model = fit_gbt(X, y, n_trees=1, max_depth=1, learning_rate=1.0)
        assert model.trees[0].threshold[0] == lo
        np.testing.assert_array_equal(model.predict(X), y)

    def test_node_of_exactly_two_min_leaves_splits(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        model = fit_gbt(X, y, n_trees=1, max_depth=1, learning_rate=1.0,
                        min_samples_leaf=2)
        root = model.trees[0]
        assert root.feature[0] == 0
        assert root.threshold[0] == pytest.approx(1.5)
        np.testing.assert_allclose(model.predict(X), y, atol=1e-12)


@st.composite
def gbt_problems(draw):
    n = draw(st.integers(1, 60))
    d = draw(st.integers(0, 4))
    cols = []
    for _ in range(d):
        if draw(st.booleans()):  # integer-valued, so ties are common
            cell = st.integers(-3, 3).map(float)
        else:
            cell = st.floats(-100, 100, allow_nan=False, allow_subnormal=False)
        cols.append(draw(st.lists(cell, min_size=n, max_size=n)))
    X = np.array(cols, dtype=float).T.reshape(n, d)
    loss = draw(st.sampled_from(["squared", "logistic"]))
    if loss == "logistic":
        y = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
    else:
        y = np.array(draw(st.lists(st.floats(-50, 50, allow_nan=False, allow_subnormal=False),
                                   min_size=n, max_size=n)))
    params = dict(
        loss=loss,
        n_trees=draw(st.integers(1, 4)),
        max_depth=draw(st.integers(1, 3)),
        learning_rate=draw(st.sampled_from([0.1, 0.5, 1.0])),
        min_samples_leaf=draw(st.integers(1, 3)),
    )
    return X, y, params


class TestPresortedSearchMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(gbt_problems())
    def test_models_identical(self, problem):
        X, y, params = problem
        assert encode_model(fit_gbt(X, y, **params)) == encode_model(oracle_fit_gbt(X, y, **params))


class TestBoosting:
    def sine_fixture(self):
        rng = np.random.default_rng(42)
        X = np.sort(rng.uniform(0, 2 * np.pi, 50))[:, None]
        y = np.sin(X[:, 0])
        return X, y

    def test_train_rmse_strictly_decreasing_in_n_trees(self):
        X, y = self.sine_fixture()
        model = fit_gbt(X, y, n_trees=100, max_depth=3, learning_rate=0.1)
        errors = [
            float(np.sqrt(np.mean((replace(model, trees=model.trees[:k]).predict(X) - y) ** 2)))
            for k in range(1, 101)
        ]
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_staged_predictions_prefix_consistent(self):
        # the k-tree prediction must equal base + lr * sum of the first k trees
        X, y = self.sine_fixture()
        model = fit_gbt(X, y, n_trees=20, max_depth=2, learning_rate=0.3)
        incremental = np.full(X.shape[0], model.base_score)
        for k, tree in enumerate(model.trees, start=1):
            incremental = incremental + model.learning_rate * tree.predict(X)
            staged = replace(model, trees=model.trees[:k])
            np.testing.assert_array_equal(staged.predict(X), incremental)

    def test_deterministic(self):
        X, y = self.sine_fixture()
        a = fit_gbt(X, y, n_trees=30, max_depth=3)
        b = fit_gbt(X, y, n_trees=30, max_depth=3)
        assert encode_model(a) == encode_model(b)
        np.testing.assert_array_equal(a.predict(X), b.predict(X))

    def test_min_samples_leaf_respected(self):
        X, y = self.sine_fixture()
        model = fit_gbt(X, y, n_trees=5, max_depth=4, min_samples_leaf=10)
        for tree in model.trees:
            counts = self.leaf_counts(tree, X)
            assert all(c >= 10 for c in counts)

    @staticmethod
    def leaf_counts(tree: Tree, X):
        counts = []
        stack = [(0, np.arange(X.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if tree.feature[node] == -1:
                counts.append(idx.size)
                continue
            mask = X[idx, tree.feature[node]] <= tree.threshold[node]
            stack.append((tree.left[node], idx[mask]))
            stack.append((tree.right[node], idx[~mask]))
        return counts


class TestLogisticLoss:
    def test_probabilities_and_fit_quality(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(300, 2))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(float)  # XOR, needs depth 2
        model = fit_gbt(X, y, loss="logistic", n_trees=100, max_depth=2,
                        learning_rate=0.3)
        p = model.predict_proba(X)
        assert np.all((p > 0) & (p < 1))
        assert ((p > 0.5) == (y == 1)).mean() > 0.95

    def test_leaf_values_are_newton_steps(self):
        # with one tree the leaf value must equal sum(y - p0) / sum(p0 (1 - p0))
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        model = fit_gbt(X, y, loss="logistic", n_trees=1, max_depth=1,
                        learning_rate=1.0)
        p0 = 0.5  # base rate
        expected = (y[:2] - p0).sum() / (2 * p0 * (1 - p0))
        root = model.trees[0]
        left_leaf = root.left[0]
        assert root.value[left_leaf] == pytest.approx(expected)

    def test_requires_binary_targets(self):
        with pytest.raises(DataError):
            fit_gbt(np.ones((3, 1)), np.array([0.0, 0.5, 1.0]), loss="logistic")


class TestSerialization:
    def test_round_trip_identical_predictions(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        model = fit_gbt(X, y, n_trees=12, max_depth=3)
        clone = decode_model(encode_model(model))
        np.testing.assert_array_equal(model.predict(X), clone.predict(X))
        # model files that still carry the old, unused seed field load and predict the same
        legacy = decode_model({**encode_model(model), "seed": 0})
        np.testing.assert_array_equal(model.predict(X), legacy.predict(X))
        assert encode_model(legacy) == encode_model(model)


@st.composite
def resampled_problems(draw):
    """A tree problem and a resample of 2**p of its rows.  Squared loss gets small integer
    targets and logistic loss draws half the resample from each label, so the base score,
    every gradient and every sum below is exact and row counts fit as row copies do."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(0, 4))
    cols = []
    for _ in range(d):
        if draw(st.booleans()):
            cell = st.integers(-3, 3).map(float)
        else:
            cell = st.floats(-100, 100, allow_nan=False, allow_subnormal=False)
        cols.append(draw(st.lists(cell, min_size=n, max_size=n)))
    X = np.array(cols, dtype=float).T.reshape(n, d)
    size = 2 ** draw(st.integers(1, 6))
    loss = draw(st.sampled_from(["squared", "logistic"]))
    if loss == "logistic":
        ones = draw(st.integers(1, n - 1))
        y = np.repeat([1.0, 0.0], [ones, n - ones])
        half = st.lists(st.integers(0, ones - 1), min_size=size // 2, max_size=size // 2)
        rest = st.lists(st.integers(ones, n - 1), min_size=size // 2, max_size=size // 2)
        take = np.array(draw(half) + draw(rest))
    else:
        y = np.array(draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)), dtype=float)
        take = np.array(draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size)))
    params = dict(
        loss=loss,
        n_trees=1,
        max_depth=draw(st.integers(1, 4)),
        learning_rate=draw(st.sampled_from([0.1, 1.0])),
        min_samples_leaf=draw(st.integers(1, 3)),
    )
    return X, y, take, params


def count_weights(n, take):
    c = np.bincount(take, minlength=n).astype(float)
    keep = np.flatnonzero(c)
    return keep, c[keep]


class TestCountWeightsMatchRowCopies:
    """A row of weight c fits as c copies of it: exactly for one tree on exact sums, to
    rounding over many trees."""

    @settings(max_examples=150, deadline=None)
    @given(resampled_problems())
    def test_one_tree_identical(self, problem):
        X, y, take, params = problem
        keep, w = count_weights(len(y), take)
        weighted = fit_gbt(X[keep], y[keep], sample_weight=w, **params)
        assert encode_model(weighted) == encode_model(fit_gbt(X[take], y[take], **params))

    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    def test_fifty_trees_same_splits(self, loss):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(600, 5))
        signal = X[:, 0] + np.sin(2.0 * X[:, 1])
        if loss == "logistic":
            y = (signal + rng.normal(size=600) > 0).astype(float)
        else:
            y = signal + rng.normal(scale=0.5, size=600)
        take = rng.integers(0, 600, 600)
        keep, w = count_weights(600, take)
        params = dict(loss=loss, n_trees=50, max_depth=3, min_samples_leaf=10)
        weighted = fit_gbt(X[keep], y[keep], sample_weight=w, **params)
        copies = fit_gbt(X[take], y[take], **params)
        for a, b in zip(weighted.trees, copies.trees, strict=True):
            assert (a.feature, a.threshold) == (b.feature, b.threshold)
        np.testing.assert_allclose(weighted.predict(X), copies.predict(X), rtol=0.0, atol=1e-12)

    def test_unit_weights_change_nothing(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(80, 3))
        X[:, 2] = rng.integers(0, 2, 80)
        y = X[:, 0] + rng.normal(size=80)
        params = dict(n_trees=10, max_depth=3, min_samples_leaf=4)
        assert (encode_model(fit_gbt(X, y, sample_weight=np.ones(80), **params))
                == encode_model(fit_gbt(X, y, **params)))

    def test_min_samples_leaf_counts_weight(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 1.0])
        w = np.array([5.0, 5.0])
        split = fit_gbt(X, y, sample_weight=w, n_trees=1, max_depth=1, min_samples_leaf=5)
        assert split.trees[0].feature[0] == 0
        leaf = fit_gbt(X, y, sample_weight=w, n_trees=1, max_depth=1, min_samples_leaf=6)
        assert leaf.trees[0].feature == [-1]

    @pytest.mark.parametrize("w, problem", [
        (np.ones(3), "shape"),
        (np.ones((4, 1)), "shape"),
        (np.array([1.0, 0.0, 1.0, 1.0]), "> 0"),
        (np.array([1.0, -2.0, 1.0, 1.0]), "> 0"),
        (np.array([1.0, np.nan, 1.0, 1.0]), "finite"),
        (np.array([1.0, np.inf, 1.0, 1.0]), "finite"),
    ])
    def test_bad_weights_rejected(self, w, problem):
        X = np.arange(4.0)[:, None]
        with pytest.raises(ValueError, match=problem):
            fit_gbt(X, np.arange(4.0), sample_weight=w, n_trees=1)
