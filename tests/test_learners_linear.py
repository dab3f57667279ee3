import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treatpolicy.errors import ConvergenceError, DataError
from treatpolicy.learners import LearnerSpec, fit_classifier, fit_regressor
from treatpolicy.learners.linear import LinearModel, _weighted_fit, fit_linear, sigmoid


def random_xy(seed, n=20, d=5, noise=0.1):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    beta = rng.normal(size=d)
    y = X @ beta + noise * rng.normal(size=n)
    return X, y


class TestRidge:
    def test_matches_matrix_solve_oracle_without_intercept(self):
        X, y = random_xy(0)
        lam = 0.1
        model = fit_linear(X, y, penalty="l2", lam=lam, fit_intercept=False)
        oracle = np.linalg.solve(X.T @ X + lam * np.eye(5), X.T @ y)
        np.testing.assert_allclose(model.coefficients, oracle, atol=1e-8)
        assert model.intercept == 0.0

    def test_matches_augmented_solve_oracle_with_intercept(self):
        # unpenalized intercept == solving the augmented system with a zero
        # penalty entry for the constant column
        X, y = random_xy(1)
        lam = 0.7
        model = fit_linear(X, y, penalty="l2", lam=lam)
        Xa = np.hstack([np.ones((X.shape[0], 1)), X])
        P = lam * np.eye(6)
        P[0, 0] = 0.0
        oracle = np.linalg.solve(Xa.T @ Xa + P, Xa.T @ y)
        np.testing.assert_allclose(model.intercept, oracle[0], atol=1e-8)
        np.testing.assert_allclose(model.coefficients, oracle[1:], atol=1e-8)

    def test_unpenalized_satisfies_normal_equations(self):
        X, y = random_xy(2)
        model = fit_linear(X, y)
        resid = y - model.predict(X)
        Xa = np.hstack([np.ones((X.shape[0], 1)), X])
        assert np.abs(Xa.T @ resid).max() < 1e-8

    def test_deterministic(self):
        X, y = random_xy(3)
        a = fit_linear(X, y, penalty="l2", lam=0.5)
        b = fit_linear(X, y, penalty="l2", lam=0.5)
        np.testing.assert_array_equal(a.coefficients, b.coefficients)
        assert a.intercept == b.intercept


class TestLasso:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_subgradient_optimality(self, seed):
        X, y = random_xy(seed, n=40, d=8, noise=0.5)
        lam = 2.0
        model = fit_linear(X, y, penalty="l1", lam=lam)
        xm = X.mean(axis=0)
        Xc = X - xm
        resid = (y - y.mean()) - Xc @ model.coefficients
        corr = Xc.T @ resid
        for j, b in enumerate(model.coefficients):
            if b == 0.0:
                assert abs(corr[j]) <= lam * (1 + 1e-5)
            else:
                assert corr[j] == pytest.approx(lam * np.sign(b), rel=1e-5, abs=1e-5)

    def test_large_lambda_zeroes_everything(self):
        X, y = random_xy(4)
        xm = X.mean(axis=0)
        lam_max = np.abs((X - xm).T @ (y - y.mean())).max()
        model = fit_linear(X, y, penalty="l1", lam=lam_max * 1.01)
        assert np.all(model.coefficients == 0.0)
        assert model.intercept == pytest.approx(y.mean())

    def test_zero_lambda_recovers_least_squares(self):
        X, y = random_xy(5, n=30, d=4)
        lasso = fit_linear(X, y, penalty="l1", lam=1e-10, tol=1e-10)
        ols = fit_linear(X, y)
        np.testing.assert_allclose(lasso.coefficients, ols.coefficients, atol=1e-6)

    def test_nonconvergence_carries_last_iterate(self):
        X, y = random_xy(6, n=50, d=10, noise=0.2)
        with pytest.raises(ConvergenceError) as err:
            fit_linear(X, y, penalty="l1", lam=0.01, max_iter=1, tol=1e-14)
        assert isinstance(err.value.last_model, LinearModel)
        assert err.value.gap is not None


class TestLogistic:
    def make_classification(self, seed, n=300, d=4):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        beta = rng.normal(size=d)
        p = sigmoid(X @ beta - 0.3)
        y = (rng.random(n) < p).astype(float)
        return X, y

    @pytest.mark.parametrize("penalty,lam", [("none", 0.0), ("l2", 1.5)])
    def test_gradient_vanishes_at_solution(self, penalty, lam):
        X, y = self.make_classification(0)
        model = fit_linear(X, y, family="logistic", penalty=penalty, lam=lam)
        p = model.predict_proba(X)
        grad_beta = X.T @ (p - y) + lam * model.coefficients
        grad_int = np.sum(p - y)
        assert np.abs(grad_beta).max() < 1e-4
        assert abs(grad_int) < 1e-4

    def test_l1_subgradient_optimality(self):
        X, y = self.make_classification(1, n=400, d=6)
        lam = 5.0
        model = fit_linear(X, y, family="logistic", penalty="l1", lam=lam, tol=1e-9)
        p = model.predict_proba(X)
        corr = X.T @ (y - p)
        for j, b in enumerate(model.coefficients):
            if b == 0.0:
                assert abs(corr[j]) <= lam * (1 + 1e-3)
            else:
                assert corr[j] == pytest.approx(lam * np.sign(b), rel=1e-3, abs=1e-3)

    def test_l1_strong_penalty_gives_empty_support(self):
        X, y = self.make_classification(2)
        model = fit_linear(X, y, family="logistic", penalty="l1", lam=1e4)
        assert np.all(model.coefficients == 0.0)

    def test_separable_without_penalty_raises(self):
        X = np.linspace(-2, 2, 40)[:, None]
        y = (X[:, 0] > 0).astype(float)
        with pytest.raises(ConvergenceError) as err:
            fit_linear(X, y, family="logistic", penalty="none", max_iter=15)
        assert err.value.last_model is not None

    def test_separable_with_ridge_converges(self):
        X = np.linspace(-2, 2, 40)[:, None]
        y = (X[:, 0] > 0).astype(float)
        model = fit_linear(X, y, family="logistic", penalty="l2", lam=1.0)
        assert model.coefficients[0] > 0

    def test_requires_binary_targets(self):
        X = np.ones((4, 1))
        with pytest.raises(DataError):
            fit_linear(X, np.array([0.0, 1.0, 2.0, 1.0]), family="logistic")


class TestDispatch:
    def test_linear_kinds_standardize_internally(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(60, 3)) * np.array([1.0, 100.0, 0.01]) + np.array([5, -3, 0])
        y = X @ np.array([1.0, 0.02, 4.0]) + 0.05 * rng.normal(size=60)
        fitted = fit_regressor(LearnerSpec.from_dict({"kind": "ridge", "lam": 1e-6}), X, y)
        np.testing.assert_allclose(fitted.predict(X), y, atol=0.3)

    @pytest.mark.parametrize("learner", [
        {"kind": "ols"}, {"kind": "ridge", "lam": 1.0}, {"kind": "lasso", "lam": 0.1},
    ])
    def test_constant_column_scores_zero(self, learner):
        # X.std of a column constant at 0.3 rounds to about 1e-16, not 0, at n=20
        rng = np.random.default_rng(1)
        X = np.column_stack([rng.normal(size=20), np.full(20, 0.3)])
        y = X[:, 0] + rng.normal(size=20)
        fitted = fit_regressor(LearnerSpec.from_dict({**learner, "fit_intercept": False}), X, y)
        assert (fitted.center[1], fitted.scale[1]) == (0.3, 1.0)
        Q = np.array([[0.5, 0.3], [0.5, 0.31], [0.5, 1.0]])
        np.testing.assert_allclose(fitted.predict(Q), fitted.predict(Q[:1]).repeat(3),
                                   rtol=0.0, atol=1e-12)

    def test_classifier_dispatch(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(200, 2))
        y = (X[:, 0] + 0.5 * rng.normal(size=200) > 0).astype(float)
        logistic = LearnerSpec.from_dict({"kind": "logistic", "penalty": "l2", "lam": 1.0})
        fitted = fit_classifier(logistic, X, y)
        p = fitted.predict_proba(X)
        assert np.all((p > 0) & (p < 1))
        assert ((p > 0.5) == (y == 1)).mean() > 0.7

    def test_unknown_kind_rejected(self):
        from treatpolicy.errors import ConfigError

        with pytest.raises(ConfigError):
            LearnerSpec("svm").validate()

    def test_unknown_param_rejected(self):
        from treatpolicy.errors import ConfigError

        with pytest.raises(ConfigError):
            LearnerSpec("ridge", (("depth", 3),)).validate()


# The solvers the weighted least-squares core replaced, kept as oracles:
# a centred ridge solve, unweighted lasso coordinate descent and a logistic
# Newton solve on the augmented Hessian.


def oracle_fit_ridge(X, y, lam, fit_intercept, penalty):
    if fit_intercept:
        xm = X.mean(axis=0)
        ym = float(y.mean())
        Xc = X - xm
        yc = y - ym
    else:
        Xc, yc = X, y
    d = X.shape[1]
    gram = Xc.T @ Xc + lam * np.eye(d)
    rhs = Xc.T @ yc
    sv = np.linalg.svd(gram, compute_uv=False)
    if sv.size and sv[-1] <= 1e-10 * sv[0]:
        # a singular Gram takes the minimum-norm answer of fit_linear's rank rule; the
        # replaced solver's answer there turned on rounding
        beta = np.linalg.lstsq(gram, rhs, rcond=1e-10)[0]
    else:
        try:
            beta = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            beta = np.linalg.lstsq(gram, rhs, rcond=None)[0]
    intercept = ym - float(xm @ beta) if fit_intercept else 0.0
    return LinearModel(beta, intercept, "least-squares", penalty, lam)


def _oracle_soft_threshold(z, t):
    if z > t:
        return z - t
    if z < -t:
        return z + t
    return 0.0


def _oracle_lasso_gap(Xc, yc, beta, resid, lam):
    corr = float(np.abs(Xc.T @ resid).max(initial=0.0))
    if lam <= 0.0:
        return corr
    primal = 0.5 * float(resid @ resid) + lam * float(np.abs(beta).sum())
    scale = min(1.0, lam / corr) if corr > lam else 1.0
    theta = scale * resid
    dual = 0.5 * float(yc @ yc) - 0.5 * float((theta - yc) @ (theta - yc))
    return primal - dual


def oracle_fit_lasso(X, y, lam, fit_intercept, tol, max_iter):
    """Returns the model; on exhaustion, the last coefficients and gap instead."""
    if fit_intercept:
        xm = X.mean(axis=0)
        ym = float(y.mean())
        Xc = X - xm
        yc = y - ym
    else:
        Xc, yc = X, y.copy()
    d = X.shape[1]
    beta = np.zeros(d)
    resid = yc.copy()
    col_sq = (Xc * Xc).sum(axis=0)
    for sweep in range(1, max_iter + 1):
        max_delta = 0.0
        for j in range(d):
            if col_sq[j] == 0.0:
                continue
            old = beta[j]
            if old != 0.0:
                resid += Xc[:, j] * old
            rho = float(Xc[:, j] @ resid)
            new = _oracle_soft_threshold(rho, lam) / col_sq[j]
            if new != 0.0:
                resid -= Xc[:, j] * new
            beta[j] = new
            max_delta = max(max_delta, abs(new - old))
        if max_delta < tol * max(1.0, float(np.abs(beta).max(initial=0.0))):
            gap = _oracle_lasso_gap(Xc, yc, beta, resid, lam)
            if gap < tol or max_delta == 0.0:
                intercept = ym - float(xm @ beta) if fit_intercept else 0.0
                return LinearModel(beta, intercept, "least-squares", "l1", lam, sweep)
    return beta, _oracle_lasso_gap(Xc, yc, beta, resid, lam)


def _oracle_logistic_loss(eta, y, lam_l2, beta):
    return float(np.sum(np.logaddexp(0.0, eta) - y * eta)) + 0.5 * lam_l2 * float(beta @ beta)


def oracle_fit_logistic(X, y, lam_l2, fit_intercept, tol, max_iter):
    """Damped Newton with the Hessian assembled on [X, 1]; none/L2 only."""
    n, d = X.shape
    beta = np.zeros(d)
    intercept = 0.0
    eta = np.zeros(n)
    loss = _oracle_logistic_loss(eta, y, lam_l2, beta)
    for _ in range(max_iter):
        p = sigmoid(eta)
        w = np.clip(p * (1.0 - p), 1e-10, None)
        grad = X.T @ (p - y) + lam_l2 * beta
        Xa = np.hstack([X, np.ones((n, 1))]) if fit_intercept else X
        H = (Xa * w[:, None]).T @ Xa
        H[:d, :d] += lam_l2 * np.eye(d)
        g_full = np.concatenate([grad, [float(np.sum(p - y))]]) if fit_intercept else grad
        try:
            step = np.linalg.solve(H, g_full)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(H, g_full, rcond=None)[0]
        new_beta = beta - step[:d]
        new_intercept = intercept - (step[d] if fit_intercept else 0.0)
        scale = 1.0
        for _ in range(40):
            cand_beta = beta + scale * (new_beta - beta)
            cand_int = intercept + scale * (new_intercept - intercept)
            cand_eta = X @ cand_beta + cand_int
            cand_loss = _oracle_logistic_loss(cand_eta, y, lam_l2, cand_beta)
            if cand_loss <= loss + 1e-12:
                break
            scale *= 0.5
        delta = max(
            float(np.abs(cand_beta - beta).max(initial=0.0)), abs(cand_int - intercept)
        )
        beta, intercept, eta, loss = cand_beta, cand_int, cand_eta, cand_loss
        if delta < tol:
            return beta, intercept
    return None


@st.composite
def least_squares_problems(draw):
    n = draw(st.integers(1, 30))
    d = draw(st.integers(0, 4))
    cell = st.one_of(
        st.integers(-3, 3).map(float),  # ties and collinear columns are common
        st.floats(-100, 100, allow_nan=False, allow_subnormal=False),
    )
    X = np.array(draw(st.lists(cell, min_size=n * d, max_size=n * d)), dtype=float)
    y = np.array(draw(st.lists(cell, min_size=n, max_size=n)), dtype=float)
    penalty = draw(st.sampled_from(["none", "l2", "l1"]))
    lam = 0.0 if penalty == "none" else draw(st.sampled_from([0.0, 0.1, 1.0, 10.0]))
    return X.reshape(n, d), y, penalty, lam, draw(st.booleans())


class TestWeightedCoreMatchesReplacedSolvers:
    @settings(max_examples=200, deadline=None)
    @given(least_squares_problems())
    def test_least_squares_bit_identical(self, problem):
        X, y, penalty, lam, fit_intercept = problem
        kw = dict(penalty=penalty, lam=lam, fit_intercept=fit_intercept)
        if penalty != "l1":
            model = fit_linear(X, y, **kw)
            oracle = oracle_fit_ridge(X, y, lam, fit_intercept, penalty)
            assert model.n_iter == oracle.n_iter == 0
        else:
            oracle = oracle_fit_lasso(X, y, lam, fit_intercept, 1e-6, 50)
            if isinstance(oracle, tuple):
                with pytest.raises(ConvergenceError) as err:
                    fit_linear(X, y, max_iter=50, **kw)
                np.testing.assert_array_equal(err.value.last_model.coefficients, oracle[0])
                assert err.value.gap == oracle[1]
                return
            model = fit_linear(X, y, max_iter=50, **kw)
            assert model.n_iter == oracle.n_iter
        np.testing.assert_array_equal(model.coefficients, oracle.coefficients)
        np.testing.assert_array_equal(model.intercept, oracle.intercept)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 4),
        penalty=st.sampled_from(["none", "l2"]),
        lam=st.sampled_from([0.01, 1.0, 20.0]),
        fit_intercept=st.booleans(),
    )
    def test_logistic_agrees_with_augmented_newton(self, seed, d, penalty, lam, fit_intercept):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(120, d))
        y = (rng.random(120) < sigmoid(X @ rng.normal(size=d) - 0.3)).astype(float)
        lam_l2 = lam if penalty == "l2" else 0.0
        oracle = oracle_fit_logistic(X, y, lam_l2, fit_intercept, 1e-12, 200)
        assume(oracle is not None)  # separable samples diverge without a penalty
        model = fit_linear(X, y, family="logistic", penalty=penalty, lam=lam,
                           fit_intercept=fit_intercept, tol=1e-12)
        np.testing.assert_allclose(model.coefficients, oracle[0], rtol=0, atol=1e-9)
        assert model.intercept == pytest.approx(oracle[1], rel=0, abs=1e-9)


class TestWeightedCore:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 3),
        counts=st.lists(st.integers(0, 3), min_size=2, max_size=12),
        penalty=st.sampled_from(["none", "l2", "l1"]),
        lam=st.sampled_from([0.05, 1.0, 5.0]),
        fit_intercept=st.booleans(),
    )
    def test_integer_weights_equal_repeated_rows(self, seed, d, counts, penalty, lam,
                                                 fit_intercept):
        c = np.array(counts)
        assume(np.count_nonzero(c) >= d + 2)  # full rank, so the optimum is unique
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(c.size, d))
        z = rng.normal(size=c.size) + 3.0
        beta0 = rng.normal(size=d)  # the L1 warm start must not matter
        args = (penalty, 0.0 if penalty == "none" else lam, fit_intercept, 1e-12, 100_000)
        weighted = _weighted_fit(X, z, c.astype(float), beta0, *args)
        repeated = _weighted_fit(np.repeat(X, c, axis=0), np.repeat(z, c), None,
                                 np.zeros(d), *args)
        np.testing.assert_allclose(weighted.coefficients, repeated.coefficients,
                                   rtol=1e-7, atol=1e-8)
        assert weighted.intercept == pytest.approx(repeated.intercept, rel=1e-7, abs=1e-8)

    def test_nonconverged_lasso_carries_the_iterate_intercept(self):
        X, y = random_xy(6, n=50, d=10, noise=0.2)
        y = y + 100.0
        with pytest.raises(ConvergenceError) as err:
            fit_linear(X, y, penalty="l1", lam=0.01, max_iter=1, tol=1e-14)
        last = err.value.last_model
        xm = X.mean(axis=0)
        assert last.intercept == pytest.approx(y.mean() - xm @ last.coefficients)
        assert last.predict(X).mean() == pytest.approx(y.mean())


@st.composite
def weighted_regressor_cases(draw):
    kind = draw(st.sampled_from(["ols", "ridge", "lasso"]))
    params = {"fit_intercept": draw(st.booleans())}
    if kind != "ols":
        params["lam"] = draw(st.sampled_from([0.05, 0.5, 2.0]))
    if kind == "lasso":
        params.update(tol=1e-9, max_iter=100_000)
    d = draw(st.integers(1, 3))
    constant = draw(st.booleans())  # the last column is constant at 0.3
    # two distinct rows fix one free slope; only ridge is unique past it
    two_rows = draw(st.booleans()) and (kind == "ridge" or d - constant <= 1)
    n = 2 if two_rows else draw(st.integers(d + 2, 12))
    counts = draw(st.lists(st.integers(1 if two_rows else 0, 4), min_size=n, max_size=n))
    assume(np.count_nonzero(counts) >= (2 if two_rows else d + 2))
    seed = draw(st.integers(0, 2**32 - 1))
    return LearnerSpec.from_dict({"kind": kind, **params}), d, constant, np.array(counts), seed


class TestWeightedRegressors:
    """A regressor fit on each drawn row once, weighted by its count, equals its fit
    on the copies."""

    @settings(max_examples=150, deadline=None)
    @given(weighted_regressor_cases())
    def test_count_weights_equal_copies(self, case):
        spec, d, constant, counts, seed = case
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(counts.size, d)) + rng.uniform(-3.0, 3.0, size=d)
        if constant:
            X[:, -1] = 0.3
        y = X @ rng.normal(size=d) + rng.normal(size=counts.size) + 3.0
        keep = np.flatnonzero(counts)
        take = np.repeat(np.arange(counts.size), counts)
        weighted = fit_regressor(spec, X[keep], y[keep], counts[keep].astype(float))
        copies = fit_regressor(spec, X[take], y[take])
        # within the rows' hull, where ridge on two rows is well conditioned
        Q = np.vstack([X, rng.dirichlet(np.ones(counts.size), 4) @ X])
        if spec.kind != "lasso":
            np.testing.assert_allclose(weighted.predict(Q), copies.predict(Q),
                                       rtol=0.0, atol=1e-10)
            return
        # each coordinate descent stops within tol of the one optimal objective
        lam, tol = spec.param_dict["lam"], spec.param_dict["tol"]
        objective = [0.5 * float(((y[take] - m.predict(X[take])) ** 2).sum())
                     + lam * float(np.abs(m.model.coefficients).sum())
                     for m in (weighted, copies)]
        assert abs(objective[0] - objective[1]) <= tol
        assert ((weighted.model.coefficients != 0) == (copies.model.coefficients != 0)).all()

    def test_weights_are_checked(self):
        X, y = random_xy(9, n=6, d=2)
        ridge = LearnerSpec.from_dict({"kind": "ridge", "lam": 1.0})
        for w, match in ((np.ones(5), "shape"), (np.r_[0.0, np.ones(5)], "> 0"),
                         (np.r_[np.nan, np.ones(5)], "finite")):
            with pytest.raises(ValueError, match=match):
                fit_regressor(ridge, X, y, w)
        with pytest.raises(ValueError, match="least-squares"):
            fit_linear(X, (y > 0).astype(float), family="logistic", sample_weight=np.ones(6))
