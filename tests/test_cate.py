import itertools
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import linear_dataset, make_dataset, pipeline_raw, write_observational_csv
from hypothesis import example, given, settings
from hypothesis import strategies as st

import treatpolicy
from treatpolicy import policy_eval
from treatpolicy.cate import (
    CateFitSpec,
    CateInterval,
    CateModel,
    UncertaintySpec,
    causal_shift,
    cate_calibration_curve,
    cate_diagnostics,
    fit_meta_learner,
    gate_menu,
    intervals,
    tilted_mean,
    uncertainty_interval,
)
from treatpolicy.config import validate_config
from treatpolicy.errors import DataError
from treatpolicy.learners import (
    LearnerSpec, decode_model, encode_model, fit_classifier, save_model,
)
from treatpolicy.learners.serialize import FORMAT_NAME, FORMAT_VERSION
from treatpolicy.pipeline import run_stages
from treatpolicy.policy_eval import ensemble_effects


class Const:
    """Stub outcome model predicting one fixed value."""

    def __init__(self, c):
        self.c = float(c)

    def predict(self, X):
        return np.full(np.asarray(X).shape[0], self.c)


class DropLast:
    """Stub that ignores the final feature column (the appended arm)."""

    def predict(self, X):
        return np.asarray(X, dtype=float)[:, 0]


RIDGE = LearnerSpec.from_dict({"kind": "ridge", "lam": 1e-6})


def small_dataset(seed=0, n=60, d=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    t = np.zeros(n, dtype=int)
    t[n // 2 :] = 1
    y = X @ np.array([1.0, -2.0, 0.5]) + 3.0 * t + rng.normal(scale=0.3, size=n)
    return make_dataset(X, t, y)


class TestMetaLearners:
    def test_s_kind_difference_identity_is_exact(self):
        data = small_dataset()
        model = fit_meta_learner("s", data, RIDGE)
        X = data.covariates[:10]
        f = model.components["f"]
        ones = np.ones((10, 1))
        expected = f.predict(np.hstack([X, ones])) - f.predict(np.hstack([X, 0 * ones]))
        np.testing.assert_array_equal(model.predict(X), expected)

    def test_s_kind_base_model_ignoring_arm_gives_zero(self):
        model = CateModel(kind="s", family="stub", components={"f": DropLast()})
        X = np.random.default_rng(1).normal(size=(20, 2))
        np.testing.assert_array_equal(model.predict(X), np.zeros(20))

    def test_t_kind_recovers_pure_arm_shift_exactly(self):
        # y = 3 per treated row, 0 per control row, no covariate signal
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 2))
        t = np.repeat([0, 1], 20)
        y = 3.0 * t
        data = make_dataset(X, t, y.astype(float))
        model = fit_meta_learner("t", data, LearnerSpec.from_dict({"kind": "ols"}))
        np.testing.assert_allclose(model.predict(X), np.full(40, 3.0), atol=1e-9)

    def test_t_kind_constant_components(self):
        model = CateModel(
            kind="t",
            family="stub",
            components={"mu0": Const(1.0), "mu1": Const(3.0)},
        )
        assert model.predict(np.zeros((5, 2))).tolist() == [2.0] * 5

    def test_t_kind_antisymmetric_under_arm_relabeling(self):
        data = small_dataset(seed=5)
        flipped = make_dataset(data.covariates, 1 - data.treatment, data.outcome)
        a = fit_meta_learner("t", data, RIDGE).predict(data.covariates)
        b = fit_meta_learner("t", flipped, RIDGE).predict(data.covariates)
        np.testing.assert_array_equal(a, -b)

    def test_x_kind_weight_endpoints(self):
        data = small_dataset(seed=3)
        model = fit_meta_learner("x", data, RIDGE, g_constant=0.0)
        np.testing.assert_array_equal(
            model.predict(data.covariates),
            model.components["tau_treated"].predict(data.covariates),
        )
        model1 = fit_meta_learner("x", data, RIDGE, g_constant=1.0)
        np.testing.assert_array_equal(
            model1.predict(data.covariates),
            model1.components["tau_control"].predict(data.covariates),
        )

    def test_x_kind_midpoint_blend(self):
        model = CateModel(
            kind="x",
            family="stub",
            components={"tau_control": Const(4.0), "tau_treated": Const(0.0)},
            g_constant=0.5,
        )
        assert model.predict(np.zeros((3, 2))).tolist() == [2.0] * 3

    def test_x_kind_uses_propensity_scores_as_weights(self):
        data = small_dataset(seed=7)
        prop = fit_classifier(
            LearnerSpec.from_dict({"kind": "logistic", "lam": 1.0}),
            data.covariates,
            data.treatment,
        )
        model = fit_meta_learner("x", data, RIDGE, propensity=prop)
        g = prop.predict(data.covariates)
        tau_c = model.components["tau_control"].predict(data.covariates)
        tau_t = model.components["tau_treated"].predict(data.covariates)
        np.testing.assert_allclose(
            model.predict(data.covariates), g * tau_c + (1 - g) * tau_t, atol=1e-12
        )

    def test_x_kind_without_weight_source_rejected(self):
        with pytest.raises(ValueError, match="propensity"):
            fit_meta_learner("x", small_dataset(), RIDGE)

    def test_tiny_arm_rejected(self):
        data = make_dataset(np.zeros((5, 1)), [1, 0, 0, 0, 0], [1.0, 0, 0, 0, 0])
        with pytest.raises(DataError, match="two rows per arm"):
            fit_meta_learner("t", data, RIDGE)

    def test_residual_pools_are_sorted_per_arm_residuals(self):
        data = small_dataset(seed=11)
        model = fit_meta_learner("t", data, RIDGE)
        t = data.treatment
        mu0 = model.components["mu0"].predict(data.covariates)
        mu1 = model.components["mu1"].predict(data.covariates)
        fitted = np.where(t == 1, mu1, mu0)
        res = data.outcome - fitted
        theta = UncertaintySpec(alpha_stat=0.0, lam=1.7, b_boot=0)
        iv = uncertainty_interval(CateFitSpec("t", RIDGE), data, data.covariates[:4], theta,
                                  model=model)
        assert iv.shift == causal_shift(np.sort(res[t == 0]), 1.7) + causal_shift(
            np.sort(res[t == 1]), 1.7
        )

    @pytest.mark.parametrize("kind", ["s", "t", "x"])
    def test_zero_effect_data_yields_small_estimates(self, kind):
        data, _ = linear_dataset(2000, 4, beta=[1.0, -1.0, 0.5, 0.0], effect=0.0, seed=13)
        model = fit_meta_learner(kind, data, RIDGE, g_constant=0.5)
        tau = model.predict(data.covariates)
        assert np.abs(tau).mean() <= 0.1 * data.outcome.std()

    def test_serialization_round_trip(self):
        data = small_dataset(seed=17)
        model = fit_meta_learner("x", data, RIDGE, g_constant=0.25)
        encoded = encode_model(model)
        assert "residual_pools" not in encoded
        back = decode_model(encoded)
        np.testing.assert_array_equal(
            back.predict(data.covariates), model.predict(data.covariates)
        )
        # a model file written with its residual pools still decodes
        encoded["residual_pools"] = {"0": [0.5], "1": [-0.5]}
        older = decode_model(encoded)
        np.testing.assert_array_equal(
            older.predict(data.covariates), model.predict(data.covariates)
        )

    @pytest.mark.parametrize("kind", ["s", "t", "x"])
    def test_saved_bytes_match_the_streaming_encoder(self, tmp_path, kind):
        model = fit_meta_learner(kind, small_dataset(seed=17), RIDGE, g_constant=0.25)
        save_model(model, tmp_path / "new.json")
        doc = {"format": FORMAT_NAME, "version": FORMAT_VERSION, "model": encode_model(model)}
        with open(tmp_path / "old.json", "w") as fh:
            json.dump(doc, fh, sort_keys=True)
            fh.write("\n")
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()


class TestEnsembles:
    def members(self, *values, n=4):
        """A (members, n) effect matrix, each member constant over the rows."""
        return np.repeat(np.array(values, dtype=float)[:, None], n, axis=1)

    def test_enumerated_votes(self):
        # one row per sign pattern of three members; tau = 0 votes positive
        taus = np.array(list(itertools.product([1.0, 0.0, -1.0], repeat=3))).T
        avg, avg_defer = ensemble_effects(taus, "average")
        maj, maj_defer = ensemble_effects(taus, "majority")
        con, con_defer = ensemble_effects(taus, "consensus")
        assert avg.tolist() == taus.mean(axis=0).tolist() and not avg_defer.any()
        for i, column in enumerate(taus.T):
            n_plus = sum(v >= 0.0 for v in column)
            assert maj[i] == (1.0 if n_plus >= 2 else -1.0) and not maj_defer[i]
            unanimous = n_plus in (0, 3)
            assert con_defer[i] == (not unanimous)
            assert con[i] == (0.0 if not unanimous else (1.0 if n_plus == 3 else -1.0))

        tau, defer = ensemble_effects(self.members(1, 1, -1), "average")
        np.testing.assert_allclose(tau, np.full(4, 1 / 3))
        assert not defer.any()
        tau, defer = ensemble_effects(self.members(1, 1, -1), "majority")
        assert tau.tolist() == [1.0] * 4 and not defer.any()
        _, defer = ensemble_effects(self.members(1, 1, -1), "consensus")
        assert defer.all()

    def test_even_split_pair(self):
        tau, defer = ensemble_effects(self.members(2, -2, n=3), "average")
        assert tau.tolist() == [0.0] * 3 and not defer.any()
        tau, defer = ensemble_effects(self.members(2, -2, n=3), "majority")
        assert tau.tolist() == [0.0] * 3 and defer.all()
        tau, defer = ensemble_effects(self.members(2, -2, n=3), "consensus")
        assert tau.tolist() == [0.0] * 3 and defer.all()

    def test_unanimous_members_agree_with_single_model(self):
        for mode in ("average", "majority", "consensus"):
            tau, defer = ensemble_effects(self.members(-1.5, -1.5, n=5), mode)
            assert not defer.any()
            expected = -1.5 if mode == "average" else -1.0
            assert tau.tolist() == [expected] * 5

    def test_negative_unanimity_is_minus_one(self):
        tau, defer = ensemble_effects(self.members(-3, -1, n=2), "consensus")
        assert tau.tolist() == [-1.0, -1.0] and not defer.any()

    def test_too_few_members_rejected(self):
        with pytest.raises(ValueError, match="two members"):
            ensemble_effects(self.members(1), "average")


class TestTiltedMean:
    def test_hand_example(self):
        assert tilted_mean([-1.0, 1.0], 2.0) == pytest.approx(0.6, abs=1e-12)
        assert causal_shift([-1.0, 1.0], 2.0) == pytest.approx(0.6, abs=1e-12)

    def test_lam_one_is_plain_mean(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            r = rng.normal(size=rng.integers(1, 30))
            assert tilted_mean(r, 1.0) == pytest.approx(r.mean(), abs=1e-12)
            assert causal_shift(r, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force_cut_scan(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            r = np.sort(rng.normal(scale=3.0, size=rng.integers(1, 15)))
            lam = float(rng.uniform(1.0, 5.0))
            best = -np.inf
            for k in range(r.size + 1):
                w = np.concatenate([np.full(k, 1 / lam), np.full(r.size - k, lam)])
                best = max(best, float(np.sum(w * r) / np.sum(w)))
            assert tilted_mean(r, lam) == pytest.approx(best, rel=1e-12)

    def test_never_below_mean_and_monotone_in_lam(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            r = rng.normal(size=12)
            values = [tilted_mean(r, lam) for lam in (1.0, 1.3, 2.0, 4.0, 9.0)]
            assert values[0] >= r.mean() - 1e-12
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_dominates_single_quantile_cut(self):
        # the scan includes the lam/(1+lam)-quantile cut as one candidate
        rng = np.random.default_rng(3)
        for _ in range(10):
            r = np.sort(rng.normal(size=9))
            lam = float(rng.uniform(1.0, 4.0))
            cut = np.quantile(r, lam / (1 + lam))
            hi = r > cut
            w = np.where(hi, lam, 1 / lam)
            assert tilted_mean(r, lam) >= np.sum(w * r) / np.sum(w) - 1e-12

    def test_empty_pool_rejected(self):
        with pytest.raises(DataError, match="empty"):
            tilted_mean([], 2.0)
        with pytest.raises(DataError, match="empty"):
            causal_shift([], 2.0)


class TestGateMenu:
    def test_entries_and_survivors_in_menu_order(self):
        train, val = small_dataset(seed=3), small_dataset(seed=4)
        menu = {
            # absurd shrinkage leaves the train mean, which cannot beat the
            # outcome variance on held-out rows
            "flat": CateFitSpec(kind="s", learner=LearnerSpec.from_dict({"kind": "lasso", "lam": 1e9})),
            "t-ridge": CateFitSpec(kind="t", learner=RIDGE),
            "s-ridge": CateFitSpec(kind="s", learner=RIDGE),
        }
        gate, retained = gate_menu(menu, train, val, None)
        assert list(gate) == list(menu) and list(retained) == ["t-ridge", "s-ridge"]
        var_val = float(np.var(val.outcome))
        for name, entry in gate.items():
            assert set(entry) == {"heldout_mse", "outcome_variance", "excluded"}
            assert entry["outcome_variance"] == var_val
            assert entry["excluded"] is (entry["heldout_mse"] >= var_val)
        assert gate["flat"]["excluded"]
        model = retained["t-ridge"]
        pred = model.predict_outcome(val.covariates, val.treatment)
        assert gate["t-ridge"]["heldout_mse"] == float(np.mean((pred - val.outcome) ** 2))
        np.testing.assert_array_equal(
            model.predict(val.covariates), menu["t-ridge"].fit(train).predict(val.covariates)
        )


FIT = CateFitSpec(kind="t", learner=RIDGE)


class TestUncertaintyInterval:
    def test_no_uncertainty_degenerates_to_point(self):
        data = small_dataset(seed=21)
        theta = UncertaintySpec(alpha_stat=0.0, lam=1.0, b_boot=0)
        iv = uncertainty_interval(FIT, data, data.covariates[:8], theta, seed=0)
        np.testing.assert_array_equal(iv.lower, iv.point)
        np.testing.assert_array_equal(iv.upper, iv.point)
        assert iv.shift == 0.0

    def test_pure_causal_widening_matches_residual_pools(self):
        data = small_dataset(seed=22)
        theta = UncertaintySpec(alpha_stat=0.0, lam=2.0, b_boot=0)
        model = FIT.fit(data)
        iv = uncertainty_interval(FIT, data, data.covariates[:6], theta, seed=0, model=model)
        res = data.outcome - model.predict_outcome(data.covariates, data.treatment)
        t = data.treatment
        shift = causal_shift(np.sort(res[t == 0]), 2.0) + causal_shift(np.sort(res[t == 1]), 2.0)
        assert shift > 0
        np.testing.assert_allclose(iv.lower, iv.point - shift, atol=1e-12)
        np.testing.assert_allclose(iv.upper, iv.point + shift, atol=1e-12)

    def test_lam_one_predicts_no_train_rows_and_lam_two_widens_by_the_pools(self, monkeypatch):
        data = small_dataset(seed=27)
        model, X = FIT.fit(data), data.covariates[:10]
        calls = []
        predict_outcome = CateModel.predict_outcome

        def recording(self, X, t):
            calls.append(len(X))
            return predict_outcome(self, X, t)

        monkeypatch.setattr(CateModel, "predict_outcome", recording)
        ivs = [uncertainty_interval(FIT, data, X, UncertaintySpec(0.8, lam, b_boot=8), seed=4,
                                    model=model) for lam in (1.0, 2.0)]
        assert calls == [data.n]  # the residual pools of lam 2 alone
        assert ivs[0].shift == 0.0
        res = data.outcome - predict_outcome(model, data.covariates, data.treatment)
        shift = sum(causal_shift(np.sort(res[data.treatment == arm]), 2.0) for arm in (0, 1))
        # lam 1 leaves the bootstrap bounds unioned with the point; lam 2 widens them by shift
        assert ivs[1].shift == shift > 0
        np.testing.assert_array_equal(ivs[1].point, ivs[0].point)
        np.testing.assert_array_equal(ivs[1].lower, np.minimum(ivs[0].lower, ivs[0].point - shift))
        np.testing.assert_array_equal(ivs[1].upper, np.maximum(ivs[0].upper, ivs[0].point + shift))

    def test_ordering_holds_with_bootstrap(self):
        data = small_dataset(seed=23, n=80)
        theta = UncertaintySpec(alpha_stat=0.8, lam=1.5, b_boot=16)
        iv = uncertainty_interval(FIT, data, data.covariates[:25], theta, seed=5)
        assert (iv.lower <= iv.point + 1e-12).all()
        assert (iv.point <= iv.upper + 1e-12).all()

    def test_monotone_in_lam(self):
        data = small_dataset(seed=24)
        X = data.covariates[:10]
        ivs = [
            uncertainty_interval(
                FIT, data, X, UncertaintySpec(0.5, lam, b_boot=8), seed=3
            )
            for lam in (1.0, 1.5, 2.5)
        ]
        for narrow, wide in zip(ivs, ivs[1:]):
            assert (wide.lower <= narrow.lower + 1e-12).all()
            assert (wide.upper >= narrow.upper - 1e-12).all()

    def test_monotone_in_alpha_stat(self):
        data = small_dataset(seed=25)
        X = data.covariates[:10]
        ivs = [
            uncertainty_interval(
                FIT, data, X, UncertaintySpec(alpha, 1.2, b_boot=12), seed=9
            )
            for alpha in (0.0, 0.5, 0.9)
        ]
        for narrow, wide in zip(ivs, ivs[1:]):
            assert (wide.lower <= narrow.lower + 1e-12).all()
            assert (wide.upper >= narrow.upper - 1e-12).all()

    def test_same_seed_reproduces_exactly(self):
        data = small_dataset(seed=26)
        theta = UncertaintySpec(0.9, 1.1, b_boot=8)
        a = uncertainty_interval(FIT, data, data.covariates[:5], theta, seed=42)
        b = uncertainty_interval(FIT, data, data.covariates[:5], theta, seed=42)
        np.testing.assert_array_equal(a.lower, b.lower)
        np.testing.assert_array_equal(a.upper, b.upper)
        c = uncertainty_interval(FIT, data, data.covariates[:5], theta, seed=43)
        assert not np.array_equal(a.lower, c.lower)

    def test_contains_zero_and_width(self):
        iv = CateInterval(lower=[-1.0, 0.5], point=[0.0, 1.0], upper=[1.0, 2.0])
        assert iv.contains_zero().tolist() == [True, False]


def _stratified_resample(rng, treatment):
    idx0 = np.flatnonzero(treatment == 0)
    idx1 = np.flatnonzero(treatment == 1)
    take0 = rng.choice(idx0, size=idx0.size, replace=True)
    take1 = rng.choice(idx1, size=idx1.size, replace=True)
    return np.concatenate([take0, take1])


def loop_bootstrap(fit_spec, model, train, X_query, B, seed, propensity):
    """The per-replicate refit loop on ``_stratified_resample`` draws, kept as an oracle."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    boot = np.empty((B, X_query.shape[0]))
    for b in range(B):
        take = _stratified_resample(rng, train.treatment)
        boot[b] = fit_spec.fit(train.subset(take), propensity=propensity).predict(X_query)
    return boot


class _Refits:
    """Least-squares refits on the rows X of one design, one per count row, with the
    arithmetic of the per-model products that the shared bootstrap moments replaced:
    weighted means and variances z-score X as ``standardize`` does with the counts as
    weights, and the z-scored Gram plus lam I is what ``fit_linear`` solves.  X is
    centred once, on its own mean.  Kept as an oracle."""

    def __init__(self, X, lam: float, intercept: bool):
        self.center = X.mean(axis=0)
        self.X, self.Xc, self.lam, self.intercept = X, X - self.center, lam, intercept
        self.floor = 1e-12 * (X * X).mean(axis=0)  # below it, a column is constant

    def chunk(self, C) -> None:
        n, d = self.Xc.shape
        self.C, self.mu = C, C @ self.Xc / n
        S = np.stack([(C * x) @ self.Xc for x in self.Xc.T], axis=1)
        S -= n * self.mu[:, :, None] * self.mu[:, None, :]
        var = np.diagonal(S, axis1=1, axis2=2) / n
        self.ok = (var > self.floor).all(axis=1)
        self.s = np.sqrt(np.where(self.ok[:, None], var, 1.0))
        self.gram = S / (self.s[:, :, None] * self.s[:, None, :]) + self.lam * np.eye(d)
        self.ok &= np.linalg.cond(self.gram) < 1e6
        self.gram[~self.ok] = np.eye(d)

    def solve(self, T):
        """(coef, offset) of the refits to targets T, (n,) or one row per replicate."""
        t0 = T.mean(axis=-1)
        CT = self.C * (T - t0[..., None])
        tbar = CT.sum(axis=1) / len(self.Xc)
        rhs = (CT @ self.Xc - len(self.Xc) * self.mu * tbar[:, None]) / self.s
        coef = np.linalg.solve(self.gram, rhs[:, :, None])[:, :, 0] / self.s
        return coef, (t0 + tbar if self.intercept else 0.0) - (self.mu * coef).sum(axis=1)

    def predict(self, Q, fit) -> np.ndarray:
        return ((Q - self.center) @ fit[0].T + fit[1]).T


def chunk_effects(fit_spec, model, train, arms, X_query):
    """``effects(counts) -> (ok, effects)`` on every query row of an ols or ridge
    meta-learner's refits on one chunk of count rows per arm."""
    p = fit_spec.learner.param_dict
    lam = float(p.get("lam", 0.0)) if fit_spec.learner.kind == "ridge" else 0.0
    X, y, intercept = train.covariates, train.outcome, p.get("fit_intercept", True)
    if model.kind == "s":
        rows = np.concatenate(arms)
        design = _Refits(np.hstack([X, train.treatment[:, None]])[rows], lam, intercept)

        def effects(counts):
            design.chunk(np.hstack(counts))
            coef = design.solve(y[rows])[0]
            return design.ok, np.repeat(coef[:, -1:], len(X_query), axis=1)

        return effects
    f0, f1 = (_Refits(X[rows], lam, intercept) for rows in arms)
    y0, y1 = (y[rows] for rows in arms)
    g = model._g(X_query) if model.kind == "x" else None

    def effects(counts):
        f0.chunk(counts[0])
        f1.chunk(counts[1])
        mu0, mu1 = f0.solve(y0), f1.solve(y1)
        if model.kind == "t":
            return f0.ok & f1.ok, f1.predict(X_query, mu1) - f0.predict(X_query, mu0)
        tau_t = f1.predict(X_query, f1.solve(y1 - f0.predict(f1.X, mu0)))
        tau_c = f0.predict(X_query, f0.solve(f1.predict(f0.X, mu1) - y0))
        return f0.ok & f1.ok, g * tau_c + (1.0 - g) * tau_t

    return effects


def full_matrix_bootstrap(fit_spec, model, train, X_query, B, seed, propensity):
    """The (B, rows) refit effects written whole, a chunk of count rows at a time, and the
    replicates left to refits: the bootstrap as it was before the bounds were taken per
    slice of query rows, kept as an oracle (refits run in this process)."""
    arms = [np.flatnonzero(train.treatment == a) for a in (0, 1)]
    closed_form = fit_spec.learner.closed_form
    effects = chunk_effects(fit_spec, model, train, arms, X_query) if closed_form else None
    boot = np.empty((B, len(X_query)))
    looped = []
    for start, counts in policy_eval._resample_counts(seed, [rows.size for rows in arms], B):
        chunk = boot[start:start + len(counts[0])]
        ok, chunk[:] = effects(counts) if effects else (np.zeros(len(chunk), bool), np.nan)
        for j in np.flatnonzero(~ok):
            c = np.zeros(train.n)
            for rows, cnt in zip(arms, counts):
                c[rows] = cnt[j]
            keep = np.flatnonzero(c)
            fitted = fit_spec.fit(train.subset(keep), weights=c[keep], propensity=propensity)
            boot[start + j] = fitted.predict(X_query)
            looped.append(start + j)
    return boot, looped


def all_query_rows(fit_spec, model, train, X_query, B, seed, propensity):
    """The (B, rows) effects ``intervals._bootstrap`` yields for every query row."""
    effects = intervals._bootstrap(fit_spec, model, train, X_query, B, seed, propensity)
    return effects(slice(None))


def loop_effects(fit_spec, model, train, X_query, B, seed, propensity, moments=None):
    """``loop_bootstrap`` in the shape of ``intervals._bootstrap``: effects per slice."""
    boot = loop_bootstrap(fit_spec, model, train, X_query, B, seed, propensity)
    return lambda rows: boot[:, rows].copy()


QUIRKS = ("none", "two-row arm", "binary", "arm-constant", "arm-zero", "singular")


@st.composite
def linear_refit_cases(draw):
    kind = draw(st.sampled_from(["s", "t", "x"]))
    learner = draw(st.sampled_from(["ols", "ridge"]))
    # arm-zero leaves the s design whole but makes its effect a difference of terms some
    # 10 times its size, past the 1e-12 of the full-matrix oracle: it has its own test
    quirk = draw(st.sampled_from([q for q in QUIRKS if kind != "s" or q != "arm-zero"]))
    d = draw(st.integers(1, 3))
    sizes = [draw(st.integers(20, 45)), draw(st.integers(20, 45))]
    if quirk == "two-row arm":
        sizes[1] = 2
        if learner == "ols" and kind != "s":
            d = 1  # two rows fix one slope
    if quirk == "singular":
        d = max(d, 2)
    params = {"fit_intercept": draw(st.booleans())}
    if learner == "ridge":
        params["lam"] = draw(st.sampled_from([0.5, 1.0, 3.0]))
    g_constant = draw(st.sampled_from([None, 0.3])) if kind == "x" else None
    B = draw(st.integers(2, 9))
    per_chunk = draw(st.integers(1, B))
    seed = draw(st.integers(0, 2**32 - 1))
    learner = LearnerSpec.from_dict({"kind": learner, **params})
    return kind, learner, quirk, d, sizes, g_constant, B, per_chunk, seed


def linear_refit_problem(kind, learner, quirk, d, sizes, g_constant, seed, m=5):
    """Train rows with the quirk, query rows, the spec, its fit and the propensity model."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    t = np.repeat([0, 1], sizes)
    X = rng.normal(size=(n, d)) + rng.uniform(-3.0, 3.0, size=d)
    if quirk == "binary":
        # one or two ones per arm: many replicates draw none of them
        X[:, 0] = 0.0
        for rows in (np.flatnonzero(t == 0), np.flatnonzero(t == 1)):
            X[rng.choice(rows, int(rng.integers(1, 3)), replace=False), 0] = 1.0
    if quirk == "arm-constant":
        X[t == 1, 0] = 0.3
    if quirk == "arm-zero":
        # 0 on controls, far from 0 on treated rows: the train mean is far from both
        X[t == 0, 0] = 0.0
        X[t == 1, 0] += 10.0
    if quirk == "singular":
        X[:, 1] = X[:, 0]
    y = X @ rng.normal(size=d) + t * (1.0 + X[:, 0]) + rng.normal(size=n)
    train = make_dataset(X, t, y)
    X_query = rng.normal(size=(m, d)) + 1.0
    prop = None
    if kind == "x" and g_constant is None:
        prop = fit_classifier(LearnerSpec.from_dict({"kind": "logistic", "lam": 1.0}), X, t)
    spec = CateFitSpec(kind, learner, g_constant=g_constant)
    return spec, spec.fit(train, propensity=prop), train, X_query, prop


class TestLinearRefits:
    """ols and ridge refits solved from count-weighted moments equal refits on the rows."""

    @settings(max_examples=80, deadline=None)
    @given(linear_refit_cases())
    # effects reach 201.9 here, and the two refits differ by 3.05e-10 (1.5e-12 relative)
    @example(("t", LearnerSpec.from_dict({"kind": "ols", "fit_intercept": False}), "two-row arm",
              1, [28, 2], None, 2, 1, 1))
    def test_batched_refits_match_fits_on_the_resampled_rows(self, case):
        kind, learner, quirk, d, sizes, g_constant, B, per_chunk, seed = case
        spec, model, train, X_query, prop = linear_refit_problem(
            kind, learner, quirk, d, sizes, g_constant, seed
        )
        n = train.n
        counted = mock.patch.object(intervals, "fit_meta_learner", wraps=fit_meta_learner)
        chunked = mock.patch.object(policy_eval, "_CHUNK_BYTES", 8 * n * per_chunk)
        with counted as loop_fits, chunked:
            boot = all_query_rows(spec, model, train, X_query, B, seed, prop)
        expected = loop_bootstrap(spec, model, train, X_query, B, seed, prop)
        # count-weighted moments and repeated rows round apart in proportion to the effects
        atol = 1e-10 + 1e-11 * np.abs(expected).max()
        np.testing.assert_allclose(boot, expected, rtol=0.0, atol=atol)
        if quirk == "none":
            assert loop_fits.call_count == 0
        if (quirk == "singular" and learner.kind == "ols") or (
            quirk in ("arm-constant", "arm-zero") and kind != "s"
        ):
            assert loop_fits.call_count == B

        iv = uncertainty_interval(
            spec, train, X_query, UncertaintySpec(0.8, 1.0, B), seed=seed, propensity=prop
        )
        assert iv.point.tobytes() == model.predict(X_query).tobytes()

    @pytest.mark.parametrize("kind", ["s", "t", "x"])
    def test_a_column_constant_in_one_arm_far_from_the_train_mean(self, kind):
        # the column is 0 on controls and near 10 on treated rows: centred on the train
        # mean it would not be constant in the controls' moments
        ols = LearnerSpec.from_dict({"kind": "ols"})
        for learner, seed in itertools.product((ols, RIDGE), range(3)):
            spec, model, train, X_query, prop = linear_refit_problem(
                kind, learner, "arm-zero", 2, [30, 35], None, seed
            )
            counted = mock.patch.object(intervals, "fit_meta_learner", wraps=fit_meta_learner)
            with counted as loop_fits:
                boot = all_query_rows(spec, model, train, X_query, 9, seed, prop)
            expected = loop_bootstrap(spec, model, train, X_query, 9, seed, prop)
            np.testing.assert_allclose(boot, expected, rtol=0.0, atol=1e-10)
            assert loop_fits.call_count == (0 if kind == "s" else 9)

    def test_singular_ols_refits_match_fits_on_the_resampled_rows_off_the_span(self):
        ols = LearnerSpec.from_dict({"kind": "ols", "fit_intercept": False})
        for kind, seed in itertools.product("stx", range(4)):
            spec, model, train, X_query, prop = linear_refit_problem(
                kind, ols, "singular", 2, [20, 24], None, seed
            )
            with mock.patch.object(policy_eval, "_CHUNK_BYTES", 8 * train.n):
                boot = all_query_rows(spec, model, train, X_query, 3, seed, prop)
            expected = loop_bootstrap(spec, model, train, X_query, 3, seed, prop)
            np.testing.assert_allclose(boot, expected, rtol=0.0, atol=1e-10)

    @settings(max_examples=80, deadline=None)
    @given(linear_refit_cases(), st.integers(1, 12), st.data())
    def test_bounds_per_slice_match_the_full_matrix_oracle(self, case, m, data):
        kind, learner, quirk, d, sizes, g_constant, B, _, seed = case
        # small budgets give one-replicate chunks and one-row slices; a slice of s rows
        # leaves an uneven last slice unless s divides m
        n = sum(sizes)
        budget = 8 * data.draw(st.one_of(st.integers(1, 3 * B), st.integers(1, B * (m + n))))
        alpha = data.draw(st.sampled_from([0.5, 0.8, 0.95]))
        spec, model, train, X_query, prop = linear_refit_problem(
            kind, learner, quirk, d, sizes, g_constant, seed, m=m
        )
        theta = UncertaintySpec(alpha, 1.0, B)
        with mock.patch.object(policy_eval, "_CHUNK_BYTES", budget):
            boot = all_query_rows(spec, model, train, X_query, B, seed, prop)
            iv = uncertainty_interval(
                spec, train, X_query, theta, seed=seed, propensity=prop, model=model
            )
            expected, looped = full_matrix_bootstrap(spec, model, train, X_query, B, seed, prop)
        tail = (1.0 - alpha) / 2.0
        lo, hi = np.quantile(expected, [tail, 1.0 - tail], axis=0)
        lo, hi = np.minimum(lo, iv.point), np.maximum(hi, iv.point)
        np.testing.assert_array_equal(boot[looped], expected[looped])
        if len(looped) == B:
            np.testing.assert_array_equal(boot, expected)
            np.testing.assert_array_equal(iv.lower, lo)
            np.testing.assert_array_equal(iv.upper, hi)
        else:
            # the shared moments hold y beside x and are moved between centrings, and a
            # slice's product rounds apart from one per chunk; an effect near 0 is a
            # difference of larger terms, so its rounding scales with them
            tol = dict(rtol=1e-12, atol=1e-12 * np.abs(expected).max())
            np.testing.assert_allclose(boot, expected, **tol)
            np.testing.assert_allclose(iv.lower, lo, **tol)
            np.testing.assert_allclose(iv.upper, hi, **tol)

    @settings(max_examples=30, deadline=None)
    @given(linear_refit_cases(), st.sampled_from([0.5, 1.0, 3.0]))
    def test_shared_moments_give_the_bytes_of_standalone_calls(self, case, lam):
        _, _, quirk, d, sizes, g_constant, B, per_chunk, seed = case
        intercept = case[1].param_dict["fit_intercept"]
        learners = [LearnerSpec.from_dict({"kind": "ols", "fit_intercept": intercept}),
                    LearnerSpec.from_dict({"kind": "ridge", "lam": lam,
                                           "fit_intercept": intercept})]
        _, _, train, X_query, prop = linear_refit_problem(
            "x", learners[0], quirk, d, sizes, g_constant, seed
        )
        theta = UncertaintySpec(0.8, 1.0, B)
        moments = intervals._BootstrapMoments(train, B, seed)
        with mock.patch.object(policy_eval, "_CHUNK_BYTES", 8 * train.n * per_chunk):
            for kind, learner in itertools.product("stx", learners):
                spec = CateFitSpec(kind, learner, g_constant=g_constant)
                shared = uncertainty_interval(spec, train, X_query, theta, seed=seed,
                                              propensity=prop, moments=moments)
                alone = uncertainty_interval(spec, train, X_query, theta, seed=seed,
                                             propensity=prop)
                assert shared.lower.tobytes() == alone.lower.tobytes()
                assert shared.upper.tobytes() == alone.upper.tobytes()

    def test_moments_of_other_rows_b_boot_or_seed_are_refused(self):
        data = small_dataset(seed=35, n=50)
        spec = CateFitSpec("t", RIDGE)
        moments = intervals._BootstrapMoments(data, 5, seed=1)
        theta = UncertaintySpec(0.8, 1.0, 5)
        uncertainty_interval(spec, data, data.covariates, theta, seed=1, moments=moments)
        # the moments are checked by identity: an equal copy of the rows is refused too
        copy = make_dataset(data.covariates.copy(), data.treatment.copy(), data.outcome.copy())
        for train, b_boot, seed in ((copy, 5, 1), (data.subset(np.arange(40)), 5, 1),
                                    (data, 6, 1), (data, 5, 2), (data, 5, None)):
            with pytest.raises(ValueError, match="bootstrap moments were built for other"):
                theta = UncertaintySpec(0.8, 1.0, b_boot)
                uncertainty_interval(spec, train, data.covariates, theta, seed=seed,
                                     moments=moments)

    def test_unseeded_refits_of_failed_replicates_take_the_moments_draws(self):
        ols = LearnerSpec.from_dict({"kind": "ols"})
        spec, model, train, X_query, _ = linear_refit_problem(
            "t", ols, "binary", 2, [30, 30], None, 5
        )
        moments = intervals._BootstrapMoments(train, 9)
        counted = mock.patch.object(intervals, "fit_meta_learner", wraps=fit_meta_learner)
        with counted as loop_fits:
            boot = intervals._bootstrap(spec, model, train, X_query, 9, None, None,
                                        moments=moments)(slice(None))
        assert 0 < loop_fits.call_count < 9
        expected = loop_bootstrap(spec, model, train, X_query, 9, moments.entropy, None)
        np.testing.assert_allclose(boot, expected, rtol=0.0, atol=1e-10)

    def test_fit_cate_draws_the_counts_once_for_the_menu(self, tmp_path):
        csv_path = tmp_path / "cohort.csv"
        write_observational_csv(csv_path)
        ridge = {"kind": "ridge", "lam": 1.0}
        menu = {"t-ridge": {"kind": "t", "learner": ridge},
                "x-ridge": {"kind": "x", "learner": ridge},
                "s-ols": {"kind": "s", "learner": {"kind": "ols"}}}
        cfg = validate_config(pipeline_raw(csv_path, tmp_path / "out", cate={"menu": menu}))
        run_stages(cfg, ["ingest", "fit-propensity"])
        draws = mock.patch.object(policy_eval, "_resample_counts",
                                  wraps=policy_eval._resample_counts)
        with draws as drawn:
            run_stages(cfg, ["fit-cate"])
        gate = json.loads((tmp_path / "out" / "cate" / "gate.json").read_text())
        assert not any(entry["excluded"] for entry in gate.values())
        assert drawn.call_count == 1

    def test_bounds_take_memory_per_slice_of_query_rows(self):
        # the whole (b_boot, query rows) effect matrix would be 200 x 25,000 x 8 B = 40 MB
        rng = np.random.default_rng(7)
        n, m, d = 2000, 25_000, 10
        X = rng.normal(size=(n + m, d))
        t = (rng.random(n) < 0.5).astype(int)
        y = X[:n] @ rng.normal(size=d) + t * (1.0 + X[:n, 0]) + rng.normal(size=n)
        train, X_query = make_dataset(X[:n], t, y), X[n:]
        spec = CateFitSpec("t", LearnerSpec.from_dict({"kind": "ridge", "lam": 1.0}))
        tracemalloc.start()
        try:
            iv = uncertainty_interval(spec, train, X_query, UncertaintySpec(0.9, 1.0, 200), 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert iv.lower.shape == (m,)
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"

    @pytest.mark.parametrize("learner", [
        {"kind": "gbt", "n_trees": 8, "max_depth": 2, "min_samples_leaf": 3},
        {"kind": "lasso", "lam": 0.05},
    ])
    def test_other_learners_refit_on_the_loop_draws(self, learner):
        data = small_dataset(seed=31, n=70)
        spec = CateFitSpec("t", LearnerSpec.from_dict(learner))
        theta = UncertaintySpec(0.8, 1.3, b_boot=7)
        X_query = data.covariates[:20]
        with mock.patch.object(policy_eval, "_CHUNK_BYTES", 8 * data.n * 3):
            iv = uncertainty_interval(spec, data, X_query, theta, seed=4)
        with mock.patch.object(intervals, "_bootstrap", loop_effects):
            expected = uncertainty_interval(spec, data, X_query, theta, seed=4)
        # refits on counts round apart from fits on the copies
        np.testing.assert_allclose(iv.lower, expected.lower, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(iv.upper, expected.upper, rtol=0.0, atol=1e-10)

    def test_bounds_do_not_depend_on_blas_threads(self):
        # in fresh processes: eval-bootstrap's train split, query rows and b_boot, and
        # large-cohort's shapes, t kind only (its 20-covariate propensity fit already
        # moves with threads); then t-gbt with gbt-bootstrap's trees on fewer rows
        child = textwrap.dedent("""
            import hashlib
            import numpy as np
            from conftest import make_dataset
            from treatpolicy.cate import CateFitSpec, UncertaintySpec, uncertainty_interval
            from treatpolicy.learners import LearnerSpec, fit_classifier
            ridge = LearnerSpec.from_dict({'kind': 'ridge', 'lam': 1.0})
            gbt = LearnerSpec.from_dict(
                {'kind': 'gbt', 'n_trees': 50, 'max_depth': 3, 'min_samples_leaf': 10}
            )
            digest = hashlib.sha256()
            for n, m, d, kinds, b_boot, learner in (
                (7200, 3000, 10, 'tx', 200, ridge),
                (12000, 5000, 20, 't', 5, ridge),
                (1600, 400, 10, 't', 6, gbt),
            ):
                rng = np.random.default_rng(0)
                X = rng.normal(size=(n + m, d))
                t = (rng.random(n + m) < 1.0 / (1.0 + np.exp(-X[:, 0]))).astype(int)
                y = X @ rng.normal(size=d) + t * (0.5 + 0.8 * X[:, 2]) + rng.normal(size=n + m)
                train = make_dataset(X[:n], t[:n], y[:n])
                logistic = LearnerSpec.from_dict({'kind': 'logistic', 'lam': 1.0})
                prop = fit_classifier(logistic, X[:n], t[:n])
                for kind in kinds:
                    spec = CateFitSpec(kind, learner)
                    theta = UncertaintySpec(0.9, 1.0, b_boot)
                    iv = uncertainty_interval(spec, train, X[n:], theta, seed=0, propensity=prop)
                    digest.update(iv.lower.tobytes() + iv.upper.tobytes())
            print(digest.hexdigest())
        """)
        src = str(Path(treatpolicy.__file__).resolve().parents[1])
        tests = str(Path(__file__).resolve().parent)
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join([src, tests])
            proc = subprocess.run(
                [sys.executable, "-c", child], capture_output=True, text=True, env=env,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        assert digests[0] == digests[1]


class TestGbtRefits:
    """gbt refits fit each drawn row once, with its draw count as row weight."""

    @pytest.mark.parametrize("kind", ["s", "t", "x"])
    def test_gbt_refits_on_count_weights_match_the_loop(self, kind):
        # leaves of at least 10 drawn rows: in a node of a handful of distinct rows, two
        # features often cut the same partition, their gains tie in exact arithmetic, and
        # rounding, which differs between counts and copies, picks the feature
        data = small_dataset(seed=32, n=200)
        logistic = LearnerSpec.from_dict({"kind": "logistic", "lam": 1.0})
        prop = fit_classifier(logistic, data.covariates, data.treatment) if kind == "x" else None
        gbt = LearnerSpec.from_dict(
            {"kind": "gbt", "n_trees": 15, "max_depth": 3, "min_samples_leaf": 10}
        )
        spec = CateFitSpec(kind, gbt)
        model = spec.fit(data, propensity=prop)
        X_query = data.covariates[::3]
        with mock.patch.object(policy_eval, "_CHUNK_BYTES", 8 * data.n * 2):
            boot = all_query_rows(spec, model, data, X_query, 6, 11, prop)
        expected = loop_bootstrap(spec, model, data, X_query, 6, 11, prop)
        np.testing.assert_allclose(boot, expected, rtol=0.0, atol=1e-10)

    @pytest.mark.usefixtures("one_worker")  # the refits are recorded in this process
    def test_gbt_refits_see_each_drawn_row_once(self):
        data = small_dataset(seed=33, n=70)
        data.treatment[:25] = 0
        data.treatment[25:] = 1
        gbt = LearnerSpec.from_dict({"kind": "gbt", "n_trees": 3, "max_depth": 2})
        spec = CateFitSpec("t", gbt)
        model = spec.fit(data)
        calls = []

        def recording(kind, train, learner, **kwargs):
            calls.append((train, kwargs))
            return fit_meta_learner(kind, train, learner, **kwargs)

        with mock.patch.object(intervals, "fit_meta_learner", recording):
            intervals._bootstrap(spec, model, data, data.covariates[:5], 4, 2, None)
        assert len(calls) == 4
        for train, kwargs in calls:
            assert np.unique(train.row_ids).size == train.n < data.n
            w = kwargs["weights"]
            assert w.shape == (train.n,) and np.all(w >= 1)
            assert [w[train.treatment == a].sum() for a in (0, 1)] == [25.0, 45.0]

    def test_weighted_meta_fits_are_checked_and_equal_fits_on_copies(self):
        data = small_dataset(seed=34, n=40)
        gbt = LearnerSpec.from_dict({"kind": "gbt", "n_trees": 2, "max_depth": 2})
        w = np.full(data.n, 2.0)
        with pytest.raises(ValueError, match="shape"):
            fit_meta_learner("t", data, gbt, weights=w[:-1])
        with pytest.raises(ValueError, match="sample_weight must be > 0"):
            fit_meta_learner("t", data, RIDGE, weights=np.r_[0.0, w[1:]])
        counts = np.random.default_rng(34).integers(1, 4, data.n)
        weighted = fit_meta_learner("x", data, RIDGE, weights=counts, g_constant=0.4)
        copies = data.subset(np.repeat(np.arange(data.n), counts))
        on_copies = fit_meta_learner("x", copies, RIDGE, g_constant=0.4)
        np.testing.assert_allclose(weighted.predict(data.covariates),
                                   on_copies.predict(data.covariates), rtol=0.0, atol=1e-10)
        # one row per arm holds two rows by weight
        one_each = data.subset([0, data.n - 1])
        fitted = fit_meta_learner("s", one_each, gbt, weights=[2.0, 3.0])
        assert fitted.predict(one_each.covariates).shape == (2,)


class TestCalibrationCurve:
    def test_one_row_segments_echo_sorted_estimates(self):
        rng = np.random.default_rng(31)
        n = 8
        tau = rng.normal(size=n)
        t = np.tile([0, 1], n // 2)
        segs = cate_calibration_curve(
            tau, t, rng.normal(size=n), np.full(n, 0.5), K=n,
            mu0=np.zeros(n), mu1=np.zeros(n),
        )
        assert [s.mean_cate for s in segs] == sorted(tau.tolist())
        assert all(s.count == 1 for s in segs)
        assert all(s.aipw_ate is None for s in segs)

    def test_segment_counts_differ_by_at_most_one(self):
        rng = np.random.default_rng(32)
        for n, K in ((10, 3), (11, 4), (100, 7), (9, 9)):
            tau = rng.normal(size=n)
            segs = cate_calibration_curve(
                tau, rng.integers(0, 2, n), rng.normal(size=n), np.full(n, 0.5),
                K=K, mu0=np.zeros(n), mu1=np.zeros(n),
            )
            counts = [s.count for s in segs]
            assert sum(counts) == n and max(counts) - min(counts) <= 1

    def test_hand_aipw_value_and_missing_arm(self):
        tau = np.array([0.0, 0.0, 1.0, 1.0])
        t = np.array([1, 0, 1, 1])
        y = np.array([2.0, 1.0, 5.0, 5.0])
        e = np.full(4, 0.5)
        mu1 = np.array([1.0, 1.0, 0.0, 0.0])
        mu0 = np.zeros(4)
        segs = cate_calibration_curve(tau, t, y, e, K=2, mu0=mu0, mu1=mu1)
        # rows 0,1: (1 + 2, 1 - 2) -> mean 1.0; rows 2,3 are treated-only
        assert segs[0].aipw_ate == pytest.approx(1.0, abs=1e-12)
        assert segs[1].aipw_ate is None

    def test_constant_estimates_give_equal_segment_means(self):
        n = 30
        segs = cate_calibration_curve(
            np.full(n, 2.5), np.tile([0, 1], 15), np.zeros(n), np.full(n, 0.5),
            K=5, mu0=np.zeros(n), mu1=np.zeros(n),
        )
        assert {s.mean_cate for s in segs} == {2.5}

    def test_recovers_monotone_segment_effects_on_randomized_data(self):
        n = 4000
        rng = np.random.default_rng(33)
        X = rng.normal(size=(n, 2))
        t = rng.integers(0, 2, n)
        tau_true = X[:, 0]
        y = 0.5 * X[:, 1] + t * tau_true + rng.normal(scale=0.5, size=n)
        # oracle outcome surfaces: mu1 - mu0 = tau_true
        mu0 = 0.5 * X[:, 1]
        mu1 = mu0 + tau_true
        segs = cate_calibration_curve(
            tau_true, t, y, np.full(n, 0.5), K=5, mu0=mu0, mu1=mu1
        )
        aipw = [s.aipw_ate for s in segs]
        means = [s.mean_cate for s in segs]
        assert all(b > a for a, b in zip(aipw, aipw[1:]))
        np.testing.assert_allclose(aipw, means, atol=0.15)

    def test_bad_segment_count_rejected(self):
        with pytest.raises(ValueError):
            cate_calibration_curve([1.0], [1], [1.0], [0.5], K=1, mu0=[0.0], mu1=[0.0])
        with pytest.raises(DataError):
            cate_calibration_curve(
                [1.0, 2.0], [0, 1], [1.0, 1.0], [0.5, 0.5], K=3,
                mu0=[0.0, 0.0], mu1=[0.0, 0.0],
            )


class TestCateDiagnostics:
    def test_diagonal_and_affine_pair(self):
        rng = np.random.default_rng(41)
        a = rng.normal(size=50)
        out = cate_diagnostics({"a": a, "b": 2 * a + 3})
        assert set(out) == {"names", "pearson", "kendall", "ates"}
        assert out["pearson"][0][0] == 1.0 and out["kendall"][1][1] == 1.0
        assert out["pearson"][0][1] == pytest.approx(1.0, abs=1e-12)
        assert out["kendall"][0][1] == pytest.approx(1.0, abs=1e-12)
        assert out["ates"]["b"] == pytest.approx(2 * a.mean() + 3, abs=1e-12)

    def test_independent_vectors_nearly_uncorrelated(self):
        rng = np.random.default_rng(42)
        out = cate_diagnostics({"a": rng.normal(size=1000), "b": rng.normal(size=1000)})
        assert abs(out["pearson"][0][1]) <= 0.1
        assert abs(out["kendall"][0][1]) <= 0.1

    def test_matrices_are_symmetric_in_name_order(self):
        rng = np.random.default_rng(43)
        est = {k: rng.normal(size=30) for k in ("m1", "m2", "m3")}
        out = cate_diagnostics(est)
        assert out["names"] == ["m1", "m2", "m3"]
        np.testing.assert_array_equal(out["pearson"], np.transpose(out["pearson"]))
        np.testing.assert_array_equal(out["kendall"], np.transpose(out["kendall"]))

    def test_rounding_noise_is_not_a_correlation(self):
        # one effect up to rounding, as an s-learner on ols gives: its cells are NaN
        rng = np.random.default_rng(44)
        flat = np.full(40, 0.5040686144701128)
        flat[rng.choice(40, 15, replace=False)] = np.nextafter(flat[0], 1.0)
        out = cate_diagnostics({"flat": flat, "a": rng.normal(size=40), "b": rng.normal(size=40)})
        for cells in (out["pearson"], out["kendall"]):
            assert np.isnan(cells[0][1]) and np.isnan(cells[1][0])
            assert np.isnan(cells[0][2]) and np.isnan(cells[2][0])
            assert cells[0][0] == 1.0 and not np.isnan(cells[1][2])
        assert out["ates"]["flat"] == flat.mean()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            cate_diagnostics({"a": np.zeros(3), "b": np.zeros(4)})

    def test_100k_rows_fit_in_1gb_address_space(self):
        # Two n x n sign matrices at 100k rows would need 160 GB: a quadratic
        # Kendall fails here with MemoryError instead of swapping.
        pytest.importorskip("resource")
        child = (
            "import json, resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "import numpy as np\n"
            "from treatpolicy.cate import cate_diagnostics\n"
            "rng = np.random.default_rng(0)\n"
            "a = rng.normal(size=100_000)\n"
            "out = cate_diagnostics({'a': a, 'b': a + rng.normal(size=a.size),\n"
            "                        'c': np.full(a.size, 0.25)})\n"
            "print(json.dumps(out))\n"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        src = str(Path(treatpolicy.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        kendall = np.array(json.loads(proc.stdout)["kendall"])
        assert 0.4 < kendall[0, 1] < 0.6  # tau = (2 / pi) asin(1 / sqrt 2) = 0.5
        assert np.isnan(kendall[0, 2]) and np.isnan(kendall[1, 2])
