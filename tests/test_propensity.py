import numpy as np
import pytest

from treatpolicy.errors import DataError
from treatpolicy.ingest import ColumnInfo, Dataset
from treatpolicy.learners import LearnerSpec, save_model, load_model
from treatpolicy.propensity import (
    PropensityModel,
    fit_propensity,
    overlap_mask,
    overlap_report,
    select_overlap_bounds,
)

L2_LOGISTIC = LearnerSpec.from_dict({"kind": "logistic", "penalty": "l2", "lam": 1.0})


def make_dataset(X, t):
    X = np.asarray(X, dtype=float)
    return Dataset(
        covariates=X,
        columns=[ColumnInfo(f"x{j}", "numeric") for j in range(X.shape[1])],
        treatment=np.asarray(t, dtype=np.int8),
        outcome=np.zeros(X.shape[0]),
    )


def logistic_world(seed, n=800, d=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    p = 1.0 / (1.0 + np.exp(-(X @ np.array([1.0, -0.5, 0.25][:d]))))
    t = (rng.random(n) < p).astype(int)
    return make_dataset(X, t)


class TestFitPropensity:
    def test_metric_fields_present(self):
        data = logistic_world(0)
        train, cal = data.subset(np.arange(0, 600)), data.subset(np.arange(600, 800))
        model = fit_propensity(train, L2_LOGISTIC, cal)
        for block in ("train", "calibration"):
            m = model.metrics[block]
            assert set(m) == {"brier", "auroc", "accuracy", "precision", "recall",
                              "f1", "calibration_curve"}
        assert model.metrics["calibration"]["auroc"] > 0.6

    def test_scores_clipped_to_open_interval(self):
        data = logistic_world(1)
        spec = LearnerSpec.from_dict({"kind": "logistic", "penalty": "l2", "lam": 0.01})
        model = fit_propensity(data, spec)
        wild = np.full((2, 3), 50.0)
        s = model.predict(wild)
        assert np.all(s >= 1e-6) and np.all(s <= 1 - 1e-6)

    def test_single_arm_is_error(self):
        data = make_dataset(np.random.default_rng(0).normal(size=(10, 2)), np.ones(10))
        with pytest.raises(DataError, match="single treatment arm"):
            fit_propensity(data, LearnerSpec.from_dict({"kind": "logistic"}))

    def test_round_trip_serialization(self, tmp_path):
        data = logistic_world(2, n=300)
        train, cal = data.subset(np.arange(0, 200)), data.subset(np.arange(200, 300))
        model = fit_propensity(train, L2_LOGISTIC, cal)
        save_model(model, tmp_path / "prop.json")
        clone = load_model(tmp_path / "prop.json")
        np.testing.assert_array_equal(model.predict(data.covariates),
                                      clone.predict(data.covariates))


class TestSelectBounds:
    def test_fixed_passthrough(self):
        assert select_overlap_bounds(np.array([0.5]), "fixed",
                                     eta_low=0.21, eta_high=0.9) == (0.21, 0.9)

    def test_fixed_infeasible(self):
        with pytest.raises(DataError, match="infeasible"):
            select_overlap_bounds(np.array([0.5]), "fixed", eta_low=0.9, eta_high=0.21)

    def test_quantile_grid_oracle(self):
        # identical score grids in both arms: the per-arm quantiles equal the
        # plain sort-and-index quantiles of the grid
        grid = np.round(np.arange(0.01, 1.0, 0.01), 2)
        scores = np.concatenate([grid, grid])
        treatment = np.array([0] * grid.size + [1] * grid.size)
        lo, hi = select_overlap_bounds(scores, "quantile", treatment=treatment,
                                       q_low=0.02, q_high=0.98)
        assert lo == pytest.approx(np.quantile(grid, 0.02))
        assert hi == pytest.approx(np.quantile(grid, 0.98))

    def test_quantile_takes_tighter_arm(self):
        scores = np.array([0.1, 0.4, 0.6, 0.9, 0.3, 0.5, 0.7, 0.95])
        treatment = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        lo, hi = select_overlap_bounds(scores, "quantile", treatment=treatment,
                                       q_low=0.0, q_high=1.0)
        # max of per-arm minima, min of per-arm maxima
        assert (lo, hi) == (0.3, 0.9)

    def test_quantile_disjoint_arms_infeasible(self):
        scores = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
        treatment = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        with pytest.raises(DataError, match="infeasible"):
            select_overlap_bounds(scores, "quantile", treatment=treatment,
                                  q_low=0.0, q_high=1.0)

    def test_min_count_leaves_k_on_each_side(self):
        scores = np.array([0.1, 0.2, 0.4, 0.6, 0.8, 0.15, 0.3, 0.5, 0.7, 0.9])
        treatment = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
        k = 2
        lo, hi = select_overlap_bounds(scores, "min-count", treatment=treatment,
                                       min_count=k)
        # arm0 k-th smallest/largest: .2/.6; arm1: .3/.7 -> (.3, .6)
        assert (lo, hi) == (0.3, 0.6)
        for s in np.linspace(lo, hi, 7):
            for arm in (0, 1):
                arm_scores = scores[treatment == arm]
                assert np.sum(arm_scores <= s) >= k
                assert np.sum(arm_scores >= s) >= k

    def test_min_count_exceeding_arm_is_error(self):
        with pytest.raises(DataError):
            select_overlap_bounds(np.array([0.2, 0.8]), "min-count",
                                  treatment=np.array([0, 1]), min_count=2)


class TestMaskAndNestedness:
    def test_mask_closed_interval(self):
        scores = np.array([0.1, 0.21, 0.5, 0.9, 0.91])
        np.testing.assert_array_equal(overlap_mask(scores, 0.21, 0.9),
                                      [False, True, True, True, False])

    def test_tighter_bounds_nest(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(0, 1, 500)
        wide = overlap_mask(scores, 0.05, 0.95)
        narrow = overlap_mask(scores, 0.2, 0.8)
        assert np.all(wide[narrow])  # narrow set is a subset of wide set


class TestOverlapReport:
    def test_histograms_and_counts(self):
        scores = np.array([0.1, 0.3, 0.5, 0.7, 0.9, 0.2, 0.4, 0.6, 0.8, 0.95])
        treatment = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
        report = overlap_report(scores, treatment, (0.25, 0.85), bins=10)
        assert report["n_total"] == 10
        assert report["n_retained"] == int(overlap_mask(scores, 0.25, 0.85).sum())
        assert sum(report["histograms"]["0"]["all"]) == 5
        assert sum(report["histograms"]["0"]["retained"]) + report["n_excluded_by_arm"]["0"] == 5
        assert not report["auroc_flag"]

    def test_dict_holds_every_field(self):
        # the "report" object of propensity/overlap.json
        scores = np.array([0.1, 0.3, 0.5, 0.7, 0.9, 0.2, 0.4, 0.6, 0.8, 0.95])
        treatment = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
        report = overlap_report(scores, treatment, (0.25, 0.85), bins=4)
        assert report == {
            "bounds": {"eta_low": 0.25, "eta_high": 0.85},
            "bin_edges": [0.0, 0.25, 0.5, 0.75, 1.0],
            "histograms": {"0": {"all": [1, 1, 2, 1], "retained": [0, 1, 2, 0]},
                           "1": {"all": [1, 1, 1, 2], "retained": [0, 1, 1, 1]}},
            "n_total": 10,
            "n_retained": 6,
            "n_excluded_by_arm": {"0": 2, "1": 2},
            "auroc": 0.6,
            "auroc_flag": False,
            "auroc_flag_threshold": 0.95,
        }

    def test_disjoint_supports_flag_and_empty_retention(self):
        scores = np.concatenate([np.linspace(0.01, 0.3, 30),
                                 np.linspace(0.7, 0.99, 30)])
        treatment = np.array([0] * 30 + [1] * 30)
        report = overlap_report(scores, treatment, (0.4, 0.6))
        assert report["auroc"] == 1.0
        assert report["auroc_flag"]
        assert report["n_retained"] == 0

    def test_near_deterministic_assignment_flags(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(500, 1))
        t = (X[:, 0] > 0).astype(int)
        data = make_dataset(X, t)
        spec = LearnerSpec.from_dict({"kind": "logistic", "penalty": "l2", "lam": 0.1})
        model = fit_propensity(data, spec)
        scores = model.predict(X)
        report = overlap_report(scores, t, (0.1, 0.9))
        assert report["auroc"] >= 0.99
        assert report["auroc_flag"]
