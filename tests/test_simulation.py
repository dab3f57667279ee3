from dataclasses import replace

import numpy as np
import pytest
from conftest import see_cpus, synthetic_covariates

from treatpolicy import simulation
from treatpolicy.cate import CateFitSpec
from treatpolicy.errors import ConfigError, DataError
from treatpolicy.ingest import SPLIT_NAMES, assign_splits
from treatpolicy.learners import LearnerSpec, fit_classifier
from treatpolicy.policy_eval import DEFER, ENSEMBLE_MODES, Policy
from treatpolicy.simulation import (
    SimulationSpec,
    StudyReport,
    run_study,
    simulate_outcomes,
    true_policy_value,
)

RIDGE = LearnerSpec.from_dict({"kind": "ridge", "lam": 1e-6})


def standardized_fixture(seed=0, n=300, d=6):
    X, T = synthetic_covariates(n, d, seed=seed)
    sd = X.std(axis=0)
    return (X - X.mean(axis=0)) / sd, T


class TestSimulationSpec:
    def test_validation(self):
        with pytest.raises(ConfigError, match="lam"):
            SimulationSpec(lam=1.5, effect_size=0.5)
        with pytest.raises(ConfigError, match="effect_size"):
            SimulationSpec(lam=0.5, effect_size=0.0)
        with pytest.raises(ConfigError, match="noise_factor"):
            SimulationSpec(lam=0.5, effect_size=0.5, noise_factor=-1.0)

    def test_defaults(self):
        spec = SimulationSpec(lam=0.5, effect_size=0.5)
        assert spec.noise_factor == 1.2


class TestSimulateOutcomes:
    def test_generator_identities(self):
        X, T = standardized_fixture()
        for seed in (0, 1, 2):
            for c in (0.5, 2.0):
                out = simulate_outcomes(X, T, SimulationSpec(0.3, c, seed=seed))
                assert np.linalg.norm(out.beta_prop) == pytest.approx(1.0, abs=1e-12)
                assert np.linalg.norm(out.beta_rand) == pytest.approx(1.0, abs=1e-12)
                assert np.mean(np.abs(X @ out.delta)) == pytest.approx(c, abs=1e-9)
                np.testing.assert_array_equal(out.w1, out.delta + out.w0)
                np.testing.assert_array_equal(
                    out.optimal_policy, (X @ out.delta < 0).astype(np.int8)
                )

    def test_lambda_endpoints_are_collinear(self):
        X, T = standardized_fixture(seed=3)

        def cosine(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

        out1 = simulate_outcomes(X, T, SimulationSpec(1.0, 0.5, seed=4))
        assert cosine(out1.delta, out1.beta_prop) >= 1 - 1e-9
        out0 = simulate_outcomes(X, T, SimulationSpec(0.0, 0.5, seed=4))
        assert cosine(out0.delta, out0.beta_rand) >= 1 - 1e-9

    def test_reproducible_and_seed_sensitive(self):
        X, T = standardized_fixture(seed=5)
        spec = SimulationSpec(0.5, 0.5, seed=9)
        a = simulate_outcomes(X, T, spec)
        b = simulate_outcomes(X, T, spec)
        np.testing.assert_array_equal(a.y0, b.y0)
        np.testing.assert_array_equal(a.y1, b.y1)
        np.testing.assert_array_equal(a.delta, b.delta)
        c = simulate_outcomes(X, T, SimulationSpec(0.5, 0.5, seed=10))
        assert not np.array_equal(a.y0, c.y0)

    def test_arm_sds_and_noise_scale(self):
        X, T = standardized_fixture(seed=6, n=4000, d=5)
        out = simulate_outcomes(X, T, SimulationSpec(0.5, 0.5, seed=11))
        assert out.sigma0 == float((X @ out.w0).std())
        assert out.sigma1 == float((X @ out.w1).std())
        noise0 = out.y0 - out.mu0
        assert noise0.std() == pytest.approx(1.2 * out.sigma0, rel=0.1)

    def test_effect_vector_consistency(self):
        X, T = standardized_fixture(seed=7)
        out = simulate_outcomes(X, T, SimulationSpec(0.5, 1.0, seed=12))
        np.testing.assert_allclose(out.tau, X @ out.delta, atol=1e-9)

    def test_single_arm_rejected(self):
        X, _ = standardized_fixture(seed=8, n=50)
        with pytest.raises(DataError, match="arms"):
            simulate_outcomes(X, np.ones(50, dtype=int), SimulationSpec(0.5, 0.5, seed=0))

    def test_subset_tracks_rows(self):
        X, T = standardized_fixture(seed=9, n=40)
        out = simulate_outcomes(X, T, SimulationSpec(0.5, 0.5, seed=13))
        sub = out.subset(np.array([3, 7, 11]))
        np.testing.assert_array_equal(sub.y1, out.y1[[3, 7, 11]])
        np.testing.assert_array_equal(sub.optimal_policy, out.optimal_policy[[3, 7, 11]])
        np.testing.assert_array_equal(sub.delta, out.delta)


class TestTruePolicyValue:
    def setup_method(self):
        self.X, self.T = standardized_fixture(seed=10, n=200)
        self.out = simulate_outcomes(self.X, self.T, SimulationSpec(0.5, 1.0, seed=14))

    def test_all_defer_is_factual_mean(self):
        policy = Policy(name="d", rec=np.full(200, DEFER))
        v = true_policy_value(policy, self.out, self.T)
        assert v == self.out.observed(self.T).mean()

    def test_treat_all_one_is_mean_y1(self):
        policy = Policy(name="1", rec=np.ones(200, dtype=np.int8))
        assert true_policy_value(policy, self.out, self.T) == self.out.y1.mean()

    def test_optimal_minimizes_expected_value(self):
        rng = np.random.default_rng(15)
        # the noiseless outcome means in place of the drawn outcomes
        expected = replace(self.out, y0=self.out.mu0, y1=self.out.mu1)
        opt = Policy(name="opt", rec=self.out.optimal_policy)
        v_opt = true_policy_value(opt, expected, self.T)
        rivals = [
            Policy(name="0", rec=np.zeros(200, dtype=np.int8)),
            Policy(name="1", rec=np.ones(200, dtype=np.int8)),
            Policy(name="obs", rec=self.T.astype(np.int8)),
            Policy(name="rand", rec=rng.integers(0, 2, 200).astype(np.int8)),
            Policy(name="anti", rec=(1 - self.out.optimal_policy).astype(np.int8)),
        ]
        for rival in rivals:
            assert v_opt <= true_policy_value(rival, expected, self.T) + 1e-12

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            true_policy_value(Policy(name="p", rec=[1, 0]), self.out, self.T)


class TestSyntheticCovariates:
    def test_shapes_and_arm_presence(self):
        X, T = synthetic_covariates(500, 7, seed=0)
        assert X.shape == (500, 7) and T.shape == (500,)
        assert set(np.unique(T)) == {0, 1}

    def test_deterministic(self):
        a = synthetic_covariates(100, 3, seed=1)
        b = synthetic_covariates(100, 3, seed=1)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_roughly_standard_scale(self):
        X, _ = synthetic_covariates(4000, 4, seed=2)
        assert abs(X.mean()) < 0.05
        assert X.std() == pytest.approx(1.0, abs=0.05)


MENU = {
    "ridge-t": CateFitSpec(kind="t", learner=RIDGE),
    "ridge-s": CateFitSpec(kind="s", learner=RIDGE),
}
# absurd shrinkage leaves the train mean, which fails the held-out error gate
PLANTED = CateFitSpec(kind="s", learner=LearnerSpec.from_dict({"kind": "lasso", "lam": 1e9}))


class Flaky:
    """Fails on the train split given, in whichever process fits it."""

    def __init__(self, inner, failing=None):
        self.inner, self.failing, self.seen = inner, failing, []

    def fit(self, train, propensity=None):
        self.seen.append(train.covariates.tobytes())
        if self.seen[-1] == self.failing:
            raise DataError("planted failure")
        return self.inner.fit(train, propensity=propensity)


class GatedOut(Flaky):
    """On the train split given, fits the planted model, which the gate excludes."""

    def fit(self, train, propensity=None):
        self.seen.append(train.covariates.tobytes())
        spec = PLANTED if self.seen[-1] == self.failing else self.inner
        return spec.fit(train, propensity=propensity)


def flaky_study(monkeypatch, kind, **others):
    """A three-run study of a ``kind`` model that misbehaves on run 0's train
    split, ahead of the menu entries ``others``."""
    X, T = synthetic_covariates(300, 4, seed=21)
    ridge_t = CateFitSpec(kind="t", learner=RIDGE)

    def study(spec):
        return run_study(
            X, T, SimulationSpec(lam=0.5, effect_size=1.0), {"flaky": spec, **others},
            runs=3, seed=5, plug_in_spec=RIDGE,
        )

    with monkeypatch.context() as serial:
        see_cpus(serial, 1)
        recorder = kind(ridge_t)
        study(recorder)  # in this process: run 0 fits first
    return study(kind(ridge_t, failing=recorder.seen[0]))


def small_study(**kw):
    X, T = synthetic_covariates(kw.pop("n", 400), kw.pop("d", 5), seed=kw.pop("data_seed", 20))
    defaults = dict(
        runs=3,
        seed=77,
        plug_in_spec=RIDGE,
    )
    defaults.update(kw)
    return run_study(X, T, SimulationSpec(lam=0.5, effect_size=1.0), MENU, **defaults)


class TestRunStudy:
    def test_report_layout(self):
        report = small_study(modes=ENSEMBLE_MODES)
        assert report.n_runs == 3 and report.failures == []
        expected = {
            "ridge-t", "ridge-s",
            "ensemble-average", "ensemble-majority", "ensemble-consensus",
            "doctors", "random", "propensity", "treat-all-0", "treat-all-1",
            "optimal",
        }
        assert set(report.policies) == expected
        assert len(report.rows) == 3 * len(expected)
        agg = {row["policy"]: row for row in report.aggregates}["ridge-t"]
        assert {"v_ipw_mean", "v_ipw_sem", "v_dr_mean", "v_dr_sem", "v_true_mean", "v_true_sem"} <= set(agg)
        assert set(report.checks) == {"fidelity", "improves_on_current", "approaches_optimal"}

    def test_doctors_row_identical_across_estimators(self):
        report = small_study()
        for row in report.rows:
            if row["policy"] == "doctors":
                assert row["v_ipw"] == row["v_dr"] == row["v_true"]

    def test_deterministic_given_seed(self):
        a = small_study().to_dict()
        b = small_study().to_dict()
        assert a == b
        c = small_study(seed=78).to_dict()
        assert a != c

    def test_checks_pass_on_well_specified_setup(self):
        report = small_study(n=1500, d=8, runs=4)
        assert report.checks["fidelity"]["pass"]
        assert report.checks["improves_on_current"]["pass"]
        assert 0.0 <= report.checks["approaches_optimal"]["closure"] <= 1.5

    def test_evaluation_propensity_fitted_once_per_study(self, monkeypatch, one_worker):
        fits = []

        def counting(spec, X, T):
            fits.append(spec)
            return fit_classifier(spec, X, T)

        monkeypatch.setattr(simulation, "fit_classifier", counting)
        assert small_study(runs=3).failures == []
        assert len(fits) == 1

    def test_failed_run_recorded_and_study_continues(self, monkeypatch):
        report = flaky_study(monkeypatch, Flaky)
        assert len(report.failures) == 1
        assert report.failures[0]["run"] == 0
        assert "planted failure" in report.failures[0]["error"]
        runs_seen = {row["run"] for row in report.rows}
        assert runs_seen == {1, 2}

    def test_run_whose_every_model_is_gated_out_is_a_failure_naming_the_gate(self, monkeypatch):
        report = flaky_study(monkeypatch, GatedOut)
        assert [f["run"] for f in report.failures] == [0]
        assert "held-out error gate" in report.failures[0]["error"]
        assert {row["run"] for row in report.rows} == {1, 2}

    def test_model_is_not_valued_in_the_run_that_gated_it_out(self, monkeypatch):
        report = flaky_study(monkeypatch, GatedOut, other=MENU["ridge-t"])
        assert report.failures == []
        assert {row["run"] for row in report.rows if row["policy"] == "flaky"} == {1, 2}
        assert {row["run"] for row in report.rows if row["policy"] == "other"} == {0, 1, 2}
        n_runs = {agg["policy"]: agg["n_runs"] for agg in report.aggregates}
        assert n_runs["flaky"] == 2 and n_runs["other"] == 3
        # menu order is kept though run 0 lists "other" first
        assert report.policies[:2] == ["flaky", "other"]

    def test_gated_out_model_is_not_valued(self):
        menu = {"planted": PLANTED, "ridge-t": MENU["ridge-t"]}
        X, T = synthetic_covariates(400, 5, seed=20)
        report = run_study(X, T, SimulationSpec(lam=0.5, effect_size=1.0), menu,
                           runs=3, seed=77, plug_in_spec=RIDGE)
        assert report.failures == []
        assert "planted" not in report.policies
        assert not any(row["policy"] == "planted" for row in report.rows)
        assert report.checks["improves_on_current"]["selected"] == "ridge-t"

    def test_runs_split_as_ingest_does(self, monkeypatch, one_worker):
        labels = []

        def recording(data, fractions, seed):
            labelled = assign_splits(data, fractions, seed)
            labels.append(labelled.split)
            return labelled

        monkeypatch.setattr(simulation, "assign_splits", recording)
        small_study(n=400, train_frac=0.5, fractions=[0.5, 0.25, 0.25])
        assert len(labels) == 3
        for split in labels:
            counts = {name: int((split == name).sum()) for name in SPLIT_NAMES}
            assert counts == {"train": 133, "validation": 67, "test": 200}
        assert not np.array_equal(labels[0], labels[1])

    def test_all_runs_failing_raises(self):
        class Broken:
            def fit(self, train, propensity=None):
                raise DataError("nope")

        X, T = synthetic_covariates(200, 3, seed=22)
        with pytest.raises(DataError, match="every study run failed"):
            run_study(
                X, T, SimulationSpec(lam=0.5, effect_size=1.0), {"b": Broken()},
                runs=2, seed=6, plug_in_spec=RIDGE,
            )

    def test_clinician_aligned_generator_puts_doctors_near_propensity_policy(self):
        X, T = synthetic_covariates(900, 5, seed=23)
        report = run_study(
            X, T, SimulationSpec(lam=1.0, effect_size=3.0), {"ridge-t": MENU["ridge-t"]},
            runs=3, seed=8, plug_in_spec=RIDGE,
        )
        aggs = {row["policy"]: row["v_true_mean"] for row in report.aggregates}
        doctors, prop = aggs["doctors"], aggs["propensity"]
        all0, all1 = aggs["treat-all-0"], aggs["treat-all-1"]
        assert abs(doctors - prop) < abs(doctors - all0)
        assert abs(doctors - prop) < abs(doctors - all1)

    def test_parameter_validation(self):
        X, T = synthetic_covariates(100, 3, seed=24)
        with pytest.raises(ConfigError, match="runs"):
            run_study(X, T, SimulationSpec(0.5, 1.0), MENU, runs=1)
        with pytest.raises(ConfigError, match="menu"):
            run_study(X, T, SimulationSpec(0.5, 1.0), {}, runs=2)

    def test_fractions_without_train_or_validation_rows_rejected(self):
        X, T = synthetic_covariates(200, 3, seed=24)
        with pytest.raises(ConfigError, match=r"fractions \[0, 0, 1\]"):
            run_study(X, T, SimulationSpec(0.5, 1.0), MENU, runs=2, fractions=(0, 0, 1))

    @pytest.mark.parametrize("train_frac", [-0.2, 0.0, 1.0, 1.5, float("nan")])
    def test_train_frac_outside_unit_interval_rejected(self, train_frac):
        X, T = synthetic_covariates(100, 3, seed=24)
        with pytest.raises(ConfigError, match="train_frac"):
            run_study(X, T, SimulationSpec(0.5, 1.0), MENU, runs=2, train_frac=train_frac)
