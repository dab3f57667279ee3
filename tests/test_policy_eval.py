import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from conftest import dr_value, ipw_value, make_dataset
from hypothesis import given, settings
from hypothesis import strategies as st

from treatpolicy import policy_eval
from treatpolicy.errors import DataError, EstimationError
from treatpolicy.learners import LearnerSpec
from treatpolicy.policy_eval import (
    DEFER,
    ENSEMBLE_MODES,
    DecisionRule,
    Policy,
    baselines,
    bootstrap_tournament,
    build_policy,
    build_policy_set,
    fit_plug_in,
    outcome_tree,
    point_values,
    rank_curve,
    summarize_bootstrap,
)

HIGHER = DecisionRule(threshold=0.0, direction="higher-better")
LOWER = DecisionRule(threshold=0.0, direction="lower-better")


def four_row_fixture():
    """Rows (t, y, p_treat): matched weights under rec=[1,1,1,0] are 2, -, 1.25, 2."""
    data = make_dataset(np.zeros((4, 1)), [1, 0, 1, 0], [2.0, 4.0, 6.0, 0.0])
    p_star = np.array([0.5, 0.5, 0.8, 0.5])
    policy = Policy(name="hand", rec=[1, 1, 1, 0])
    return data, p_star, policy


class TestDecisionRule:
    def test_boundary_is_inclusive_for_higher_better(self):
        assert HIGHER.apply([0.0, -1e-12, 1e-12]).tolist() == [True, False, True]

    def test_lower_better_flips_comparison(self):
        assert LOWER.apply([-0.3]).tolist() == [True]
        assert LOWER.apply([0.3]).tolist() == [False]
        assert LOWER.apply([0.0]).tolist() == [True]

    def test_threshold_shifts_cut(self):
        rule = DecisionRule(threshold=2.0, direction="higher-better")
        assert rule.apply([1.9, 2.0, 2.1]).tolist() == [False, True, True]


class TestBuildPolicy:
    def test_defer_takes_precedence(self):
        policy = build_policy(np.array([5.0, -5.0, 5.0]), HIGHER, defer=[True, False, False])
        assert policy.rec.tolist() == [DEFER, 0, 1]

    def test_positive_scaling_leaves_recommendations_unchanged(self):
        rng = np.random.default_rng(0)
        tau = rng.normal(size=200)
        for rule in (HIGHER, LOWER):
            base = build_policy(tau, rule).rec
            scaled = build_policy(7.3 * tau, rule).rec
            assert (base == scaled).all()

    def test_invalid_recommendation_values_rejected(self):
        with pytest.raises(ValueError, match="recommendations"):
            Policy(name="bad", rec=[0, 2])


class TestValueEstimators:
    def test_ipw_hand_fixture(self):
        data, p_star, policy = four_row_fixture()
        v = ipw_value(policy, data, p_star)
        expected = (2 * 2.0 + 1.25 * 6.0 + 2 * 0.0) / (2 + 1.25 + 2)
        assert v == pytest.approx(expected, abs=1e-9)
        assert v == pytest.approx(46 / 21, abs=1e-9)

    def test_dr_hand_fixture_constant_plug_in(self):
        data, p_star, policy = four_row_fixture()
        v = dr_value(policy, data, p_star, plug_in=np.ones((4, 2)))
        expected = (2 * 1.0 + 1.25 * 5.0 + 2 * (-1.0)) / 5.25 + 1.0
        assert v == pytest.approx(expected, abs=1e-9)
        assert v == pytest.approx(46 / 21, abs=1e-9)

    def test_all_deferred_collapses_to_factual_mean(self):
        data, p_star, _ = four_row_fixture()
        policy = Policy(name="defer", rec=[DEFER] * 4)
        assert ipw_value(policy, data, p_star) == data.outcome.mean()
        assert dr_value(policy, data, p_star, np.zeros((4, 2))) == data.outcome.mean()

    def test_policy_equal_to_observed_with_constant_half(self):
        rng = np.random.default_rng(1)
        t = rng.integers(0, 2, 50)
        y = rng.normal(size=50)
        data = make_dataset(np.zeros((50, 1)), t, y)
        policy = Policy(name="obs", rec=t)
        v = ipw_value(policy, data, np.full(50, 0.5))
        assert v == pytest.approx(y.mean(), abs=1e-12)

    def test_dr_with_perfect_plug_in_and_observed_policy(self):
        rng = np.random.default_rng(2)
        t = rng.integers(0, 2, 30)
        y = rng.normal(size=30)
        data = make_dataset(np.zeros((30, 1)), t, y)
        plug = np.zeros((30, 2))
        plug[np.arange(30), t] = y
        v = dr_value(Policy(name="obs", rec=t), data, np.full(30, 0.5), plug)
        assert v == pytest.approx(y.mean(), abs=1e-12)

    def test_dr_equals_ipw_for_zero_plug_in(self):
        rng = np.random.default_rng(3)
        n = 80
        t = rng.integers(0, 2, n)
        y = rng.normal(size=n)
        rec = np.where(rng.random(n) < 0.2, DEFER, rng.integers(0, 2, n)).astype(np.int8)
        data = make_dataset(rng.normal(size=(n, 2)), t, y)
        policy = Policy(name="p", rec=rec)
        p_star = rng.uniform(0.2, 0.8, n)
        assert dr_value(policy, data, p_star, np.zeros((n, 2))) == ipw_value(
            policy, data, p_star
        )

    def test_deferred_rows_mix_by_empirical_proportion(self):
        data = make_dataset(np.zeros((2, 1)), [1, 0], [2.0, 10.0])
        policy = Policy(name="mix", rec=[1, DEFER])
        assert ipw_value(policy, data, np.array([0.5, 0.5])) == pytest.approx(6.0, abs=1e-12)

    def test_zero_matched_weight_raises(self):
        data = make_dataset(np.zeros((2, 1)), [0, 0], [1.0, 2.0])
        policy = Policy(name="never", rec=[1, 1])
        with pytest.raises(EstimationError, match="weight"):
            ipw_value(policy, data, np.array([0.5, 0.5]))

    def test_scores_are_clipped_before_weighting(self):
        data = make_dataset(np.zeros((2, 1)), [1, 1], [1.0, 3.0])
        policy = Policy(name="all1", rec=[1, 1])
        v = ipw_value(policy, data, np.array([0.001, 0.5]))
        assert v == pytest.approx((100 * 1.0 + 2 * 3.0) / 102, abs=1e-12)

    def test_outcome_shift_moves_values_by_constant(self):
        rng = np.random.default_rng(4)
        n = 60
        t = rng.integers(0, 2, n)
        y = rng.normal(size=n)
        rec = np.where(rng.random(n) < 0.3, DEFER, rng.integers(0, 2, n)).astype(np.int8)
        p_star = rng.uniform(0.2, 0.8, n)
        plug = rng.normal(size=(n, 2))
        pol = Policy(name="p", rec=rec)
        base = make_dataset(np.zeros((n, 1)), t, y)
        shifted = make_dataset(np.zeros((n, 1)), t, y + 5.0)
        assert ipw_value(pol, shifted, p_star) == pytest.approx(
            ipw_value(pol, base, p_star) + 5.0, abs=1e-9
        )
        assert dr_value(pol, shifted, p_star, plug) == pytest.approx(
            dr_value(pol, base, p_star, plug) + 5.0, abs=1e-9
        )

    def test_factual_policy_is_plain_mean_under_both_estimators(self):
        rng = np.random.default_rng(5)
        n = 40
        t = rng.integers(0, 2, n)
        y = rng.normal(size=n)
        data = make_dataset(rng.normal(size=(n, 3)), t, y)
        doctors = Policy(name="doctors", rec=t, factual=True)
        p_star = rng.uniform(0.1, 0.9, n)
        assert ipw_value(doctors, data, p_star) == y.mean()
        assert dr_value(doctors, data, p_star, rng.normal(size=(n, 2))) == y.mean()


class TestPointValues:
    def test_values_every_policy_in_order(self):
        data, p_star, policy = four_row_fixture()
        doctors = Policy(name="doctors", rec=data.treatment, factual=True)
        points = point_values([policy, doctors], data, p_star, plug_in=np.ones((4, 2)))
        assert set(points) == {"IPW", "DR"}
        assert points["IPW"].tolist() == [ipw_value(policy, data, p_star), data.outcome.mean()]

    def test_inputs_validated(self):
        data, p_star, policy = four_row_fixture()
        with pytest.raises(ValueError, match="rows"):
            point_values([Policy(name="short", rec=[1, 0])], data, p_star, estimators=("IPW",))
        with pytest.raises(ValueError, match="plug-in"):
            point_values([policy], data, p_star)
        with pytest.raises(ValueError, match="shaped"):
            point_values([policy], data, p_star, plug_in=np.ones((3, 2)))


class TestBuildPolicySet:
    def make(self):
        data = make_dataset(np.zeros((4, 1)), [1, 0, 1, 0], [2.0, 4.0, 6.0, 0.0])
        return data, np.full(4, 0.5)

    def test_menu_then_ensembles_then_baselines(self):
        data, e = self.make()
        effects = {"b": np.array([1.0, -1.0, 1.0, -1.0]), "a": np.full(4, 2.0)}
        policies = build_policy_set(effects, HIGHER, data, e, modes=ENSEMBLE_MODES, seed=3)
        names = [p.name for p in baselines(data, e, seed=3)]
        assert [p.name for p in policies] == [
            "b", "a", "ensemble-average", "ensemble-majority", "ensemble-consensus", *names
        ]
        assert [p.source for p in policies[:5]] == ["cate-model"] * 2 + ["ensemble"] * 3
        assert policies[0].rec.tolist() == [1, 0, 1, 0]
        assert policies[1].rec.tolist() == [1, 1, 1, 1]
        # the ensembles vote over the effects above: a tie wherever b is negative
        assert policies[2].rec.tolist() == [1, 1, 1, 1]
        assert policies[3].rec.tolist() == [1, DEFER, 1, DEFER]
        assert policies[4].rec.tolist() == [1, DEFER, 1, DEFER]
        for got, want in zip(policies[5:], baselines(data, e, seed=3)):
            assert got.rec.tolist() == want.rec.tolist() and got.factual == want.factual

    def test_defer_takes_precedence_over_the_rule(self):
        data, e = self.make()
        policies = build_policy_set(
            {"a": np.full(4, 5.0), "b": np.full(4, -3.0)}, HIGHER, data, e,
            defer={"a": [True, False, False, True], "b": [False, True, False, False]},
            modes=("average",), ensemble_defer=np.array([False, False, True, False]),
        )
        assert policies[0].rec.tolist() == [DEFER, 1, 1, DEFER]
        assert policies[1].rec.tolist() == [0, DEFER, 0, 0]
        assert policies[2].name == "ensemble-average"
        assert policies[2].rec.tolist() == [1, 1, DEFER, 1]

    def test_ensembles_skipped_with_fewer_than_two_members(self):
        data, e = self.make()
        for effects in ({}, {"a": np.ones(4)}):
            policies = build_policy_set(effects, HIGHER, data, e, modes=ENSEMBLE_MODES)
            assert [p.source for p in policies] == ["cate-model"] * len(effects) + ["baseline"] * 5


class TestFitPlugIn:
    def test_columns_are_per_arm_predictions(self):
        train = make_dataset([[0.0], [1.0], [2.0], [0.0], [1.0], [2.0]], [0, 0, 0, 1, 1, 1],
                             [1.0, 1.0, 1.0, 3.0, 3.0, 3.0])
        plug = fit_plug_in(LearnerSpec.from_dict({"kind": "ols"}), train, np.array([[0.5], [5.0]]))
        np.testing.assert_allclose(plug, [[1.0, 3.0], [1.0, 3.0]], atol=1e-12)

    @pytest.mark.parametrize("kind", ["ols", "ridge", "lasso", "gbt"])
    def test_arm_without_training_rows_raises_before_arithmetic(self, kind):
        train = make_dataset(np.arange(6.0)[:, None], [0] * 6, np.arange(6.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="cannot fit on an empty dataset"):
                fit_plug_in(LearnerSpec.from_dict({"kind": kind}), train, np.zeros((2, 1)))


class TestBaselines:
    def make(self, seed=0, n=400, frac=0.3):
        rng = np.random.default_rng(seed)
        t = (rng.random(n) < frac).astype(int)
        data = make_dataset(rng.normal(size=(n, 2)), t, rng.normal(size=n))
        e = rng.uniform(0.05, 0.95, n)
        return data, e

    def test_names_and_sources(self):
        data, e = self.make()
        pols = baselines(data, e, seed=3)
        assert [p.name for p in pols] == ["doctors", "random", "propensity", "treat-all-0", "treat-all-1"]
        assert all(p.source == "baseline" for p in pols)

    def test_doctors_matches_observed_and_is_factual(self):
        data, e = self.make()
        doctors = baselines(data, e, seed=3)[0]
        assert doctors.factual
        assert (doctors.rec == data.treatment).all()

    def test_random_matches_proportion_and_is_seeded(self):
        data, e = self.make(n=2000)
        a = baselines(data, e, seed=11)[1]
        b = baselines(data, e, seed=11)[1]
        c = baselines(data, e, seed=12)[1]
        assert (a.rec == b.rec).all()
        assert not (a.rec == c.rec).all()
        assert abs(a.treated_fraction - data.treatment.mean()) < 0.05

    def test_propensity_threshold_is_strict(self):
        data = make_dataset(np.zeros((3, 1)), [0, 1, 0], [0.0, 0.0, 0.0])
        pol = baselines(data, np.array([0.5, 0.51, 0.49]), seed=0)[2]
        assert pol.rec.tolist() == [0, 1, 0]

    def test_treat_all_policies_are_constant(self):
        data, e = self.make(n=10)
        pols = baselines(data, e, seed=0)
        assert (pols[3].rec == 0).all() and (pols[4].rec == 1).all()


def _value(rec, t, y, p1, plug_in, estimator: str, factual: bool) -> float:
    """One value estimate on all rows given."""
    if factual:
        return float(y.mean())
    nd = rec != DEFER
    p_def = float((~nd).mean())
    v_def = float(y[~nd].mean()) if p_def > 0 else 0.0
    if not nd.any():
        return v_def
    rec_nd = rec[nd]
    t_nd = t[nd]
    y_nd = y[nd]
    p_rec = np.where(rec_nd == 1, p1[nd], 1.0 - p1[nd])
    w = (t_nd == rec_nd) / p_rec
    total_w = w.sum()
    if total_w == 0.0:
        raise EstimationError("no rows match the recommended arm; zero total weight")
    if estimator == "IPW":
        v_nd = float(np.sum(w * y_nd) / total_w)
    else:  # DR; point_values has checked the estimator name and the plug-in
        y_hat = plug_in[nd][np.arange(rec_nd.size), rec_nd]
        v_nd = float(np.sum(w * (y_nd - y_hat)) / total_w + y_hat.mean())
    return v_nd * (1.0 - p_def) + v_def * p_def


def per_round_value(pol, est, data, p1, plug, idx=slice(None)):
    """``_value`` on rows ``idx``: the per-round oracle of the tournament."""
    return _value(
        pol.rec[idx], data.treatment[idx], data.outcome[idx], p1[idx],
        plug[idx] if est == "DR" else None, est, pol.factual,
    )


def per_round_loop(pols, data, p1, plug, B, seed):
    """Distributions from one ``_value`` call per round, policy and estimator,
    on the rounds ``bootstrap_tournament`` draws for ``seed``."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    out = {est: np.full((len(pols), B), np.nan) for est in ("IPW", "DR")}
    for b in range(B):
        idx = rng.integers(0, data.n, data.n)
        for i, pol in enumerate(pols):
            for est in ("IPW", "DR"):
                try:
                    out[est][i, b] = per_round_value(pol, est, data, p1, plug, idx)
                except EstimationError:
                    pass
    return out


class TestTournament:
    def test_dominant_policy_wins_every_round(self):
        rng = np.random.default_rng(6)
        n = 60
        t = np.tile([0, 1], n // 2)
        y = t.astype(float)
        data = make_dataset(rng.normal(size=(n, 1)), t, y)
        good = Policy(name="all1", rec=np.ones(n, dtype=np.int8))
        bad = Policy(name="all0", rec=np.zeros(n, dtype=np.int8))
        res = bootstrap_tournament([good, bad], data, np.full(n, 0.5), estimators=("IPW",), B=50, seed=0)
        assert res.wins["IPW"][0, 1] == 50
        assert res.wins["IPW"][1, 0] == 0

    def test_diagonal_and_tie_handling(self):
        rng = np.random.default_rng(7)
        n = 30
        t = rng.integers(0, 2, n)
        data = make_dataset(rng.normal(size=(n, 1)), t, rng.normal(size=n))
        p = Policy(name="a", rec=t.copy())
        q = Policy(name="b", rec=t.copy())
        res = bootstrap_tournament([p, q], data, np.full(n, 0.5), estimators=("IPW",), B=20, seed=1)
        w = res.wins["IPW"]
        assert w[0, 0] == 0 and w[1, 1] == 0
        # identical policies tie every shared round
        assert w[0, 1] == 0 and w[1, 0] == 0

    def test_win_counting_identity(self):
        rng = np.random.default_rng(8)
        n = 50
        t = rng.integers(0, 2, n)
        data = make_dataset(rng.normal(size=(n, 2)), t, rng.normal(size=n))
        pols = [
            Policy(name="all1", rec=np.ones(n, dtype=np.int8)),
            Policy(name="all0", rec=np.zeros(n, dtype=np.int8)),
            Policy(name="obs", rec=t),
        ]
        B = 40
        res = bootstrap_tournament(pols, data, np.full(n, 0.5), estimators=("IPW",), B=B, seed=2)
        w = res.wins["IPW"]
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert w[i, j] + w[j, i] <= B

    def test_distributions_shared_round_shapes_and_dr(self):
        rng = np.random.default_rng(9)
        n = 40
        t = rng.integers(0, 2, n)
        data = make_dataset(rng.normal(size=(n, 1)), t, rng.normal(size=n))
        pols = [Policy(name="all1", rec=np.ones(n, dtype=np.int8))]
        res = bootstrap_tournament(
            pols, data, np.full(n, 0.5), estimators=("IPW", "DR"), B=15, seed=3,
            plug_in=np.zeros((n, 2)),
        )
        assert res.distributions["IPW"].shape == (1, 15)
        np.testing.assert_array_equal(res.distributions["IPW"], res.distributions["DR"])

    def test_skipped_rounds_counted(self):
        data = make_dataset(np.zeros((3, 1)), [1, 0, 0], [1.0, 2.0, 3.0])
        pol = Policy(name="narrow", rec=[1, 1, 1])
        res = bootstrap_tournament([pol], data, np.full(3, 0.5), estimators=("IPW",), B=80, seed=4)
        assert res.skipped["IPW"] > 0
        assert res.skipped["IPW"] == int(np.isnan(res.distributions["IPW"]).sum())

    def test_dr_without_plug_in_rejected(self):
        data = make_dataset(np.zeros((4, 1)), [0, 1, 0, 1], [0.0, 1.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="plug-in"):
            bootstrap_tournament(
                [Policy(name="a", rec=[1, 1, 1, 1])], data, np.full(4, 0.5),
                estimators=("IPW", "DR"), B=2, seed=0,
            )

    def test_points_match_direct_calls(self):
        data, p_star, policy = four_row_fixture()
        doctors = Policy(name="doctors", rec=data.treatment, factual=True)
        plug = np.ones((4, 2))
        res = bootstrap_tournament(
            [policy, doctors], data, p_star, estimators=("IPW", "DR"), B=25, seed=0,
            plug_in=plug,
        )
        for i, pol in enumerate([policy, doctors]):
            assert res.points["IPW"][i] == ipw_value(pol, data, p_star)
            assert res.points["DR"][i] == dr_value(pol, data, p_star, plug)
        assert res.distributions["IPW"].shape == (2, 25)

    def test_same_seed_reproduces(self):
        data, p_star, policy = four_row_fixture()
        a = bootstrap_tournament([policy], data, p_star, estimators=("IPW",), B=10, seed=7)
        b = bootstrap_tournament([policy], data, p_star, estimators=("IPW",), B=10, seed=7)
        np.testing.assert_array_equal(a.distributions["IPW"], b.distributions["IPW"])
        np.testing.assert_array_equal(a.points["IPW"], b.points["IPW"])

    def test_nan_count_per_row_is_that_policys_skipped_rounds(self):
        # only row 0 matches "narrow"; rounds that drop it have zero weight
        data = make_dataset(np.zeros((3, 1)), [1, 0, 0], [1.0, 2.0, 3.0])
        narrow = Policy(name="narrow", rec=[1, 1, 1])
        control = Policy(name="control", rec=[0, 0, 0])
        res = bootstrap_tournament(
            [control, narrow], data, np.full(3, 0.5), estimators=("IPW",), B=60, seed=1
        )
        nan = np.isnan(res.distributions["IPW"]).sum(axis=1)
        assert nan[0] == 0
        assert nan[1] == res.skipped["IPW"] > 0

    def test_summarize_bootstrap_fields_and_order(self):
        data, p_star, policy = four_row_fixture()
        res = bootstrap_tournament([policy], data, p_star, estimators=("IPW",), B=40, seed=2)
        s = summarize_bootstrap(res.distributions["IPW"][0])
        assert set(s) == {"mean", "std", "min", "q25", "median", "q75", "max"}
        assert s["min"] <= s["q25"] <= s["median"] <= s["q75"] <= s["max"]

    def test_summarize_bootstrap_all_failed_row_is_nan(self):
        s = summarize_bootstrap(np.full(5, np.nan))
        assert set(s) == {"mean", "std", "min", "q25", "median", "q75", "max"}
        assert all(np.isnan(v) for v in s.values())

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 12).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(0, 1), min_size=n, max_size=n),
                st.lists(st.floats(-5, 5), min_size=n, max_size=n),
                st.lists(st.floats(0.05, 0.95), min_size=n, max_size=n),
                st.lists(
                    st.lists(st.sampled_from([0, 1, DEFER]), min_size=n, max_size=n),
                    min_size=1,
                    max_size=3,
                ),
                st.booleans(),
            )
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_rows_equal_a_per_round_loop(self, cohort, seed):
        # count sums and stack sums add in another order than _value, so
        # points and replicate values agree to rounding; failed rounds and
        # skipped are exact
        t, y, p, recs, with_doctors = cohort
        n = len(t)
        data = make_dataset(np.zeros((n, 1)), t, y)
        p1 = np.array(p)
        plug = np.column_stack([np.full(n, 0.5), np.linspace(-1.0, 1.0, n)])
        pols = [Policy(name=f"p{i}", rec=r) for i, r in enumerate(recs)]
        if with_doctors:
            pols.append(Policy(name="doctors", rec=t, factual=True))
        B = 7
        args = dict(estimators=("IPW", "DR"), B=B, seed=seed, plug_in=plug)

        try:
            points = {est: [per_round_value(pol, est, data, p1, plug) for pol in pols]
                      for est in ("IPW", "DR")}
        except EstimationError:
            with pytest.raises(EstimationError):
                bootstrap_tournament(pols, data, p1, **args)
            return
        res = bootstrap_tournament(pols, data, p1, **args)
        expected = per_round_loop(pols, data, p1, plug, B, seed)
        direct = point_values(pols, data, p1, plug_in=plug)
        for est in ("IPW", "DR"):
            np.testing.assert_array_equal(res.points[est], direct[est])
            want = np.array(points[est])
            assert np.all(np.abs(res.points[est] - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
            got, want = res.distributions[est], expected[est]
            np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
            ok = ~np.isnan(want)
            assert np.all(np.abs(got[ok] - want[ok]) <= 1e-12 * np.maximum(1.0, np.abs(want[ok])))
            assert res.skipped[est] == int(np.isnan(want).sum())

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 12).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(0, 1), min_size=n, max_size=n),
                st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                st.lists(st.sampled_from([0.2, 0.5]), min_size=n, max_size=n),
                st.lists(st.integers(-4, 4), min_size=2 * n, max_size=2 * n),
                st.lists(
                    st.lists(st.sampled_from([0, 1, DEFER]), min_size=n, max_size=n),
                    min_size=1,
                    max_size=3,
                ),
                st.booleans(),
            )
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_exact_on_dyadic_data(self, cohort, seed):
        # integer y and plug-in with matched weights 1/p in {2, 5, 1.25}
        # make every sum exact in float64, whatever its order, so the points
        # and count-matrix rounds must equal the per-round loop bit for bit;
        # three rounds per chunk also covers a short last chunk
        t, y, p, plug, recs, with_doctors = cohort
        n = len(t)
        data = make_dataset(np.zeros((n, 1)), t, y)
        p1 = np.array(p)
        plug = np.array(plug, dtype=float).reshape(n, 2)
        pols = [Policy(name=f"p{i}", rec=r) for i, r in enumerate(recs)]
        if with_doctors:
            pols.append(Policy(name="doctors", rec=t, factual=True))
        B = 7
        try:
            points = {est: [per_round_value(pol, est, data, p1, plug) for pol in pols]
                      for est in ("IPW", "DR")}
        except EstimationError:
            with pytest.raises(EstimationError):
                point_values(pols, data, p1, plug_in=plug)
            return
        with mock.patch.object(policy_eval, "_CHUNK_BYTES", 3 * 8 * n):
            res = bootstrap_tournament(pols, data, p1, B=B, seed=seed, plug_in=plug)
        expected = per_round_loop(pols, data, p1, plug, B, seed)
        for est in ("IPW", "DR"):
            np.testing.assert_array_equal(res.points[est], points[est])
            np.testing.assert_array_equal(res.distributions[est], expected[est])
            assert res.skipped[est] == int(np.isnan(expected[est]).sum())

    def test_identical_policies_tie_bit_for_bit_across_chunks(self):
        rng = np.random.default_rng(11)
        n = 50
        t = rng.integers(0, 2, n)
        data = make_dataset(np.zeros((n, 1)), t, rng.normal(size=n))
        rec = rng.choice([0, 1, DEFER], size=n)
        pols = [
            Policy(name="a", rec=rec),
            Policy(name="other", rec=np.ones(n, dtype=np.int8)),
            Policy(name="b", rec=rec.copy()),
        ]
        B = 25
        with mock.patch.object(policy_eval, "_CHUNK_BYTES", 4 * 8 * n):
            res = bootstrap_tournament(
                pols, data, rng.uniform(0.2, 0.8, n), B=B, seed=5, plug_in=rng.normal(size=(n, 2))
            )
        for est in ("IPW", "DR"):
            np.testing.assert_array_equal(res.distributions[est][0], res.distributions[est][2])
            assert res.wins[est][0, 2] == 0 and res.wins[est][2, 0] == 0

    def test_memory_is_bounded_by_one_chunk_of_rounds(self):
        # an unchunked count matrix at 100,000 rows and B = 400 is 320 MB
        rng = np.random.default_rng(12)
        n, B = 100_000, 400
        t = rng.integers(0, 2, n)
        data = make_dataset(np.zeros((n, 1)), t, rng.normal(size=n))
        pols = [Policy(name="all1", rec=np.ones(n, dtype=np.int8)), Policy(name="obs", rec=t)]
        p1 = np.full(n, 0.5)
        plug = np.zeros((n, 2))
        stacks = len(pols) * n * 6 * 8
        chunk = max(policy_eval._CHUNK_BYTES, 8 * n)
        tracemalloc.start()
        try:
            res = bootstrap_tournament(pols, data, p1, B=B, seed=0, plug_in=plug)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.distributions["DR"].shape == (2, B)
        assert peak < stacks + chunk + 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


class TestRankCurve:
    def randomized(self, seed=10, n=600):
        rng = np.random.default_rng(seed)
        tau = rng.uniform(-1.0, 1.0, n)
        t = rng.integers(0, 2, n)
        y = t * tau
        data = make_dataset(tau[:, None], t, y)
        return data, tau

    def test_top_endpoint_is_treat_nobody_bit_for_bit(self):
        data, tau = self.randomized()
        p_star = np.full(data.n, 0.5)
        curve = rank_curve(tau, data, p_star, estimator="IPW", step=0.25)
        all0 = Policy(name="treat-all-0", rec=np.zeros(data.n, dtype=np.int8))
        assert curve[-1]["q"] == 1.0
        assert curve[-1]["treated_fraction"] == 0.0
        assert curve[-1]["value"] == ipw_value(all0, data, p_star)

    def test_bottom_endpoint_treats_all_but_minimum(self):
        data, tau = self.randomized()
        curve = rank_curve(tau, data, np.full(data.n, 0.5), step=0.5)
        assert curve[0]["q"] == 0.0
        assert curve[0]["treated_fraction"] == (data.n - 1) / data.n

    def test_grid_size_and_fraction_monotonicity(self):
        data, tau = self.randomized()
        curve = rank_curve(tau, data, np.full(data.n, 0.5), step=0.1)
        assert len(curve) == 11
        fracs = [row["treated_fraction"] for row in curve]
        assert all(b <= a for a, b in zip(fracs, fracs[1:]))

    def test_oracle_effect_curve_peaks_near_true_optimum(self):
        # noiseless outcomes plus an exact plug-in make DR deterministic
        data, tau = self.randomized(seed=11, n=2000)
        plug = np.column_stack([np.zeros(data.n), tau])
        curve = rank_curve(
            tau, data, np.full(data.n, 0.5), estimator="DR", step=0.1, plug_in=plug
        )
        best = max(curve, key=lambda row: row["value"])
        true_frac = (tau > 0).mean()
        assert abs(best["treated_fraction"] - true_frac) <= 0.1 + 1e-9


class TestOutcomeTree:
    def test_full_agreement_empties_disagree_nodes(self):
        rng = np.random.default_rng(12)
        n = 50
        t = rng.integers(0, 2, n)
        y = rng.normal(size=n)
        data = make_dataset(rng.normal(size=(n, 1)), t, y)
        tree = outcome_tree(Policy(name="obs", rec=t), data)
        for arm in (0, 1):
            node = tree["children"][f"arm_{arm}"]
            assert node["children"]["disagree"]["n"] == 0
            assert node["children"]["defer"]["n"] == 0
            assert node["children"]["agree"]["mean"] == node["mean"]

    def test_all_defer_policy(self):
        rng = np.random.default_rng(13)
        n = 20
        t = rng.integers(0, 2, n)
        data = make_dataset(np.zeros((n, 1)), t, rng.normal(size=n))
        tree = outcome_tree(Policy(name="d", rec=np.full(n, DEFER)), data)
        for arm in (0, 1):
            node = tree["children"][f"arm_{arm}"]
            assert node["children"]["defer"]["n"] == node["n"]
            assert node["children"]["defer"]["mean"] == node["mean"]
            assert node["children"]["agree"]["n"] == 0

    def test_leaf_counts_partition_total(self):
        rng = np.random.default_rng(14)
        n = 101
        t = rng.integers(0, 2, n)
        rec = np.where(rng.random(n) < 0.3, DEFER, rng.integers(0, 2, n)).astype(np.int8)
        data = make_dataset(np.zeros((n, 1)), t, rng.normal(size=n))
        tree = outcome_tree(Policy(name="p", rec=rec), data)
        leaves = [
            tree["children"][f"arm_{arm}"]["children"][leaf]["n"]
            for arm in (0, 1)
            for leaf in ("agree", "disagree", "defer")
        ]
        assert sum(leaves) == n == tree["n"]

    def test_node_statistics_hand_values(self):
        data = make_dataset(np.zeros((4, 1)), [0, 0, 0, 1], [1.0, 2.0, 3.0, 9.0])
        tree = outcome_tree(Policy(name="all0", rec=[0, 0, 0, 0]), data)
        arm0 = tree["children"]["arm_0"]
        assert arm0["n"] == 3 and arm0["mean"] == 2.0
        assert arm0["sem"] == pytest.approx(1.0 / np.sqrt(3), abs=1e-12)
        arm1 = tree["children"]["arm_1"]
        assert arm1["n"] == 1 and arm1["mean"] == 9.0 and arm1["sem"] is None
        assert arm1["children"]["agree"]["n"] == 0
        assert arm1["children"]["agree"]["mean"] is None


class TestDrAccuracy:
    def test_dr_tracks_truth_on_randomized_data(self):
        # correctly specified scores and plug-in: |estimate - truth| <= 3 SE
        # for at least 90% of (policy, seed) pairs
        results = []
        for seed in range(8):
            rng = np.random.default_rng(100 + seed)
            n = 500
            X = rng.normal(size=(n, 2))
            tau = X[:, 0]
            mu0 = 0.5 * X[:, 1]
            t = rng.integers(0, 2, n)
            y = mu0 + t * tau + rng.normal(scale=0.3, size=n)
            data = make_dataset(X, t, y)
            plug = np.column_stack([mu0, mu0 + tau])
            p_star = np.full(n, 0.5)
            policies = {
                "all1": (np.ones(n, dtype=np.int8), (mu0 + tau).mean()),
                "all0": (np.zeros(n, dtype=np.int8), mu0.mean()),
                "oracle": (
                    (tau >= 0).astype(np.int8),
                    np.where(tau >= 0, mu0 + tau, mu0).mean(),
                ),
            }
            res = bootstrap_tournament(
                [Policy(name=name, rec=rec) for name, (rec, _) in policies.items()],
                data, p_star, estimators=("DR",), B=120, seed=seed, plug_in=plug,
            )
            for i, (_, truth) in enumerate(policies.values()):
                se = np.nanstd(res.distributions["DR"][i], ddof=1)
                results.append(abs(res.points["DR"][i] - truth) <= 3 * se)
        assert np.mean(results) >= 0.9
