import numpy as np
import pytest
from conftest import make_dataset

from treatpolicy.cate import CateInterval
from treatpolicy.deferral import (
    DeferralRule,
    characterize_subpop,
    evaluate_deferral,
)
from treatpolicy.errors import DataError


def interval(lower, upper):
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    return CateInterval(lower=lower, point=(lower + upper) / 2, upper=upper)


class TestRuleValidation:
    def test_bad_bounds(self):
        with pytest.raises(ValueError, match="eta_low"):
            DeferralRule(0.9, 0.1)


class TestEvaluateDeferral:
    def test_overlap_clause_fires_regardless_of_interval(self):
        rule = DeferralRule(0.1, 0.9, mode="conservative")
        out = evaluate_deferral(rule, [0.05], interval([0.2], [0.7]))
        assert out.defer.tolist() == [True]
        assert out.reason.tolist() == ["overlap"]

    def test_interval_excluding_zero_proceeds(self):
        rule = DeferralRule(0.1, 0.9, mode="conservative")
        out = evaluate_deferral(rule, [0.5], interval([0.2], [0.7]))
        assert out.defer.tolist() == [False]
        assert out.reason.tolist() == [""]

    def test_zero_in_interval_defers_only_in_conservative_mode(self):
        iv = interval([-0.1], [0.3])
        con = DeferralRule(0.1, 0.9, mode="conservative")
        inc = DeferralRule(0.1, 0.9, mode="inclusive")
        assert evaluate_deferral(con, [0.5], iv).defer.tolist() == [True]
        assert evaluate_deferral(con, [0.5], iv).reason.tolist() == ["uncertainty"]
        assert evaluate_deferral(inc, [0.5], iv).defer.tolist() == [False]

    def test_bounds_are_inclusive_at_endpoints(self):
        # overlap keeps the closed interval; deferral complements it strictly
        rule = DeferralRule(0.1, 0.9, mode="inclusive")
        out = evaluate_deferral(rule, [0.1, 0.9, 0.0999, 0.9001])
        assert out.defer.tolist() == [False, False, True, True]

    def test_conservative_superset_of_inclusive(self):
        rng = np.random.default_rng(0)
        e = rng.uniform(size=200)
        lo = rng.normal(size=200)
        iv = interval(lo, lo + rng.uniform(size=200))
        con = evaluate_deferral(DeferralRule(0.2, 0.8, "conservative"), e, iv)
        inc = evaluate_deferral(DeferralRule(0.2, 0.8, "inclusive"), e, iv)
        assert (con.defer | inc.defer).tolist() == con.defer.tolist()
        assert con.n_deferred > inc.n_deferred

    def test_count_antitone_as_overlap_interval_widens(self):
        rng = np.random.default_rng(1)
        e = rng.uniform(size=500)
        counts = [
            evaluate_deferral(DeferralRule(lo, hi, "inclusive"), e).n_deferred
            for lo, hi in ((0.4, 0.6), (0.25, 0.75), (0.1, 0.9))
        ]
        assert counts[0] >= counts[1] >= counts[2]

    def test_count_monotone_in_interval_width(self):
        # stand-in for lam/alpha monotonicity: wider intervals defer at least as much
        rng = np.random.default_rng(2)
        e = np.full(300, 0.5)
        centers = rng.normal(size=300)
        rule = DeferralRule(0.1, 0.9, "conservative")
        counts = [
            evaluate_deferral(rule, e, interval(centers - w, centers + w)).n_deferred
            for w in (0.1, 0.5, 2.0)
        ]
        assert counts[0] <= counts[1] <= counts[2]

    def test_missing_interval_in_conservative_mode_rejected(self):
        with pytest.raises(ValueError, match="interval"):
            evaluate_deferral(DeferralRule(0.1, 0.9, "conservative"), [0.5])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError, match="rows"):
            evaluate_deferral(
                DeferralRule(0.1, 0.9, "conservative"), [0.5, 0.6], interval([0.0], [1.0])
            )

    def test_csv_rows_shape(self):
        # the per-row flag and reason the defer stage writes to defer/decisions.csv;
        # overlap is recorded before uncertainty when both fire
        rule = DeferralRule(0.1, 0.9, mode="conservative")
        out = evaluate_deferral(rule, [0.05, 0.5, 0.5], interval([-1, -1, 1], [1, 0.5, 2]))
        assert out.defer.tolist() == [True, True, False]
        assert out.reason.tolist() == ["overlap", "uncertainty", ""]
        assert out.n_deferred == 2


class TestCharacterizeSubpop:
    def test_planted_signal_ranked_first(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(400, 5))
        flags = X[:, 3] > 0
        data = make_dataset(X, rng.integers(0, 2, 400), rng.normal(size=400))
        profile = characterize_subpop(flags, data, lam=0.05)
        assert profile["coefficients"][0]["column"] == "x3"
        assert profile["n_deferred"] == int(flags.sum())
        assert profile["n_recommended"] == 400 - profile["n_deferred"]

    def test_independent_labels_fully_shrunk(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(200, 4))
        flags = rng.random(200) < 0.5
        data = make_dataset(X, rng.integers(0, 2, 200), rng.normal(size=200))
        profile = characterize_subpop(flags, data, lam=50.0)
        assert profile["coefficients"] == []

    def test_grouped_counts_sum_to_total(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 3))
        flags = np.arange(60) % 3 == 0
        data = make_dataset(X, rng.integers(0, 2, 60), rng.normal(size=60))
        profile = characterize_subpop(flags, data)
        assert set(profile) == {"coefficients", "n_deferred", "n_recommended", "table"}
        header = profile["table"][0]
        assert "recommended" in header and "deferred" in header
        assert all(isinstance(cell, str) for row in profile["table"] for cell in row)
        assert profile["n_deferred"] + profile["n_recommended"] == 60

    def test_single_class_rejected(self):
        rng = np.random.default_rng(6)
        data = make_dataset(rng.normal(size=(10, 2)), [0, 1] * 5, rng.normal(size=10))
        with pytest.raises(DataError, match="both"):
            characterize_subpop(np.zeros(10, dtype=bool), data)
        with pytest.raises(DataError, match="both"):
            characterize_subpop(np.ones(10, dtype=bool), data)
