import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treatpolicy.errors import DataError
from treatpolicy.learners import calibrate
from treatpolicy.learners.metrics import (
    _midranks,
    auroc,
    brier,
    calibration_curve,
    eval_metrics,
    kendall_tau,
    mae,
    pearson,
    r_squared,
    rmse,
)


def auroc_pair_oracle(scores, labels):
    """Brute force: fraction of (positive, negative) pairs won, ties half."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    if not pos or not neg:
        return None
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def _loop_midranks(values):
    """Loop oracle: each run of tied sorted values at positions i..j gets (i + j) / 2 + 1."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.size, dtype=float)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _brute_kendall(a, b):
    """Brute-force tau-b over all pairs, with two n x n sign matrices."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.size
    if n < 2:
        return float("nan")
    da = np.sign(a[:, None] - a[None, :])
    db = np.sign(b[:, None] - b[None, :])
    iu = np.triu_indices(n, k=1)
    prod = da[iu] * db[iu]
    concordant_minus_discordant = float(prod.sum())
    ties_a = int(np.sum(da[iu] == 0))
    ties_b = int(np.sum(db[iu] == 0))
    n0 = n * (n - 1) // 2
    denom = np.sqrt(float(n0 - ties_a) * float(n0 - ties_b))
    if denom == 0.0:
        return float("nan")
    return concordant_minus_discordant / denom


small_floats = st.floats(-100, 100, allow_nan=False, width=32)


class TestAuroc:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(small_floats, st.integers(0, 1)), min_size=2, max_size=50
        ).filter(lambda rows: len({l for _, l in rows}) == 2)
    )
    def test_matches_pair_count_oracle(self, rows):
        scores = np.array([s for s, _ in rows], dtype=float)
        labels = np.array([l for _, l in rows], dtype=float)
        got = auroc(scores, labels)
        want = auroc_pair_oracle(scores.tolist(), labels.tolist())
        assert got == pytest.approx(want, abs=1e-12)

    def test_tied_scores_hand_case(self):
        # positives {0.9, 0.5} vs negatives {0.5, 0.1}: wins 1 + 1 + 1 plus a
        # half for the tied pair -> 3.5 / 4
        scores = np.array([0.5, 0.9, 0.5, 0.1])
        labels = np.array([0.0, 1.0, 1.0, 0.0])
        assert auroc(scores, labels) == pytest.approx(0.875)

    def test_constant_scores_give_half(self):
        assert auroc(np.full(10, 0.3), np.array([0, 1] * 5, dtype=float)) == 0.5

    def test_single_class_is_none(self):
        assert auroc(np.array([0.1, 0.9]), np.array([1.0, 1.0])) is None

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            # coarse grid keeps distinct scores distinct after the transform
            st.tuples(st.integers(-100, 100).map(lambda k: k / 2.0),
                      st.integers(0, 1)),
            min_size=2, max_size=30,
        ).filter(lambda rows: len({l for _, l in rows}) == 2)
    )
    def test_invariant_under_monotone_transform(self, rows):
        scores = np.array([s for s, _ in rows], dtype=float)
        labels = np.array([l for _, l in rows], dtype=float)
        assert auroc(scores, labels) == pytest.approx(
            auroc(np.exp(scores / 50.0), labels), abs=1e-9
        )


class TestMidranks:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.one_of(st.integers(-3, 3).map(float), st.sampled_from([-0.0, 0.0]), small_floats),
            min_size=1, max_size=200,
        )
    )
    def test_equals_loop_oracle_bitwise(self, values):
        values = np.array(values, dtype=float)
        assert np.array_equal(_midranks(values), _loop_midranks(values))

    def test_hand_case(self):
        np.testing.assert_array_equal(
            _midranks(np.array([2.0, 1.0, 2.0, 3.0, 2.0])), [3.0, 1.0, 3.0, 5.0, 3.0]
        )


class TestRegressionMetrics:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.tuples(small_floats, small_floats), min_size=2, max_size=50)
    )
    def test_definitional_oracles(self, pairs):
        pred = np.array([p for p, _ in pairs], dtype=float)
        truth = np.array([t for _, t in pairs], dtype=float)
        n = len(pairs)
        assert rmse(pred, truth) == pytest.approx(
            math.sqrt(sum((p - t) ** 2 for p, t in pairs) / n), abs=1e-12, rel=1e-12
        )
        assert mae(pred, truth) == pytest.approx(
            sum(abs(p - t) for p, t in pairs) / n, abs=1e-12, rel=1e-12
        )
        tbar = truth.mean()
        ss_tot = sum((t - tbar) ** 2 for t in truth)
        if ss_tot > 0:
            want = 1 - sum((p - t) ** 2 for p, t in pairs) / ss_tot
            assert r_squared(pred, truth) == pytest.approx(want, abs=1e-9, rel=1e-9)

    def test_r2_perfect_and_constant(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r_squared(y, y) == 1.0
        assert math.isnan(r_squared(np.array([1.0, 1.0]), np.array([2.0, 2.0])))


class TestBrierAndCalibrationCurve:
    def test_brier_definitional(self):
        p = np.array([0.2, 0.9, 0.5])
        y = np.array([0.0, 1.0, 1.0])
        assert brier(p, y) == pytest.approx((0.04 + 0.01 + 0.25) / 3, abs=1e-15)

    def test_curve_bins_and_omission(self):
        p = np.array([0.05, 0.06, 0.95, 1.0])
        y = np.array([0.0, 1.0, 1.0, 1.0])
        curve = calibration_curve(p, y)
        assert len(curve) == 2  # eight empty bins omitted
        first, last = curve
        assert (first["bin_low"], first["bin_high"]) == (0.0, 0.1)
        assert first["count"] == 2
        assert first["fraction_positive"] == 0.5
        assert last["bin_high"] == 1.0  # p == 1.0 lands in the top bin
        assert last["count"] == 2
        assert sum(b["count"] for b in curve) == 4


class TestEvalMetrics:
    def test_classification_fields_and_threshold(self):
        p = np.array([0.4, 0.5, 0.6, 0.2])
        y = np.array([0.0, 1.0, 1.0, 1.0])
        m = eval_metrics(p, y, task="classification")
        assert set(m) == {
            "brier", "auroc", "accuracy", "precision", "recall", "f1",
            "calibration_curve",
        }
        # 0.5 counts as positive: predictions are [0, 1, 1, 0]
        assert m["accuracy"] == pytest.approx(0.75)
        assert m["precision"] == pytest.approx(1.0)
        assert m["recall"] == pytest.approx(2 / 3)

    def test_no_predicted_positives_reports_zero(self):
        m = eval_metrics(np.array([0.1, 0.2]), np.array([1.0, 0.0]),
                         task="classification")
        assert m["precision"] == 0.0
        assert m["f1"] == 0.0

    def test_regression_fields(self):
        m = eval_metrics(np.array([1.0, 2.0]), np.array([1.5, 2.5]), task="regression")
        assert set(m) == {"rmse", "mae", "r2"}

    def test_empty_vector_is_error(self):
        with pytest.raises(DataError):
            eval_metrics(np.array([]), np.array([]), task="regression")


@st.composite
def kendall_inputs(draw):
    """Pairs of equal-length vectors, n 0..60, of the shapes Kendall sees."""
    n = draw(st.integers(0, 60))
    kind = draw(st.sampled_from(["ties", "continuous", "one-constant", "both-constant", "a=b", "a=-b"]))
    tied = st.lists(st.integers(-3, 3).map(float), min_size=n, max_size=n)
    continuous = st.lists(small_floats, min_size=n, max_size=n)
    if kind == "ties":
        a, b = draw(tied), draw(tied)
    elif kind == "continuous":
        a, b = draw(continuous), draw(continuous)
    elif kind == "one-constant":
        a, b = draw(st.one_of(tied, continuous)), [draw(small_floats)] * n
    elif kind == "both-constant":
        a, b = [draw(small_floats)] * n, [draw(small_floats)] * n
    else:
        a = draw(st.one_of(tied, continuous))
        b = a if kind == "a=b" else [-v for v in a]
    return np.array(a, dtype=float), np.array(b, dtype=float)


class TestCorrelations:
    def test_pearson_matches_numpy(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(2, 30))
        assert pearson(a, b) == pytest.approx(np.corrcoef(a, b)[0, 1], abs=1e-12)

    def test_kendall_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 5, 25).astype(float)  # ties on purpose
        b = rng.integers(0, 5, 25).astype(float)
        conc = disc = ties_a = ties_b = 0
        n = a.size
        for i in range(n):
            for j in range(i + 1, n):
                da, db = a[i] - a[j], b[i] - b[j]
                if da == 0:
                    ties_a += 1
                if db == 0:
                    ties_b += 1
                if da * db > 0:
                    conc += 1
                elif da * db < 0:
                    disc += 1
        n0 = n * (n - 1) / 2
        want = (conc - disc) / math.sqrt((n0 - ties_a) * (n0 - ties_b))
        assert kendall_tau(a, b) == pytest.approx(want, abs=1e-12)

    def test_kendall_perfect_orderings(self):
        a = np.arange(10.0)
        assert kendall_tau(a, a * 3 + 1) == pytest.approx(1.0)
        assert kendall_tau(a, -a) == pytest.approx(-1.0)

    @settings(max_examples=300, deadline=None)
    @given(kendall_inputs())
    def test_kendall_equals_brute_force_exactly(self, pair):
        a, b = pair
        if a.size == 0:
            with pytest.raises(DataError):
                kendall_tau(a, b)
            return
        got = kendall_tau(a, b)
        want = _brute_kendall(a, b)
        assert got == want or (math.isnan(got) and math.isnan(want))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [[5], [2, 5]], ids=["once", "twice"])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_kendall_non_finite_input_gives_nan(self, bad, where, side):
        # the brute force gives a number for a lone infinity; the contract is NaN
        a = np.arange(8.0)
        b = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
        (a if side == "a" else b)[where] = bad
        assert math.isnan(kendall_tau(a, b))


class FixedScorer:
    def __init__(self, scores):
        self.scores = np.asarray(scores, dtype=float)

    def predict_proba(self, X):
        del X
        return self.scores


class TestCalibrate:
    def test_already_calibrated_identity_map(self):
        rng = np.random.default_rng(12)
        p = rng.uniform(0.1, 0.9, 8000)
        y = (rng.random(8000) < p).astype(float)
        scorer = FixedScorer(p)
        cal = calibrate(scorer, np.zeros((8000, 1)), y)
        assert cal.slope == pytest.approx(1.0, abs=0.1)
        assert cal.offset == pytest.approx(0.0, abs=0.1)
        np.testing.assert_allclose(cal.predict_proba(np.zeros((8000, 1))), p, atol=0.02)

    def test_miscalibrated_scores_get_corrected(self):
        rng = np.random.default_rng(13)
        p = rng.uniform(0.1, 0.9, 4000)
        y = (rng.random(4000) < p).astype(float)
        overconfident = np.clip(p + 0.6 * (p - 0.5), 0.01, 0.99)
        cal = calibrate(FixedScorer(overconfident), np.zeros((4000, 1)), y)
        corrected = cal.predict_proba(np.zeros((4000, 1)))
        assert brier(corrected, y) < brier(overconfident, y)

    def test_preserves_ranking(self):
        rng = np.random.default_rng(14)
        scores = rng.uniform(0.05, 0.95, 500)
        y = (rng.random(500) < scores).astype(float)
        cal = calibrate(FixedScorer(scores), np.zeros((500, 1)), y)
        out = cal.predict_proba(np.zeros((500, 1)))
        assert auroc(out, y) == pytest.approx(auroc(scores, y), abs=1e-12)

    def test_single_class_is_error(self):
        with pytest.raises(DataError):
            calibrate(FixedScorer([0.2, 0.8]), np.zeros((2, 1)), np.array([1.0, 1.0]))
