"""End-to-end invariance checks: the pipeline's decisions do not move under
changes of the input that must not matter.

Each variant reruns ``run_pipeline`` on a transformed copy of one seeded
cohort, with a linear and a GBT model in the menu, and compares its
artifacts with the base run's.  The cohort's covariates are continuous
draws, with no two values tied.

- a covariate in other units (``1000·x + 5``), and the covariate columns in
  reverse order: every row of ``defer/decisions.csv`` and
  ``eval/recommendations.csv`` is equal, and so is which models the held-out
  error gate excluded.  The effect estimates agree to rounding, and so do
  their bounds, except under the reversed columns: there a bootstrap refit
  of the GBT model may meet two features whose split gains tie, and its
  pick between them depends on the column order, so only the point
  estimates are compared;
- the outcome shifted (``+ 100``), scaled (``× 8``) or negated under
  ``policy.direction`` ``lower-better``: the same decisions, the effect
  estimates unmoved, scaled or negated, and every policy value, point and
  bootstrap round, baselines included, shifted by 100, scaled by 8 (exactly,
  since 8 is a power of two) or negated (exactly);
- the arms coded the other way (``t → 1 − t``): the recommendation of every
  row that neither run defers is the other arm, and the same rows are
  deferred on overlap.  Only the overlap deferrals are compared: the
  uncertainty bootstrap draws the control stratum first, so which rows near
  an effect of zero are deferred on uncertainty depends on the coding.

Permuting the input rows is not an invariance: ``assign_splits`` shuffles
by file order, so another row order gives other splits, and everything
downstream changes with them.
"""

import numpy as np
import pytest
from test_perfbench import _workloads

from treatpolicy import layout
from treatpolicy.config import validate_config
from treatpolicy.pipeline import run_pipeline

MENU = {
    "t-ridge": {"kind": "t", "learner": {"kind": "ridge", "lam": 1.0}},
    "t-gbt": {"kind": "t", "learner": {"kind": "gbt", "n_trees": 30, "max_depth": 3,
                                       "min_samples_leaf": 10}},
}


def _run(root, X, t, y, names=None, direction="higher-better"):
    """Write the cohort under ``root`` and run every stage on it; returns the
    output directory."""
    names = names or [f"x{j}" for j in range(X.shape[1])]
    lines = [",".join([*names, "treat", "outcome"])]
    lines += [",".join([*map(repr, row.tolist()), str(int(a)), repr(float(b))])
              for row, a, b in zip(X, t, y)]
    root.mkdir()
    (root / "cohort.csv").write_text("\n".join(lines) + "\n")
    run_pipeline(validate_config({
        "data": {"path": str(root / "cohort.csv"), "treatment": "treat", "outcome": "outcome"},
        "cate": {"menu": MENU},
        "uncertainty": {"b_boot": 20},
        "policy": {"direction": direction},
        "evaluation": {"bootstrap_b": 100, "plug_in": {"kind": "ridge", "lam": 1.0}},
        "identification": {"acknowledged": True},
        "output_dir": str(root / "out"),
    }))
    return root / "out"


@pytest.fixture(scope="module")
def cohort():
    X, t, y, _ = _workloads().make_cohort(1500, 6, 0)
    return X, t, y


@pytest.fixture(scope="module")
def base(cohort, tmp_path_factory):
    return _run(tmp_path_factory.mktemp("invariance") / "base", *cohort)


def _excluded(out):
    gate = layout.read_json(out / layout.CATE_GATE)
    return {name: entry["excluded"] for name, entry in gate.items()}


def _effects(out):
    """Every model's effect estimates, lower and upper bounds, as the rows of
    one array; the decision checks make sure both runs list the same rows."""
    rel = layout.CATE_ESTIMATES
    return np.stack(layout.read_columns(out / rel, layout.HEADERS[rel], [2, 3, 4])[0])


def _assert_close(got, want):
    # effects are of order 1; the variants moved them by at most 7e-14
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def _values(out):
    """Every policy value: the points of ``eval/policy_values.csv``, then
    each estimator's bootstrap rounds, one row per round."""
    rel = layout.POLICY_VALUES
    (point,), _ = layout.read_columns(out / rel, layout.HEADERS[rel], [3])
    rounds = []
    for est in ("IPW", "DR"):
        full = out / layout.distributions(est)
        header = layout.read_header(full)
        rounds.append(np.stack(layout.read_columns(full, header, range(len(header)))[0], axis=1))
    return point, np.concatenate(rounds)


def _assert_same_decisions(base, out):
    for rel in (layout.DEFER_DECISIONS, layout.RECOMMENDATIONS):
        assert (out / rel).read_bytes() == (base / rel).read_bytes(), rel
    assert _excluded(out) == _excluded(base)


def test_the_menu_passes_the_gate_and_defers_some_rows(base):
    # the checks below compare decisions of both models, some of them deferrals
    assert _excluded(base) == {"t-ridge": False, "t-gbt": False}
    (flags,), _ = layout.read_columns(base / layout.DEFER_DECISIONS,
                                      layout.HEADERS[layout.DEFER_DECISIONS], [2], ints=(2,))
    assert 0 < flags.sum() < flags.size


def test_a_covariate_in_other_units(cohort, base, tmp_path):
    X, t, y = cohort
    X = X.copy()
    X[:, 2] = 1000 * X[:, 2] + 5
    out = _run(tmp_path / "run", X, t, y)
    _assert_same_decisions(base, out)
    _assert_close(_effects(out), _effects(base))


def test_the_covariate_columns_reversed(cohort, base, tmp_path):
    X, t, y = cohort
    names = [f"x{j}" for j in range(X.shape[1])][::-1]
    out = _run(tmp_path / "run", X[:, ::-1], t, y, names=names)
    _assert_same_decisions(base, out)
    _assert_close(_effects(out)[0], _effects(base)[0])


def test_the_outcome_shifted(cohort, base, tmp_path):
    X, t, y = cohort
    out = _run(tmp_path / "run", X, t, y + 100)
    _assert_same_decisions(base, out)
    _assert_close(_effects(out), _effects(base))
    for got, want in zip(_values(out), _values(base)):
        np.testing.assert_allclose(got, want + 100, rtol=1e-12, atol=0)


def test_the_outcome_scaled(cohort, base, tmp_path):
    X, t, y = cohort
    out = _run(tmp_path / "run", X, t, y * 8)
    _assert_same_decisions(base, out)
    np.testing.assert_array_equal(_effects(out), _effects(base) * 8)
    for got, want in zip(_values(out), _values(base)):
        np.testing.assert_array_equal(got, want * 8)


def test_the_outcome_negated_with_lower_better(cohort, base, tmp_path):
    X, t, y = cohort
    out = _run(tmp_path / "run", X, t, -y, direction="lower-better")
    _assert_same_decisions(base, out)
    # the bounds swap: the lower bound is the negated upper one
    _assert_close(_effects(out), -_effects(base)[[0, 2, 1]])
    for got, want in zip(_values(out), _values(base)):
        np.testing.assert_array_equal(got, -want)


def test_the_arms_coded_the_other_way(cohort, base, tmp_path):
    X, t, y = cohort
    out = _run(tmp_path / "run", X, 1 - t, y)
    assert _excluded(out) == _excluded(base)

    def read(rel, column):
        """Both runs' text ``column`` of ``rel``, whose (name, row_id) rows must match."""
        (b_ids,), (b_names, b_text) = layout.read_columns(
            base / rel, layout.HEADERS[rel], [1], ints=(1,), text=(0, column))
        (o_ids,), (o_names, o_text) = layout.read_columns(
            out / rel, layout.HEADERS[rel], [1], ints=(1,), text=(0, column))
        np.testing.assert_array_equal(o_ids, b_ids)
        assert o_names == b_names
        return np.asarray(b_text), np.asarray(o_text)

    b_why, o_why = read(layout.DEFER_DECISIONS, 3)
    assert (b_why == "overlap").sum() > 0
    np.testing.assert_array_equal(o_why == "overlap", b_why == "overlap")

    b_rec, o_rec = read(layout.RECOMMENDATIONS, 2)
    kept = (b_rec != "defer") & (o_rec != "defer")
    assert kept.sum() > 0
    np.testing.assert_array_equal(o_rec[kept].astype(int), 1 - b_rec[kept].astype(int))
