"""Acceptance gate: ten end-to-end checks, one test and one printed line each.

Each test prints "criterion N PASS/FAIL - detail" and asserts at the stated
tolerance; timed criteria also assert their runtime budget.
"""

import json
import math
import shutil
import time

import numpy as np
from conftest import (
    dr_value,
    ipw_value,
    make_dataset,
    pipeline_raw,
    synthetic_covariates,
    write_observational_csv,
)

from treatpolicy.cate import CateFitSpec, UncertaintySpec, uncertainty_interval
from treatpolicy.config import validate_config
from treatpolicy.deferral import DeferralRule, evaluate_deferral
from treatpolicy.learners import LearnerSpec
from treatpolicy.learners.metrics import eval_metrics
from treatpolicy.pipeline import run_pipeline, run_stages
from treatpolicy.policy_eval import (
    DEFER,
    Policy,
    outcome_tree,
    point_values,
    rank_curve,
)
from treatpolicy.simulation import (
    SimulationSpec,
    run_study,
    simulate_outcomes,
)

RIDGE_T = CateFitSpec(kind="t", learner=LearnerSpec.from_dict({"kind": "ridge", "lam": 1.0}))


def _report(criterion, ok, detail):
    print(f"criterion {criterion} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_hand_oracle_estimators():
    start = time.perf_counter()
    data = make_dataset(np.zeros((4, 1)), [1, 0, 1, 0], [2.0, 4.0, 6.0, 0.0])
    p_star = np.array([0.5, 0.5, 0.8, 0.5])
    policy = Policy(name="hand", rec=[1, 1, 1, 0])
    points = point_values([policy], data, p_star, plug_in=np.ones((4, 2)))
    v_ipw, v_dr = points["IPW"][0], points["DR"][0]
    elapsed = time.perf_counter() - start
    ok = abs(v_ipw - 46 / 21) <= 1e-9 and abs(v_dr - 46 / 21) <= 1e-9 and elapsed < 1.0
    _report(1, ok, f"IPW {v_ipw:.12f}, DR {v_dr:.12f} vs 46/21; {elapsed:.3f}s < 1s")


def test_criterion_02_generator_invariants():
    start = time.perf_counter()
    X, T = synthetic_covariates(500, 8, seed=0)
    X = (X - X.mean(axis=0)) / X.std(axis=0)

    def cosine(a, b):
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

    ok = True
    for seed in range(20):
        out = simulate_outcomes(X, T, SimulationSpec(lam=0.3, effect_size=0.5, seed=seed))
        ok &= abs(np.linalg.norm(out.beta_prop) - 1.0) <= 1e-9
        ok &= abs(np.linalg.norm(out.beta_rand) - 1.0) <= 1e-9
        ok &= abs(float(np.mean(np.abs(X @ out.delta))) - 0.5) <= 1e-9
        ok &= np.array_equal(out.w1, out.delta + out.w0)
        ok &= np.array_equal(out.optimal_policy, (X @ out.delta < 0).astype(np.int8))
        hi = simulate_outcomes(X, T, SimulationSpec(lam=1.0, effect_size=0.5, seed=seed))
        lo = simulate_outcomes(X, T, SimulationSpec(lam=0.0, effect_size=0.5, seed=seed))
        ok &= cosine(hi.delta, hi.beta_prop) >= 1.0 - 1e-9
        ok &= cosine(lo.delta, lo.beta_rand) >= 1.0 - 1e-9
    elapsed = time.perf_counter() - start
    ok = bool(ok) and elapsed < 10.0
    _report(2, ok, f"20 seeds, norms/rescale/additivity/sign/collinearity; {elapsed:.2f}s < 10s")


def test_criterion_03_simulation_fidelity():
    start = time.perf_counter()
    X, T = synthetic_covariates(2000, 20, seed=101)
    menu = {
        "t-ridge": RIDGE_T,
        "t-lasso": CateFitSpec(kind="t", learner=LearnerSpec.from_dict({"kind": "lasso", "lam": 0.01})),
        "t-gbt": CateFitSpec(
            kind="t",
            learner=LearnerSpec.from_dict(
                {"kind": "gbt", "n_trees": 100, "max_depth": 3, "min_samples_leaf": 10}
            ),
        ),
    }
    study = run_study(
        X, T, SimulationSpec(lam=0.5, effect_size=0.5), menu,
        runs=5, seed=2026, train_frac=0.7,
    )
    by = {a["policy"]: a for a in study.aggregates}
    doctors = by["doctors"]["v_true_mean"]
    optimal = by["optimal"]["v_true_mean"]
    closure = (doctors - by["t-ridge"]["v_true_mean"]) / (doctors - optimal)
    pearson_dr = study.checks["fidelity"]["pearson_dr"]
    checks_pass = all(c["pass"] for c in study.checks.values())
    elapsed = time.perf_counter() - start
    ok = pearson_dr >= 0.9 and closure >= 0.7 and checks_pass and not study.failures
    ok = ok and elapsed < 300.0
    _report(
        3, ok,
        f"pearson_dr {pearson_dr:.3f} >= 0.9, ridge closure {closure:.3f} >= 0.7, "
        f"checks {'all pass' if checks_pass else 'FAILED'}; {elapsed:.1f}s < 300s",
    )


def test_criterion_04_null_effect_safety():
    start = time.perf_counter()
    theta_stat = UncertaintySpec(alpha_stat=0.95, lam=1.0, b_boot=200)
    theta_tilt = UncertaintySpec(alpha_stat=0.95, lam=math.exp(0.1), b_boot=200)
    beta = np.array([1.0, -0.5, 0.3, 0.0, 0.2])
    excluding = 0
    rows = 0
    conservative = 0
    inclusive = 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        n, n_train = 2000, 1400
        X = rng.normal(size=(n, 5))
        e = 1.0 / (1.0 + np.exp(-0.6 * X[:, 0]))
        t = (rng.random(n) < e).astype(int)
        y = X @ beta + rng.normal(size=n)  # treatment moves nothing
        train = make_dataset(X[:n_train], t[:n_train], y[:n_train])
        X_query = X[n_train:]
        iv_stat = uncertainty_interval(RIDGE_T, train, X_query, theta_stat, seed=seed)
        rows += X_query.shape[0]
        excluding += int(np.sum((iv_stat.lower > 0.0) | (iv_stat.upper < 0.0)))
        iv_tilt = uncertainty_interval(RIDGE_T, train, X_query, theta_tilt, seed=seed)
        scores = np.full(X_query.shape[0], 0.5)
        rule_c = DeferralRule(0.01, 0.99, mode="conservative")
        rule_i = DeferralRule(0.01, 0.99, mode="inclusive")
        conservative += evaluate_deferral(rule_c, scores, iv_tilt).n_deferred
        inclusive += evaluate_deferral(rule_i, scores, iv_tilt).n_deferred
    rate = excluding / rows
    elapsed = time.perf_counter() - start
    ok = rate <= 0.10 and conservative > inclusive and elapsed < 180.0
    _report(
        4, ok,
        f"false-signal rate {rate:.4f} <= 0.10 over {rows} rows; defers "
        f"{conservative} (conservative) > {inclusive} (inclusive) at lam=e^0.1; "
        f"{elapsed:.1f}s < 180s",
    )


def test_criterion_05_monotonicity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    n = 200
    X = rng.normal(size=(n, 4))
    t = (rng.random(n) < 0.5).astype(int)
    y = X @ np.array([1.0, -0.5, 0.3, 0.0]) + t * 0.25 * X[:, 0] + rng.normal(size=n)
    data = make_dataset(X, t, y)
    scores = 1.0 / (1.0 + np.exp(-1.5 * X[:, 0]))
    ok = True

    # widening in lam: nested intervals, conservative defer count nondecreasing
    lams = [1.0, math.exp(0.05), math.exp(0.1), math.exp(0.25)]
    ivs = [
        uncertainty_interval(
            RIDGE_T, data, X, UncertaintySpec(alpha_stat=0.8, lam=lam, b_boot=60), seed=5
        )
        for lam in lams
    ]
    for iv in ivs:
        ok &= bool(np.all(iv.lower <= iv.point) and np.all(iv.point <= iv.upper))
    for prev, wide in zip(ivs, ivs[1:]):
        ok &= bool(np.all(wide.lower <= prev.lower) and np.all(wide.upper >= prev.upper))
    defer_by_lam = [
        evaluate_deferral(DeferralRule(0.1, 0.9, mode="conservative"), scores, iv).n_deferred
        for iv in ivs
    ]
    ok &= all(a <= b for a, b in zip(defer_by_lam, defer_by_lam[1:]))

    # widening in alpha_stat at lam = 1
    alphas = [0.5, 0.8, 0.95]
    ivs_a = [
        uncertainty_interval(
            RIDGE_T, data, X, UncertaintySpec(alpha_stat=a, lam=1.0, b_boot=60), seed=5
        )
        for a in alphas
    ]
    defer_by_alpha = [
        evaluate_deferral(DeferralRule(0.1, 0.9, mode="conservative"), scores, iv).n_deferred
        for iv in ivs_a
    ]
    ok &= all(a <= b for a, b in zip(defer_by_alpha, defer_by_alpha[1:]))

    # wider overlap interval retains more rows and defers fewer
    iv = ivs[2]
    widths = [0.05, 0.15, 0.25, 0.35, 0.45]
    defer_by_width = []
    prev_retained = None
    for w in widths:
        rule = DeferralRule(0.5 - w, 0.5 + w, mode="conservative")
        defer_by_width.append(evaluate_deferral(rule, scores, iv).n_deferred)
        retained = (scores >= 0.5 - w) & (scores <= 0.5 + w)
        if prev_retained is not None:
            ok &= bool(np.all(prev_retained <= retained))  # trimming nestedness
        prev_retained = retained
    ok &= all(a >= b for a, b in zip(defer_by_width, defer_by_width[1:]))

    elapsed = time.perf_counter() - start
    ok = bool(ok) and elapsed < 30.0
    _report(
        5, ok,
        f"defers by lam {defer_by_lam}, by alpha {defer_by_alpha}, by width "
        f"{defer_by_width}; {elapsed:.1f}s < 30s",
    )


def test_criterion_06_estimator_identities():
    rng = np.random.default_rng(3)
    n = 80
    t = rng.integers(0, 2, n)
    y = rng.normal(size=n)
    data = make_dataset(rng.normal(size=(n, 2)), t, y)
    rec = np.where(rng.random(n) < 0.2, DEFER, rng.integers(0, 2, n)).astype(np.int8)
    policy = Policy(name="p", rec=rec)
    p_star = rng.uniform(0.2, 0.8, n)
    plug = rng.normal(size=(n, 2))

    zero_plug = dr_value(policy, data, p_star, np.zeros((n, 2))) == ipw_value(policy, data, p_star)
    doctors = Policy(name="doctors", rec=t, factual=True)
    doctors_ok = (
        ipw_value(doctors, data, p_star) == y.mean()
        and dr_value(doctors, data, p_star, plug) == y.mean()
    )
    all_defer = Policy(name="defer", rec=np.full(n, DEFER, dtype=np.int8))
    defer_ok = (
        ipw_value(all_defer, data, p_star) == y.mean()
        and dr_value(all_defer, data, p_star, plug) == y.mean()
    )
    shifted = make_dataset(data.covariates, t, y + 7.5)
    shift_ok = (
        abs(ipw_value(policy, shifted, p_star) - ipw_value(policy, data, p_star) - 7.5) <= 1e-9
        and abs(dr_value(policy, shifted, p_star, plug) - dr_value(policy, data, p_star, plug) - 7.5)
        <= 1e-9
    )
    ok = zero_plug and doctors_ok and defer_ok and shift_ok
    _report(
        6, ok,
        f"DR==IPW zero plug-in {zero_plug}, doctors==mean(y) {doctors_ok}, "
        f"all-defer==mean(y) {defer_ok}, shift-by-c {shift_ok}",
    )


def test_criterion_07_rank_endpoints_and_tree_leaves():
    rng = np.random.default_rng(7)
    n = 60
    tau = rng.normal(size=n)
    t = rng.integers(0, 2, n)
    y = rng.normal(size=n)
    data = make_dataset(rng.normal(size=(n, 3)), t, y)
    p_star = rng.uniform(0.2, 0.8, n)
    plug = rng.normal(size=(n, 2))

    ok = True
    for est in ("IPW", "DR"):
        kw = {"plug_in": plug} if est == "DR" else {}
        curve = rank_curve(tau, data, p_star, estimator=est, step=0.1, **kw)
        ok &= len(curve) == 11
        all0 = Policy(name="treat-all-0", rec=np.zeros(n, dtype=np.int8))
        end_value = ipw_value(all0, data, p_star) if est == "IPW" else dr_value(all0, data, p_star, plug)
        ok &= curve[-1]["value"] == end_value  # bit-exact
        ok &= curve[-1]["treated_fraction"] == 0.0
        # q = 0 treats everyone except the single minimum-effect row
        ok &= curve[0]["treated_fraction"] == (n - 1) / n
        rec0 = (tau > tau.min()).astype(np.int8)
        first = Policy(name="q0", rec=rec0)
        first_value = ipw_value(first, data, p_star) if est == "IPW" else dr_value(first, data, p_star, plug)
        ok &= curve[0]["value"] == first_value

    leaves_ok = True
    rec = np.where(rng.random(n) < 0.25, DEFER, (tau > 0).astype(np.int8)).astype(np.int8)
    for policy in (
        Policy(name="model", rec=rec),
        Policy(name="doctors", rec=t, factual=True),
        Policy(name="treat-all-1", rec=np.ones(n, dtype=np.int8)),
    ):
        tree = outcome_tree(policy, data)
        arm_n = 0
        for arm in tree["children"].values():
            leaves_ok &= sum(leaf["n"] for leaf in arm["children"].values()) == arm["n"]
            arm_n += arm["n"]
        leaves_ok &= arm_n == tree["n"] == n
    ok = bool(ok and leaves_ok)
    _report(7, ok, f"rank endpoints bit-exact under IPW and DR, tree leaves sum to n={n}")


def test_criterion_08_metric_oracles():
    rng = np.random.default_rng(8)
    n = 50
    scores = np.round(rng.random(n), 1)  # coarse grid forces ties
    labels = rng.integers(0, 2, n).astype(float)

    pos = scores[labels == 1.0]
    neg = scores[labels == 0.0]
    wins = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
    brute_auroc = wins / (pos.size * neg.size)

    cls = eval_metrics(scores, labels, task="classification")
    auroc_ok = abs(cls["auroc"] - brute_auroc) <= 1e-12
    brier_ok = abs(cls["brier"] - np.mean((scores - labels) ** 2)) <= 1e-12

    pred = rng.normal(size=n)
    truth = pred + rng.normal(scale=0.3, size=n)
    reg = eval_metrics(pred, truth, task="regression")
    rmse_ok = abs(reg["rmse"] - math.sqrt(np.mean((pred - truth) ** 2))) <= 1e-12
    mae_ok = abs(reg["mae"] - np.mean(np.abs(pred - truth))) <= 1e-12
    r2_def = 1.0 - np.sum((truth - pred) ** 2) / np.sum((truth - truth.mean()) ** 2)
    r2_ok = abs(reg["r2"] - r2_def) <= 1e-12

    ok = auroc_ok and brier_ok and rmse_ok and mae_ok and r2_ok
    _report(
        8, ok,
        f"auroc {auroc_ok}, brier {brier_ok}, rmse {rmse_ok}, mae {mae_ok}, r2 {r2_ok} at 1e-12",
    )


def test_criterion_09_pipeline_determinism(tmp_path):
    csv_path = tmp_path / "table.csv"
    write_observational_csv(csv_path)
    raw = pipeline_raw(csv_path, tmp_path / "out",
                       simulation={"enabled": True, "runs": 2, "seed": 3})
    cfg = validate_config(raw)
    out = tmp_path / "out"

    run_pipeline(cfg)
    files = [p for p in out.rglob("*") if p.is_file()]
    first = {p.relative_to(out).as_posix(): p.read_bytes() for p in files}
    shutil.rmtree(out)
    run_pipeline(cfg)
    second = {
        p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()
    }
    same_names = sorted(first) == sorted(second)
    diffs = [rel for rel in sorted(first) if first.get(rel) != second.get(rel)]
    n_tabular = sum(1 for rel in first if rel.endswith((".csv", ".json")))
    ok = same_names and not diffs
    _report(
        9, ok,
        f"{len(first)} artifacts ({n_tabular} CSV/JSON) byte-identical across two runs"
        + ("" if not diffs else f"; differs: {diffs[:5]}"),
    )


def test_criterion_10_component_gate(tmp_path):
    csv_path = tmp_path / "table.csv"
    write_observational_csv(csv_path)
    menu = {
        "t-ridge": {"kind": "t", "learner": {"kind": "ridge", "lam": 1.0}},
        "planted": {"kind": "s", "learner": {"kind": "lasso", "lam": 1e9}},
    }
    raw = pipeline_raw(csv_path, tmp_path / "out",
                       cate={"menu": menu, "ensembles": []},
                       uncertainty={"alpha_stat": 0.8, "b_boot": 8})
    cfg = validate_config(raw)
    manifest = run_stages(cfg, ["ingest", "fit-propensity", "fit-cate"])

    with open(tmp_path / "out" / "cate" / "gate.json") as fh:
        gate = json.load(fh)
    planted = gate["planted"]
    excluded = planted["excluded"] and planted["heldout_mse"] >= planted["outcome_variance"]
    survivor = not gate["t-ridge"]["excluded"]
    reported = any(
        w["kind"] == "component-gate" and "'planted'" in w["message"] for w in manifest.warnings
    )
    not_saved = not (tmp_path / "out" / "cate" / "models" / "planted.json").exists()
    ok = excluded and survivor and reported and not_saved
    _report(
        10, ok,
        f"planted MSE {planted['heldout_mse']:.4g} >= Var {planted['outcome_variance']:.4g}, "
        f"excluded and reported; ridge retained {survivor}",
    )
