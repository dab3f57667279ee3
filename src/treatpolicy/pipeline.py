"""Stage orchestration: run configured stages and track what they emit.

Every stage reads its inputs from the output directory and writes its
artifacts back there, so subcommands can rerun any stage in isolation.
The manifest records the resolved config, its hash, seeds, every emitted
file, and accumulated warnings; stage timings are only recorded when the
config asks for them, keeping rerun artifacts byte-identical by default.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from . import layout
from .cate import CateInterval, cate_diagnostics, uncertainty_interval
from .config import PipelineConfig
from .deferral import (
    REASON_OVERLAP,
    REASON_UNCERTAINTY,
    DeferralRule,
    characterize_subpop,
    evaluate_deferral,
)
from .errors import ConfigError, DataError, StageError, TreatPolicyError
from .ingest import (
    assign_splits,
    impute_and_flag,
    load_dataset,
    load_table,
    save_dataset,
    summarize,
)
from .layout import STAGE_ORDER, fmt_float, read_csv, read_json, write_csv, write_json
from .learners import load_model, save_model
from .policy_eval import (
    DEFER,
    bootstrap_tournament,
    build_policy_set,
    fit_plug_in,
    outcome_tree,
    rank_curve,
    summarize_bootstrap,
)
from .propensity import fit_propensity, overlap_report, select_overlap_bounds
from .report import emit_report
from .simulation import run_study

__all__ = ["RunManifest", "run_pipeline", "run_stages", "planned_stages", "STAGE_ORDER"]

_CHECKLIST = """\
# Identification checklist

Policy learning on observational data only means anything if treatment
assignment is explainable by what was recorded.  Estimation stages stay
locked until `identification.acknowledged` is set to `true` in the config;
work through each item first.  If one fails and cannot be repaired by
changing the covariate set or the cohort, stop the analysis here - nothing
downstream can repair it.

- [ ] **Well-defined treatments.** Both arms describe concrete, executable
  interventions, applied comparably across the cohort.
- [ ] **No interference.** One unit's treatment does not change another
  unit's outcome.
- [ ] **Positivity.** Clinicians actually chose both arms across the
  covariate space.  After `fit-propensity`, inspect `propensity/overlap.json`
  and trim or re-scope where one arm never occurs.
- [ ] **Conditional exchangeability.** Everything that drove the treatment
  choice and also affects the outcome is present in the covariates.  List
  the assignment drivers domain experts name and check each is measured.
- [ ] **Outcome timing.** The outcome is measured after treatment, the
  covariates strictly before, with no leakage from the future.
- [ ] **Residual doubt.** If exchangeability only holds up to bounded hidden
  drivers, raise `uncertainty.lam` (or `uncertainty.alpha_causal`) so the
  intervals and the deferral rule absorb that doubt instead of ignoring it.
"""


def _warn(stage: str, kind: str, message: str) -> dict:
    return {"stage": stage, "kind": kind, "message": message}


def _need(out_dir: str, rel: str, producer: str) -> str:
    full = os.path.join(out_dir, rel)
    if not os.path.exists(full):
        raise StageError(f"missing artifact {rel}; run the {producer!r} stage first")
    return full


@dataclass
class RunManifest:
    """Ledger of one run: config echo and hash, seeds, files, warnings."""

    config_hash: str
    config: dict
    seeds: dict
    stages: list = field(default_factory=list)
    artifacts: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    timings: dict | None = None

    def record(self, stage: str, artifacts, warnings, elapsed: float | None = None) -> None:
        if stage in self.stages:
            self.artifacts = [a for a in self.artifacts if a["stage"] != stage]
            self.warnings = [w for w in self.warnings if w["stage"] != stage]
        else:
            self.stages.append(stage)
        self.artifacts.extend({"path": p, "stage": stage} for p in artifacts)
        self.warnings.extend(warnings)
        if elapsed is not None:
            if self.timings is None:
                self.timings = {}
            self.timings[stage] = round(elapsed, 6)

    def paths(self) -> list[str]:
        return [a["path"] for a in self.artifacts]

    def to_dict(self) -> dict:
        out = {
            "config_hash": self.config_hash,
            "config": self.config,
            "seeds": self.seeds,
            "stages": list(self.stages),
            "artifacts": list(self.artifacts),
            "warnings": list(self.warnings),
        }
        if self.timings is not None:
            out["timings"] = dict(self.timings)
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "RunManifest":
        return cls(
            config_hash=d["config_hash"],
            config=d["config"],
            seeds=d["seeds"],
            stages=list(d.get("stages", [])),
            artifacts=list(d.get("artifacts", [])),
            warnings=list(d.get("warnings", [])),
            timings=d.get("timings"),
        )

    def save(self, out_dir: str) -> None:
        write_json(layout.path(out_dir, layout.MANIFEST), self.to_dict())

    @classmethod
    def fresh(cls, cfg: PipelineConfig) -> "RunManifest":
        return cls(config_hash=cfg.hash, config=cfg.echo, seeds=cfg.seeds())

    @classmethod
    def load_or_fresh(cls, cfg: PipelineConfig) -> "RunManifest":
        full = os.path.join(cfg.out_dir, layout.MANIFEST)
        if os.path.exists(full):
            try:
                prior = cls.from_dict(read_json(full))
            except (KeyError, ValueError, json.JSONDecodeError):
                return cls.fresh(cfg)
            if prior.config_hash == cfg.hash:
                return prior
        return cls.fresh(cfg)


def _require_ack(cfg: PipelineConfig, stage: str) -> None:
    if not cfg.echo["identification"]["acknowledged"]:
        raise ConfigError(
            f"stage {stage!r} estimates effects from observational data; review "
            f"{layout.IDENTIFICATION} in the output directory (written by the ingest "
            "stage) and set identification.acknowledged = true"
        )


def _load_data(out_dir: str):
    csv_path = _need(out_dir, layout.DATASET_CSV, "ingest")
    meta_path = _need(out_dir, layout.DATASET_META, "ingest")
    return load_dataset(csv_path, read_json(meta_path))


# ---------------------------------------------------------------- stages


def stage_ingest(cfg: PipelineConfig, manifest: RunManifest):
    out = cfg.out_dir
    d = cfg.echo["data"]
    try:
        data = load_table(d["path"], cfg.table_schema(), delimiter=d["delimiter"])
    except OSError as exc:
        raise DataError(f"cannot read data table {d['path']}: {exc}") from exc
    data = assign_splits(data, cfg.echo["splits"]["fractions"], cfg.echo["splits"]["seed"])
    data, flagged = impute_and_flag(data)

    description = save_dataset(data, layout.path(out, layout.DATASET_CSV))
    write_json(layout.path(out, layout.DATASET_META), description)
    table = summarize(data, group_by=data.treatment == 1, group_names=("control", "treated"))
    write_csv(layout.path(out, layout.SUMMARY), table.to_csv_rows())
    with open(layout.path(out, layout.IDENTIFICATION), "w") as fh:
        fh.write(_CHECKLIST)

    warnings = []
    if flagged:
        cols = ", ".join(sorted(flagged))
        warnings.append(
            _warn("ingest", "imputation", f"missing values imputed (indicators added) in: {cols}")
        )
    artifacts = [layout.IDENTIFICATION, layout.DATASET_CSV, layout.DATASET_META, layout.SUMMARY]
    return artifacts, warnings


def stage_fit_propensity(cfg: PipelineConfig, manifest: RunManifest):
    _require_ack(cfg, "fit-propensity")
    out = cfg.out_dir
    data = _load_data(out)
    train = data.rows_in("train")
    cal = data.rows_in("validation") if cfg.echo["propensity"]["calibrate"] else None
    model = fit_propensity(train, cfg.propensity_spec(), calibration=cal)
    scores = model.predict(data.covariates)
    bounds = select_overlap_bounds(scores, treatment=data.treatment, **cfg.bounds_kwargs())
    model = replace(model, bounds=bounds)
    save_model(model, layout.path(out, layout.PROPENSITY_MODEL))

    rows = [["row_id", "split", "treatment", "score"]]
    for i in range(data.n):
        rows.append(
            [str(int(data.row_ids[i])), str(data.split[i]), str(int(data.treatment[i])),
             fmt_float(scores[i])]
        )
    write_csv(layout.path(out, layout.PROPENSITY_SCORES), rows)

    rep = overlap_report(scores, data.treatment, bounds, bins=cfg.echo["report"]["bins"])
    write_json(
        layout.path(out, layout.OVERLAP),
        {"method": cfg.echo["propensity"]["bounds"], "report": rep.to_dict()},
    )
    warnings = []
    if rep.auroc_flag:
        warnings.append(
            _warn(
                "fit-propensity",
                "overlap",
                f"treatment scores separate the arms (AUROC {rep.auroc:.3f} >= "
                f"{rep.auroc_flag_threshold}); overlap is strained and deferral rates will be high",
            )
        )
    return [layout.PROPENSITY_MODEL, layout.PROPENSITY_SCORES, layout.OVERLAP], warnings


def stage_simulate(cfg: PipelineConfig, manifest: RunManifest):
    out = cfg.out_dir
    data = _load_data(out)
    sim = cfg.echo["simulation"]
    study = run_study(
        data.covariates,
        data.treatment,
        cfg.sim_spec(),
        cfg.cate_menu(),
        runs=sim["runs"],
        seed=sim["seed"],
        train_frac=sim["train_frac"],
        plug_in_spec=cfg.plug_in_spec(),
        p_star_spec=cfg.propensity_spec(),
    )
    write_json(layout.path(out, layout.STUDY), study.to_dict())

    agg_rows = [["policy", "n_runs", "v_ipw_mean", "v_ipw_sem", "v_dr_mean", "v_dr_sem",
                 "v_true_mean", "v_true_sem"]]
    for a in study.aggregates:
        agg_rows.append(
            [a["policy"], str(a["n_runs"])]
            + [fmt_float(a[k]) for k in ("v_ipw_mean", "v_ipw_sem", "v_dr_mean", "v_dr_sem",
                                     "v_true_mean", "v_true_sem")]
        )
    write_csv(layout.path(out, layout.STUDY_AGGREGATES), agg_rows)

    sc_rows = [["run", "policy", "source", "n_deferred", "treated_fraction",
                "v_ipw", "v_dr", "v_true"]]
    for r in study.rows:
        sc_rows.append(
            [str(r["run"]), r["policy"], r["source"], str(r["n_deferred"])]
            + [fmt_float(r[k]) for k in ("treated_fraction", "v_ipw", "v_dr", "v_true")]
        )
    write_csv(layout.path(out, layout.STUDY_SCATTER), sc_rows)

    warnings = []
    for f in study.failures:
        warnings.append(_warn("simulate", "study-run-failed", f"run {f['run']}: {f['error']}"))
    for name, info in study.checks.items():
        if not info.get("pass", False):
            warnings.append(
                _warn("simulate", "study-check", f"validation check {name!r} did not pass")
            )
    return [layout.STUDY, layout.STUDY_AGGREGATES, layout.STUDY_SCATTER], warnings


def stage_fit_cate(cfg: PipelineConfig, manifest: RunManifest):
    _require_ack(cfg, "fit-cate")
    out = cfg.out_dir
    data = _load_data(out)
    prop = load_model(_need(out, layout.PROPENSITY_MODEL, "fit-propensity"))
    train = data.rows_in("train")
    val = data.rows_in("validation")
    test = data.rows_in("test")
    menu = cfg.cate_menu()

    # component gate: a model whose held-out outcome error is no better than
    # predicting the mean carries no signal and must not shape a policy
    var_val = float(np.var(val.outcome))
    gate = {}
    retained = {}
    warnings = []
    artifacts = []
    for name, fit_spec in menu.items():
        model = fit_spec.fit(train, propensity=prop)
        pred = model.predict_outcome(val.covariates, val.treatment)
        mse = float(np.mean((pred - val.outcome) ** 2))
        excluded = bool(mse >= var_val)
        gate[name] = {"heldout_mse": mse, "outcome_variance": var_val, "excluded": excluded}
        if excluded:
            warnings.append(
                _warn(
                    "fit-cate",
                    "component-gate",
                    f"model {name!r} excluded: held-out MSE {mse:.6g} >= outcome "
                    f"variance {var_val:.6g}",
                )
            )
            continue
        retained[name] = model
        rel = layout.cate_model(name)
        save_model(model, layout.path(out, rel))
        artifacts.append(rel)
    write_json(layout.path(out, layout.CATE_GATE), gate)
    artifacts.append(layout.CATE_GATE)
    if not retained:
        # keep the gate report visible even though the stage did not complete
        manifest.artifacts.extend({"path": p, "stage": "fit-cate"} for p in artifacts)
        manifest.warnings.extend(warnings)
        raise StageError(
            "every model in the menu failed the held-out error gate; "
            f"see {layout.CATE_GATE}"
        )

    theta = cfg.theta()
    u_seed = cfg.echo["uncertainty"]["seed"]
    est_rows = [["model", "row_id", "tau", "lower", "upper"]]
    taus = {}
    for name, model in retained.items():
        interval = uncertainty_interval(
            menu[name], train, test.covariates, theta, seed=u_seed,
            propensity=prop, model=model,
        )
        taus[name] = interval.point
        for i in range(test.n):
            est_rows.append(
                [name, str(int(test.row_ids[i])), fmt_float(interval.point[i]),
                 fmt_float(interval.lower[i]), fmt_float(interval.upper[i])]
            )
    write_csv(layout.path(out, layout.CATE_ESTIMATES), est_rows)
    artifacts.append(layout.CATE_ESTIMATES)

    diag = cate_diagnostics(taus)
    write_json(layout.path(out, layout.CATE_DIAGNOSTICS), diag.to_dict())
    artifacts.append(layout.CATE_DIAGNOSTICS)
    return artifacts, warnings


def _retained_names(cfg: PipelineConfig, gate: dict) -> list[str]:
    for name in cfg.echo["cate"]["menu"]:
        if name not in gate:
            raise StageError(
                f"model {name!r} is in cate.menu but not in {layout.CATE_GATE}; "
                "the menu changed since fit-cate ran; rerun fit-cate"
            )
    return [name for name in cfg.echo["cate"]["menu"] if not gate[name]["excluded"]]


def _per_model_values(out_dir: str, rel: str, producer: str, test, names, width: int) -> dict:
    """``{name: values}`` for each of ``names``: the first ``width`` columns
    after ``model,row_id`` of a per-model artifact, as a (width, n) float
    array in test-split order.  A model without rows, or whose rows do not
    line up with the current test split, asks for ``producer`` to be rerun."""
    row_ids: dict[str, list] = {}
    values: dict[str, list] = {}
    for model, row_id, *cells in read_csv(_need(out_dir, rel, producer))[1:]:
        row_ids.setdefault(model, []).append(int(row_id))
        values.setdefault(model, []).append([float(c) for c in cells[:width]])
    want = [int(r) for r in test.row_ids]
    out = {}
    for name in names:
        if name not in row_ids:
            raise StageError(f"{rel} has no rows for model {name!r}; rerun {producer}")
        if row_ids[name] != want:
            raise StageError(
                f"{rel} rows for model {name!r} do not line up with the current test "
                f"split; rerun {producer}"
            )
        out[name] = np.array(values[name], dtype=float).T.copy()
    return out


def stage_defer(cfg: PipelineConfig, manifest: RunManifest):
    _require_ack(cfg, "defer")
    out = cfg.out_dir
    data = _load_data(out)
    test = data.rows_in("test")
    prop = load_model(_need(out, layout.PROPENSITY_MODEL, "fit-propensity"))
    if prop.bounds is None:
        raise StageError("propensity model has no overlap bounds; rerun fit-propensity")
    gate = read_json(_need(out, layout.CATE_GATE, "fit-cate"))
    retained = _retained_names(cfg, gate)
    estimates = _per_model_values(out, layout.CATE_ESTIMATES, "fit-cate", test, retained, 3)
    scores = prop.predict(test.covariates)
    rule = DeferralRule(
        eta_low=prop.bounds[0], eta_high=prop.bounds[1], mode=cfg.echo["deferral"]["mode"]
    )

    warnings = []
    dec_rows = [["model", "row_id", "deferred", "reason"]]
    profile = {}
    for name in retained:
        tau, lower, upper = estimates[name]
        interval = CateInterval(lower=lower, point=tau, upper=upper)
        decision = evaluate_deferral(rule, scores, interval=interval)
        for rid, d, why in zip(test.row_ids, decision.defer, decision.reason):
            dec_rows.append([name, str(int(rid)), "1" if d else "0", why or ""])
        reasons = Counter(w for w in decision.reason if w)
        entry = {
            "n_deferred": decision.n_deferred,
            "n_recommended": test.n - decision.n_deferred,
            "n_overlap": int(reasons.get(REASON_OVERLAP, 0)),
            "n_uncertainty": int(reasons.get(REASON_UNCERTAINTY, 0)),
            "profile": None,
        }
        try:
            prof = characterize_subpop(
                decision.defer, test, lam=cfg.echo["deferral"]["profile_lam"]
            )
            entry["profile"] = {**prof.to_dict(), "table": prof.table.to_csv_rows()}
        except DataError:
            warnings.append(
                _warn(
                    "defer",
                    "subpopulation",
                    f"model {name!r}: deferral split has a single class "
                    f"({decision.n_deferred}/{test.n} deferred); no profile fitted",
                )
            )
        profile[name] = entry

    write_csv(layout.path(out, layout.DEFER_DECISIONS), dec_rows)
    write_json(layout.path(out, layout.DEFER_SUBPOP), profile)
    return [layout.DEFER_DECISIONS, layout.DEFER_SUBPOP], warnings


def stage_evaluate(cfg: PipelineConfig, manifest: RunManifest):
    _require_ack(cfg, "evaluate")
    out = cfg.out_dir
    data = _load_data(out)
    train = data.rows_in("train")
    test = data.rows_in("test")
    prop = load_model(_need(out, layout.PROPENSITY_MODEL, "fit-propensity"))
    gate = read_json(_need(out, layout.CATE_GATE, "fit-cate"))
    retained = _retained_names(cfg, gate)
    estimates = _per_model_values(out, layout.CATE_ESTIMATES, "fit-cate", test, retained, 1)
    taus = {name: v[0] for name, v in estimates.items()}
    decisions = _per_model_values(out, layout.DEFER_DECISIONS, "defer", test, retained, 1)
    flags = {name: v[0] == 1.0 for name, v in decisions.items()}
    rule = cfg.decision_rule()
    eval_cfg = cfg.echo["evaluation"]
    seed = eval_cfg["seed"]
    warnings = []

    p_star = prop.predict(test.covariates)

    plug_spec = cfg.plug_in_spec()
    plug_in = fit_plug_in(plug_spec, train, test.covariates)
    for name in retained:
        if cfg.echo["cate"]["menu"][name]["learner"]["kind"] == plug_spec.kind:
            warnings.append(
                _warn(
                    "evaluate",
                    "congeniality",
                    f"policy model {name!r} and the DR plug-in share the learner family "
                    f"{plug_spec.kind!r}; DR values for that policy may be optimistic",
                )
            )

    if cfg.ensembles and len(retained) < 2:
        warnings.append(
            _warn(
                "evaluate",
                "ensembles",
                f"ensembles need at least 2 retained models, have {len(retained)}; skipped",
            )
        )
    outside = (prop.bounds[0] > p_star) | (p_star > prop.bounds[1]) if prop.bounds else None
    policies = build_policy_set(
        taus, rule, test, p_star,
        defer=flags, modes=cfg.ensembles, ensemble_defer=outside, seed=seed,
    )

    tournament = bootstrap_tournament(
        policies, test, p_star,
        estimators=cfg.estimators, B=eval_cfg["bootstrap_b"], seed=seed, plug_in=plug_in,
    )
    value_rows = [["policy", "source", "estimator", "point", "boot_mean", "boot_std",
                   "boot_min", "boot_q25", "boot_median", "boot_q75", "boot_max",
                   "n_deferred", "n_skipped"]]
    for i, policy in enumerate(policies):
        for est in cfg.estimators:
            boot = tournament.distributions[est][i]
            s = summarize_bootstrap(boot)
            value_rows.append(
                [policy.name, policy.source, est, fmt_float(tournament.points[est][i]),
                 fmt_float(s["mean"]), fmt_float(s["std"]), fmt_float(s["min"]), fmt_float(s["q25"]),
                 fmt_float(s["median"]), fmt_float(s["q75"]), fmt_float(s["max"]),
                 str(policy.n_deferred), str(int(np.isnan(boot).sum()))]
            )
    write_csv(layout.path(out, layout.POLICY_VALUES), value_rows)
    artifacts = [layout.POLICY_VALUES]

    names = tournament.policies
    for est in cfg.estimators:
        wins_rows = [["policy", *names]]
        for name, row in zip(names, tournament.wins[est]):
            wins_rows.append([name, *[str(int(v)) for v in row]])
        rel = layout.wins(est)
        write_csv(layout.path(out, rel), wins_rows)
        artifacts.append(rel)

        dist = tournament.distributions[est]
        dist_rows = [list(names)]
        for b in range(dist.shape[1]):
            dist_rows.append([fmt_float(v) for v in dist[:, b]])
        rel = layout.distributions(est)
        write_csv(layout.path(out, rel), dist_rows)
        artifacts.append(rel)

    curve_est = "DR" if "DR" in cfg.estimators else cfg.estimators[0]
    curve_rows = [["model", "q", "treated_fraction", "value"]]
    for name in retained:
        curve = rank_curve(
            taus[name], test, p_star,
            estimator=curve_est, step=eval_cfg["rank_step"],
            plug_in=plug_in if curve_est == "DR" else None,
        )
        for pt in curve:
            curve_rows.append(
                [name, fmt_float(pt["q"]), fmt_float(pt["treated_fraction"]), fmt_float(pt["value"])]
            )
    write_csv(layout.path(out, layout.RANK_CURVE), curve_rows)
    artifacts.append(layout.RANK_CURVE)

    trees = {p.name: outcome_tree(p, test) for p in policies}
    write_json(layout.path(out, layout.OUTCOME_TREES), trees)
    artifacts.append(layout.OUTCOME_TREES)

    rec_rows = [["policy", "row_id", "recommendation"]]
    for policy in policies:
        if policy.source == "baseline":
            continue
        for rid, r in zip(test.row_ids, policy.rec):
            rec_rows.append(
                [policy.name, str(int(rid)), "defer" if r == DEFER else str(int(r))]
            )
    write_csv(layout.path(out, layout.RECOMMENDATIONS), rec_rows)
    artifacts.append(layout.RECOMMENDATIONS)
    return artifacts, warnings


def stage_report(cfg: PipelineConfig, manifest: RunManifest):
    return emit_report(cfg.out_dir, manifest.to_dict())


def planned_stages(cfg: PipelineConfig) -> list[str]:
    """Stage list a full run executes, honoring the simulation flags."""
    sim = cfg.echo["simulation"]
    if sim["only"]:
        return ["ingest", "simulate"]
    stages = ["ingest", "fit-propensity"]
    if sim["enabled"]:
        stages.append("simulate")
    stages.extend(["fit-cate", "defer", "evaluate", "report"])
    return stages


def _execute(cfg: PipelineConfig, stage: str, manifest: RunManifest) -> None:
    if stage not in STAGE_ORDER:
        raise ConfigError(f"unknown stage {stage!r}; stages are {list(STAGE_ORDER)}")
    # the stage named "fit-cate" in layout.STAGES runs stage_fit_cate, and so on
    fn = globals()["stage_" + stage.replace("-", "_")]
    include_timings = cfg.echo["report"]["include_timings"]
    start = time.perf_counter()
    try:
        artifacts, warnings = fn(cfg, manifest)
    except TreatPolicyError:
        manifest.save(cfg.out_dir)
        raise
    except Exception as exc:
        manifest.save(cfg.out_dir)
        raise StageError(f"stage {stage!r} failed: {exc}") from exc
    elapsed = time.perf_counter() - start
    manifest.record(stage, artifacts, warnings, elapsed if include_timings else None)
    manifest.save(cfg.out_dir)


def run_pipeline(cfg: PipelineConfig) -> RunManifest:
    """Execute every planned stage from scratch; abort on the first failure,
    leaving the manifest of completed stages behind."""
    manifest = RunManifest.fresh(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    manifest.save(cfg.out_dir)
    for stage in planned_stages(cfg):
        _execute(cfg, stage, manifest)
    return manifest


def run_stages(cfg: PipelineConfig, stages) -> RunManifest:
    """Run selected stages, merging into the directory's manifest when the
    config hash matches (stale manifests are replaced)."""
    manifest = RunManifest.load_or_fresh(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    for stage in stages:
        _execute(cfg, stage, manifest)
    return manifest
