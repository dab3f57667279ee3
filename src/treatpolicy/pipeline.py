"""Stage orchestration: run configured stages and track what they emit.

Every stage reads its inputs from the output directory and writes its
artifacts back there, so subcommands can rerun any stage in isolation.
Each stage that needs the analysis table loads it from ``data/dataset.npy``
(a few milliseconds at 20,000 rows), so it always sees the file as it is.
Each stage run gets one :class:`layout.StageIO`, through which it finds its
inputs, writes its artifacts and raises its warnings.  The manifest records
the resolved config, its hash, seeds, the files each stage wrote and their
warnings, whether the stage completed or failed; a failed stage is left off
``stages``.  Stage timings are only recorded when the config asks for them,
keeping rerun artifacts byte-identical by default.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import layout
from .cate import CateInterval, cate_diagnostics, gate_menu, uncertainty_interval
from .cate.intervals import _BootstrapMoments
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
    load_description,
    load_table,
    save_dataset,
    summarize,
)
from .layout import STAGE_ORDER, read_json, write_json, write_table
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
from .propensity import fit_propensity, overlap_mask, overlap_report, select_overlap_bounds
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

    def record(self, stage: str, artifacts, warnings, elapsed=None, complete=True) -> None:
        """Replace ``stage``'s artifacts and warnings; only a complete stage is in ``stages``."""
        self.artifacts = [a for a in self.artifacts if a["stage"] != stage]
        self.warnings = [w for w in self.warnings if w["stage"] != stage]
        if not complete:
            self.stages = [s for s in self.stages if s != stage]
        elif stage not in self.stages:
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
        # timings are left out unless recorded, so reruns stay byte-identical
        return {k: v for k, v in asdict(self).items() if v is not None}

    @classmethod
    def from_dict(cls, d: dict) -> "RunManifest":
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})

    def save(self, out_dir: str) -> None:
        write_json(os.path.join(out_dir, layout.MANIFEST), self.to_dict())

    @classmethod
    def fresh(cls, cfg: PipelineConfig) -> "RunManifest":
        return cls(config_hash=cfg.hash, config=cfg.echo, seeds=cfg.seeds())

    @classmethod
    def load_or_fresh(cls, cfg: PipelineConfig) -> "RunManifest":
        try:
            prior = cls.from_dict(read_json(os.path.join(cfg.out_dir, layout.MANIFEST)))
        except (FileNotFoundError, TypeError, ValueError):  # absent, a missing field, or not JSON
            return cls.fresh(cfg)
        return prior if prior.config_hash == cfg.hash else cls.fresh(cfg)


def _load_data(io):
    """The stage's dataset, loaded from data/dataset.npy as data/dataset.json describes it."""
    return load_dataset(io.need(layout.DATASET), load_description(io.need(layout.DATASET_META)))


# ---------------------------------------------------------------- stages


def stage_ingest(cfg: PipelineConfig, manifest: RunManifest, io) -> None:
    d = cfg.echo["data"]
    try:
        data = load_table(d["path"], cfg.table_schema(), delimiter=d["delimiter"])
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read data table {d['path']}: {exc}") from exc
    data = assign_splits(data, cfg.echo["splits"]["fractions"], cfg.echo["splits"]["seed"])
    data, flagged = impute_and_flag(data)

    with open(io.out(layout.IDENTIFICATION), "w") as fh:
        fh.write(_CHECKLIST)
    write_json(io.out(layout.DATASET_META), save_dataset(data, io.out(layout.DATASET)))
    header, rows = summarize(data, group_by=data.treatment == 1, group_names=("control", "treated"))
    write_table(io.out(layout.SUMMARY), header, list(zip(*rows)))
    if flagged:
        cols = ", ".join(sorted(flagged))
        io.warn("imputation", f"missing values imputed (indicators added) in: {cols}")


def stage_fit_propensity(cfg: PipelineConfig, manifest: RunManifest, io) -> None:
    data = _load_data(io)
    train = data.rows_in("train")
    cal = data.rows_in("validation") if cfg.echo["propensity"]["calibrate"] else None
    model = fit_propensity(train, cfg.propensity_spec(), calibration=cal)
    scores = model.predict(data.covariates)
    bounds_spec = cfg.echo["propensity"]["bounds"]
    bounds = select_overlap_bounds(scores, data.treatment, bounds_spec)
    model = replace(model, bounds=bounds)
    save_model(model, io.out(layout.PROPENSITY_MODEL))

    _write_table(io, layout.PROPENSITY_SCORES, [data.row_ids, data.split, data.treatment, scores])

    rep = overlap_report(scores, data.treatment, bounds, bins=cfg.echo["report"]["bins"])
    write_json(io.out(layout.OVERLAP), {"method": bounds_spec, "report": rep})
    if rep["auroc_flag"]:
        io.warn(
            "overlap",
            f"treatment scores separate the arms (AUROC {rep['auroc']:.3f} >= "
            f"{rep['auroc_flag_threshold']}); overlap is strained and deferral rates will be high",
        )


def stage_simulate(cfg: PipelineConfig, manifest: RunManifest, io) -> None:
    data = _load_data(io)
    sim = cfg.echo["simulation"]
    study = run_study(
        data.covariates,
        data.treatment,
        cfg.sim_spec(),
        cfg.cate_menu(),
        runs=sim["runs"],
        seed=sim["seed"],
        train_frac=sim["train_frac"],
        fractions=cfg.echo["splits"]["fractions"],
        modes=cfg.ensembles,
        plug_in_spec=cfg.plug_in_spec(),
        p_star_spec=cfg.propensity_spec(),
    )
    write_json(io.out(layout.STUDY), study.to_dict())

    _write_records(io, layout.STUDY_AGGREGATES, study.aggregates)
    _write_records(io, layout.STUDY_SCATTER, study.rows)

    for f in study.failures:
        io.warn("study-run-failed", f"run {f['run']}: {f['error']}")
    for name, info in study.checks.items():
        if not info.get("pass", False):
            io.warn("study-check", f"validation check {name!r} did not pass")


def stage_fit_cate(cfg: PipelineConfig, manifest: RunManifest, io) -> None:
    data = _load_data(io)
    prop = load_model(io.need(layout.PROPENSITY_MODEL))
    train = data.rows_in("train")
    test = data.rows_in("test")
    menu = cfg.cate_menu()

    gate, retained = gate_menu(menu, train, data.rows_in("validation"), prop)
    for name, entry in gate.items():
        # the menu entry the model was fitted from, checked by the stages that read it
        entry["spec"] = cfg.echo["cate"]["menu"][name]
        if entry["excluded"]:
            io.warn(
                "component-gate",
                f"model {name!r} excluded: held-out MSE {entry['heldout_mse']:.6g} >= outcome "
                f"variance {entry['outcome_variance']:.6g}",
            )
    for name, model in retained.items():
        save_model(model, io.out(layout.cate_model(name)))
    write_json(io.out(layout.CATE_GATE), gate)
    if not retained:
        raise StageError(
            "every model in the menu failed the held-out error gate; "
            f"see {layout.CATE_GATE}"
        )

    theta = cfg.theta()
    u_seed = cfg.echo["uncertainty"]["seed"]
    # one set of bootstrap moments for every ols and ridge model of the menu
    moments = _BootstrapMoments(train, theta.b_boot, u_seed)
    intervals = [
        uncertainty_interval(
            menu[name], train, test.covariates, theta, seed=u_seed,
            propensity=prop, model=model, moments=moments,
        )
        for name, model in retained.items()
    ]
    taus = {name: interval.point for name, interval in zip(retained, intervals)}
    _write_per_model(
        io, layout.CATE_ESTIMATES, list(retained), test.row_ids,
        [iv.point for iv in intervals], [iv.lower for iv in intervals], [iv.upper for iv in intervals],
    )
    write_json(io.out(layout.CATE_DIAGNOSTICS), cate_diagnostics(taus))


def _retained_names(cfg: PipelineConfig, gate: dict) -> list[str]:
    menu = cfg.echo["cate"]["menu"]
    for name, spec in menu.items():
        if gate.get(name, {}).get("spec") != spec:
            raise StageError(
                f"model {name!r} in cate.menu is not the entry recorded in {layout.CATE_GATE}; "
                "the menu changed since fit-cate ran; rerun fit-cate"
            )
    retained = [name for name in menu if not gate[name]["excluded"]]
    if not retained:
        raise StageError(f"no model passed the held-out error gate in {layout.CATE_GATE}")
    return retained


def _write_table(io, rel: str, columns) -> None:
    write_table(io.out(rel), layout.HEADERS[rel], columns)


def _write_records(io, rel: str, records) -> None:
    """One row per record, a dict keyed by the header names of ``rel``."""
    _write_table(io, rel, [[r[k] for r in records] for k in layout.HEADERS[rel]])


def _write_per_model(io, rel: str, names, row_ids, *columns) -> None:
    """Rows name by name, one per row id; each of ``columns`` has one array per name."""
    repeat = [np.repeat(names, len(row_ids)), np.tile(row_ids, len(names))]
    _write_table(io, rel, repeat + [np.concatenate(c) for c in columns])


def _per_model_values(io, rel: str, test, names, width: int) -> dict:
    """``{name: values}`` for each of ``names``: the first ``width`` columns
    after ``model,row_id`` of a per-model artifact, as a (width, n) float
    array in test-split order.  A model without rows, or whose rows do not
    line up with the current test split, asks for the producer of ``rel`` to
    be rerun."""
    by_model = layout.read_by_model(
        io.need(rel), layout.HEADERS[rel], [1, *range(2, 2 + width)], ints=(1,)
    )
    out = {}
    for name in names:
        if name not in by_model or not np.array_equal(by_model[name][0], test.row_ids):
            raise StageError(
                f"{rel} rows for model {name!r} are missing or do not line up with the "
                f"current test split; rerun {layout.PRODUCER[rel]}"
            )
        out[name] = np.stack(by_model[name][1:])
    return out


def _bounded_propensity(io):
    prop = load_model(io.need(layout.PROPENSITY_MODEL))
    if prop.bounds is None:
        raise StageError("propensity model has no overlap bounds; rerun fit-propensity")
    return prop


def stage_defer(cfg: PipelineConfig, manifest: RunManifest, io) -> None:
    test = _load_data(io).rows_in("test")
    prop = _bounded_propensity(io)
    retained = _retained_names(cfg, read_json(io.need(layout.CATE_GATE)))
    estimates = _per_model_values(io, layout.CATE_ESTIMATES, test, retained, 3)
    scores = prop.predict(test.covariates)
    rule = DeferralRule(
        eta_low=prop.bounds[0], eta_high=prop.bounds[1], mode=cfg.echo["deferral"]["mode"]
    )

    flags, reasons = [], []
    profile = {}
    for name in retained:
        tau, lower, upper = estimates[name]
        interval = CateInterval(lower=lower, point=tau, upper=upper)
        decision = evaluate_deferral(rule, scores, interval=interval)
        flags.append(decision.defer)
        reasons.append(decision.reason)
        entry = {
            "n_deferred": decision.n_deferred,
            "n_recommended": test.n - decision.n_deferred,
            "n_overlap": int((decision.reason == REASON_OVERLAP).sum()),
            "n_uncertainty": int((decision.reason == REASON_UNCERTAINTY).sum()),
            "profile": None,
        }
        try:
            entry["profile"] = characterize_subpop(
                decision.defer, test, lam=cfg.echo["deferral"]["profile_lam"]
            )
        except DataError:
            io.warn(
                "subpopulation",
                f"model {name!r}: deferral split has a single class "
                f"({decision.n_deferred}/{test.n} deferred); no profile fitted",
            )
        profile[name] = entry

    _write_per_model(io, layout.DEFER_DECISIONS, retained, test.row_ids, flags, reasons)
    write_json(io.out(layout.DEFER_SUBPOP), profile)


def stage_evaluate(cfg: PipelineConfig, manifest: RunManifest, io) -> None:
    data = _load_data(io)
    train = data.rows_in("train")
    test = data.rows_in("test")
    prop = _bounded_propensity(io)
    retained = _retained_names(cfg, read_json(io.need(layout.CATE_GATE)))
    estimates = _per_model_values(io, layout.CATE_ESTIMATES, test, retained, 1)
    taus = {name: v[0] for name, v in estimates.items()}
    decisions = _per_model_values(io, layout.DEFER_DECISIONS, test, retained, 1)
    flags = {name: v[0] == 1.0 for name, v in decisions.items()}
    rule = cfg.decision_rule()
    eval_cfg = cfg.echo["evaluation"]
    seed = eval_cfg["seed"]

    p_star = prop.predict(test.covariates)

    plug_in = None
    if "DR" in cfg.estimators:
        plug_spec = cfg.plug_in_spec()
        plug_in = fit_plug_in(plug_spec, train, test.covariates)
        for name in retained:
            if cfg.echo["cate"]["menu"][name]["learner"]["kind"] == plug_spec.kind:
                io.warn(
                    "congeniality",
                    f"policy model {name!r} and the DR plug-in share the learner family "
                    f"{plug_spec.kind!r}; DR values for that policy may be optimistic",
                )

    if cfg.ensembles and len(retained) < 2:
        io.warn(
            "ensembles", f"ensembles need at least 2 retained models, have {len(retained)}; skipped"
        )
    policies = build_policy_set(
        taus, rule, test, p_star, defer=flags, modes=cfg.ensembles,
        ensemble_defer=~overlap_mask(p_star, *prop.bounds), seed=seed,
    )

    tournament = bootstrap_tournament(
        policies, test, p_star,
        estimators=cfg.estimators, B=eval_cfg["bootstrap_b"], seed=seed, plug_in=plug_in,
    )
    values = []
    for i, policy in enumerate(policies):
        for est in cfg.estimators:
            boot = tournament.distributions[est][i]
            values.append(
                {"policy": policy.name, "source": policy.source, "estimator": est,
                 "point": tournament.points[est][i],
                 **{f"boot_{k}": v for k, v in summarize_bootstrap(boot).items()},
                 "n_deferred": policy.n_deferred, "n_skipped": int(np.isnan(boot).sum())}
            )
    _write_records(io, layout.POLICY_VALUES, values)

    names = tournament.policies
    for est in cfg.estimators:
        write_table(io.out(layout.wins(est)), ["policy", *names], [names, *tournament.wins[est].T])
        write_table(io.out(layout.distributions(est)), names, tournament.distributions[est])

    curve_est = "DR" if "DR" in cfg.estimators else cfg.estimators[0]
    curve = [
        {"model": name, **pt}
        for name in retained
        for pt in rank_curve(
            taus[name], test, p_star,
            estimator=curve_est, step=eval_cfg["rank_step"], plug_in=plug_in,
        )
    ]
    _write_records(io, layout.RANK_CURVE, curve)

    trees = {p.name: outcome_tree(p, test) for p in policies}
    write_json(io.out(layout.OUTCOME_TREES), trees)

    recommending = [p for p in policies if p.source != "baseline"]
    _write_per_model(
        io, layout.RECOMMENDATIONS, [p.name for p in recommending], test.row_ids,
        [np.where(p.rec == DEFER, "defer", p.rec.astype(str)) for p in recommending],
    )


def stage_report(cfg: PipelineConfig, manifest: RunManifest, io) -> None:
    emit_report(io.out_dir, manifest.to_dict(), cfg.echo["report"]["bins"], io)


# the stages locked until the identification checklist is acknowledged
_ESTIMATING = ("fit-propensity", "fit-cate", "defer", "evaluate")


def planned_stages(cfg: PipelineConfig) -> list[str]:
    """Stage list a full run executes, honoring the simulation flags."""
    sim = cfg.echo["simulation"]
    if sim["only"]:
        return ["ingest", "simulate"]
    return [s for s in STAGE_ORDER if s != "simulate" or sim["enabled"]]


def _execute(cfg: PipelineConfig, stage: str, manifest: RunManifest) -> None:
    if stage not in STAGE_ORDER:
        raise ConfigError(f"unknown stage {stage!r}; stages are {list(STAGE_ORDER)}")
    # the stage named "fit-cate" in layout.STAGES runs stage_fit_cate, and so on
    fn = globals()["stage_" + stage.replace("-", "_")]
    io = layout.StageIO(cfg.out_dir, stage)
    start = time.perf_counter()
    try:
        if stage in _ESTIMATING and not cfg.echo["identification"]["acknowledged"]:
            raise ConfigError(
                f"stage {stage!r} estimates effects from observational data; review "
                f"{layout.IDENTIFICATION} in the output directory (written by the ingest "
                "stage) and set identification.acknowledged = true"
            )
        fn(cfg, manifest, io)
    except Exception as exc:
        # what the stage wrote before failing stays listed; the stage is not complete
        manifest.record(stage, io.written, io.warnings, complete=False)
        manifest.save(cfg.out_dir)
        if isinstance(exc, TreatPolicyError):
            raise
        raise StageError(f"stage {stage!r} failed: {exc}") from exc
    elapsed = time.perf_counter() - start if cfg.echo["report"]["include_timings"] else None
    manifest.record(stage, io.written, io.warnings, elapsed)
    manifest.save(cfg.out_dir)


def _run(cfg: PipelineConfig, stages, manifest: RunManifest) -> RunManifest:
    os.makedirs(cfg.out_dir, exist_ok=True)
    for stage in stages:
        _execute(cfg, stage, manifest)
    return manifest


def run_pipeline(cfg: PipelineConfig) -> RunManifest:
    """Execute every planned stage from scratch; abort on the first failure,
    leaving the manifest of completed stages behind."""
    return _run(cfg, planned_stages(cfg), RunManifest.fresh(cfg))


def run_stages(cfg: PipelineConfig, stages) -> RunManifest:
    """Run selected stages, merging into the directory's manifest when the
    config hash matches (stale manifests are replaced)."""
    return _run(cfg, stages, RunManifest.load_or_fresh(cfg))
