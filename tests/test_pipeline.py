import csv
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest
from conftest import pipeline_raw, write_observational_csv
from test_learners_metrics import _brute_kendall

import treatpolicy
from treatpolicy import layout, pipeline
from treatpolicy.cli import main
from treatpolicy.config import validate_config
from treatpolicy.errors import ConfigError, SchemaError, StageError
from treatpolicy.ingest import load_dataset
from treatpolicy.learners import load_model, save_model
from treatpolicy.policy_eval import ensemble_effects, summarize_bootstrap
from treatpolicy.pipeline import (
    STAGE_ORDER,
    RunManifest,
    planned_stages,
    run_pipeline,
    run_stages,
)

DEFAULT_STAGES = ["ingest", "fit-propensity", "fit-cate", "defer", "evaluate", "report"]
SIM_STAGES = ["ingest", "fit-propensity", "simulate", "fit-cate", "defer", "evaluate", "report"]


def read_csv(path):
    import csv

    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def write_csv(path, rows):
    import csv

    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def disk_files(out_dir):
    return {p.relative_to(out_dir).as_posix() for p in out_dir.rglob("*") if p.is_file()}


def load_test_split(out_dir):
    data = load_dataset(out_dir / "data" / "dataset.npy", read_json(out_dir / "data" / "dataset.json"))
    return data.rows_in("test")


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    csv_path = root / "table.csv"
    write_observational_csv(csv_path)
    raw = pipeline_raw(csv_path, root / "out", simulation={"enabled": True, "runs": 2, "seed": 3})
    cfg = validate_config(raw)
    manifest = run_pipeline(cfg)
    return cfg, manifest, root / "out"


class TestFullRun:
    def test_planned_stages_all_completed(self, full_run):
        cfg, manifest, _ = full_run
        assert planned_stages(cfg) == SIM_STAGES
        assert manifest.stages == SIM_STAGES

    def test_manifest_lists_exactly_the_files_on_disk(self, full_run):
        _, manifest, out = full_run
        assert set(manifest.paths()) == disk_files(out) - {"manifest.json"}

    def test_manifest_json_contents(self, full_run):
        cfg, _, out = full_run
        m = read_json(out / "manifest.json")
        assert m["config_hash"] == cfg.hash
        assert m["config"] == cfg.echo
        assert m["seeds"] == cfg.seeds()
        assert "timings" not in m  # off by default so reruns stay byte-identical

    def test_identification_checklist_written(self, full_run):
        _, _, out = full_run
        text = (out / "identification.md").read_text()
        assert "identification.acknowledged" in text
        assert "Positivity" in text

    def test_propensity_scores_cover_every_row(self, full_run):
        _, _, out = full_run
        rows = read_csv(out / "propensity" / "scores.csv")
        assert rows[0] == ["row_id", "split", "treatment", "score"]
        assert len(rows) == 401
        scores = [float(r[3]) for r in rows[1:]]
        assert all(0.0 < s < 1.0 for s in scores)
        overlap = read_json(out / "propensity" / "overlap.json")
        bounds = overlap["report"]["bounds"]
        assert 0.0 <= bounds["eta_low"] < bounds["eta_high"] <= 1.0

    def test_gate_retains_both_models(self, full_run):
        _, _, out = full_run
        gate = read_json(out / "cate" / "gate.json")
        assert set(gate) == {"t-ridge", "s-ols"}
        for entry in gate.values():
            assert entry["excluded"] is False
            assert entry["heldout_mse"] < entry["outcome_variance"]

    def test_estimates_align_with_test_split_and_are_ordered(self, full_run):
        _, _, out = full_run
        test = load_test_split(out)
        rows = read_csv(out / "cate" / "estimates.csv")[1:]
        assert len(rows) == 2 * test.n
        want = [int(r) for r in test.row_ids]
        for name in ("t-ridge", "s-ols"):
            got = [r for r in rows if r[0] == name]
            assert [int(r[1]) for r in got] == want
            for _, _, tau, lower, upper in got:
                assert float(lower) <= float(tau) <= float(upper)

    def test_kendall_cells_equal_the_brute_force_on_stored_estimates(self, full_run):
        _, _, out = full_run
        diag = read_json(out / "cate" / "diagnostics.json")
        rows = read_csv(out / "cate" / "estimates.csv")[1:]
        names = diag["names"]
        tau = {name: np.array([float(r[2]) for r in rows if r[0] == name]) for name in names}
        for i, a in enumerate(names):
            for j, b in enumerate(names):
                if i == j:
                    continue
                got, want = diag["kendall"][i][j], _brute_kendall(tau[a], tau[b])
                assert got == want or (math.isnan(got) and math.isnan(want)), (a, b)

    def test_defer_decisions_and_subpop(self, full_run):
        _, _, out = full_run
        test = load_test_split(out)
        rows = read_csv(out / "defer" / "decisions.csv")[1:]
        assert len(rows) == 2 * test.n
        assert {r[3] for r in rows} <= {"", "overlap", "uncertainty"}
        subpop = read_json(out / "defer" / "subpop.json")
        for name in ("t-ridge", "s-ols"):
            entry = subpop[name]
            assert entry["n_deferred"] + entry["n_recommended"] == test.n
            assert entry["n_overlap"] + entry["n_uncertainty"] == entry["n_deferred"]

    def test_policy_values_table(self, full_run):
        _, _, out = full_run
        rows = read_csv(out / "eval" / "policy_values.csv")
        names = {r[0] for r in rows[1:]}
        assert names == {
            "t-ridge", "s-ols", "ensemble-average", "ensemble-majority",
            "doctors", "random", "propensity", "treat-all-0", "treat-all-1",
        }
        assert len(rows) == 1 + 2 * len(names)  # one row per policy x estimator
        # the summaries come from the tournament's resamples, read back exactly
        dists = {}
        for est in ("IPW", "DR"):
            dist = read_csv(out / "eval" / f"distributions_{est}.csv")
            dists[est] = {
                name: np.array([float(r[j]) for r in dist[1:]]) for j, name in enumerate(dist[0])
            }
        header = rows[0]
        for row in rows[1:]:
            cells = dict(zip(header, row))
            boot = dists[cells["estimator"]][cells["policy"]]
            for stat, v in summarize_bootstrap(boot).items():
                assert cells[f"boot_{stat}"] == repr(v)
            assert cells["n_skipped"] == str(int(np.isnan(boot).sum()))

    def test_doctors_value_is_the_factual_mean_under_both_estimators(self, full_run):
        _, _, out = full_run
        test = load_test_split(out)
        rows = read_csv(out / "eval" / "policy_values.csv")[1:]
        doctor_points = [float(r[3]) for r in rows if r[0] == "doctors"]
        assert len(doctor_points) == 2
        for v in doctor_points:
            assert v == test.outcome.mean()

    def test_tournament_outputs(self, full_run):
        cfg, _, out = full_run
        b = cfg.echo["evaluation"]["bootstrap_b"]
        for est in ("IPW", "DR"):
            wins = read_csv(out / "eval" / f"wins_{est}.csv")
            names = wins[0][1:]
            assert len(wins) == 1 + len(names)
            for row in wins[1:]:
                counts = [int(v) for v in row[1:]]
                assert all(0 <= c <= b for c in counts)
            assert [r[0] for r in wins[1:]] == names
            dist = read_csv(out / "eval" / f"distributions_{est}.csv")
            assert dist[0] == names
            assert len(dist) == 1 + b

    def test_rank_curve_grid_and_endpoint(self, full_run):
        _, _, out = full_run
        rows = read_csv(out / "eval" / "rank_curve.csv")[1:]
        by_model = {}
        for model, q, frac, value in rows:
            by_model.setdefault(model, []).append((float(q), float(frac), float(value)))
        assert set(by_model) == {"t-ridge", "s-ols"}
        values = read_csv(out / "eval" / "policy_values.csv")[1:]
        all0_dr = next(float(r[3]) for r in values if r[0] == "treat-all-0" and r[2] == "DR")
        for pts in by_model.values():
            assert len(pts) == 11
            q_last, frac_last, v_last = pts[-1]
            assert (q_last, frac_last) == (1.0, 0.0)
            assert v_last == all0_dr  # bit-exact endpoint

    def test_outcome_trees_cover_policies_and_leaves_sum(self, full_run):
        _, _, out = full_run
        test = load_test_split(out)
        trees = read_json(out / "eval" / "outcome_trees.json")
        values = read_csv(out / "eval" / "policy_values.csv")[1:]
        assert set(trees) == {r[0] for r in values}
        for tree in trees.values():
            assert tree["n"] == test.n
            arm_total = 0
            for arm in tree["children"].values():
                leaves = arm["children"]
                assert set(leaves) == {"agree", "disagree", "defer"}
                assert sum(leaf["n"] for leaf in leaves.values()) == arm["n"]
                arm_total += arm["n"]
            assert arm_total == test.n

    def test_recommendations_exclude_baselines(self, full_run):
        _, _, out = full_run
        test = load_test_split(out)
        rows = read_csv(out / "eval" / "recommendations.csv")[1:]
        names = {r[0] for r in rows}
        assert names == {"t-ridge", "s-ols", "ensemble-average", "ensemble-majority"}
        assert len(rows) == len(names) * test.n
        assert {r[2] for r in rows} <= {"0", "1", "defer"}

    def test_report_renders_every_figure(self, full_run):
        _, manifest, out = full_run
        index = (out / "report" / "index.md").read_text()
        assert "not produced" not in index
        svgs = sorted((out / "report").glob("*.svg"))
        assert len(svgs) == 6
        for svg in svgs:
            xml.dom.minidom.parse(str(svg))  # well-formed
        assert not [w for w in manifest.warnings if w["stage"] == "report"]

    def test_report_index_describes_stages_from_the_stage_table(self, full_run):
        _, _, out = full_run
        index = (out / "report" / "index.md").read_text()
        described = [name for name in layout.STAGE_ORDER if name != "report"]
        positions = []
        for name, about in layout.STAGES:
            if name in described:
                heading = f"### {name}\n\n{about[0].upper()}{about[1:]}.\n"
                assert heading in index
                positions.append(index.index(heading))
        assert positions == sorted(positions)

    def test_rerun_from_scratch_is_byte_identical(self, full_run):
        cfg, _, out = full_run
        before = {rel: (out / rel).read_bytes() for rel in disk_files(out)}
        shutil.rmtree(out)
        run_pipeline(cfg)
        after = {rel: (out / rel).read_bytes() for rel in disk_files(out)}
        assert sorted(before) == sorted(after)
        assert [rel for rel in sorted(before) if before[rel] != after[rel]] == []


class TestIdentificationGate:
    def test_estimation_stages_locked_until_acknowledged(self, tmp_path):
        csv_path = tmp_path / "table.csv"
        write_observational_csv(csv_path, n=120)
        raw = pipeline_raw(csv_path, tmp_path / "out", identification={"acknowledged": False})
        cfg = validate_config(raw)
        run_stages(cfg, ["ingest"])  # ingest itself is allowed
        assert (tmp_path / "out" / "identification.md").exists()
        with pytest.raises(ConfigError, match="identification.acknowledged"):
            run_stages(cfg, ["fit-propensity"])


@pytest.fixture(scope="module")
def gated(tmp_path_factory):
    root = tmp_path_factory.mktemp("gate")
    csv_path = root / "table.csv"
    write_observational_csv(csv_path)
    menu = {
        "t-ridge": {"kind": "t", "learner": {"kind": "ridge", "lam": 1.0}},
        # absurd shrinkage collapses the fit to a constant, which cannot
        # beat the outcome variance on held-out rows
        "planted": {"kind": "s", "learner": {"kind": "lasso", "lam": 1e9}},
    }
    raw = pipeline_raw(
        csv_path, root / "out",
        cate={"menu": menu, "ensembles": []},
        uncertainty={"alpha_stat": 0.8, "b_boot": 8},
    )
    cfg = validate_config(raw)
    manifest = run_stages(cfg, ["ingest", "fit-propensity", "fit-cate"])
    return cfg, manifest, root / "out"


class TestComponentGate:
    def test_planted_learner_excluded_and_reported(self, gated):
        _, manifest, out = gated
        gate = read_json(out / "cate" / "gate.json")
        assert gate["planted"]["excluded"] is True
        assert gate["planted"]["heldout_mse"] >= gate["planted"]["outcome_variance"]
        assert gate["t-ridge"]["excluded"] is False
        warns = [w for w in manifest.warnings if w["kind"] == "component-gate"]
        assert len(warns) == 1 and "'planted'" in warns[0]["message"]

    def test_excluded_model_is_not_saved_or_estimated(self, gated):
        _, _, out = gated
        assert not (out / "cate" / "models" / "planted.json").exists()
        assert (out / "cate" / "models" / "t-ridge.json").exists()
        models = {r[0] for r in read_csv(out / "cate" / "estimates.csv")[1:]}
        assert models == {"t-ridge"}

    def test_downstream_stages_run_on_the_survivors(self, gated):
        cfg, manifest, out = gated
        run_stages(cfg, ["defer", "evaluate"])
        names = {r[0] for r in read_csv(out / "eval" / "policy_values.csv")[1:]}
        assert "planted" not in names and "t-ridge" in names

    def test_all_excluded_aborts_but_leaves_gate_report(self, tmp_path):
        csv_path = tmp_path / "table.csv"
        write_observational_csv(csv_path, n=150)
        raw = pipeline_raw(
            csv_path, tmp_path / "out",
            cate={"menu": {"planted": {"kind": "s", "learner": {"kind": "lasso", "lam": 1e9}}},
                  "ensembles": []},
        )
        cfg = validate_config(raw)
        with pytest.raises(StageError, match="every model in the menu failed"):
            run_stages(cfg, ["ingest", "fit-propensity", "fit-cate"])
        saved = RunManifest.from_dict(read_json(tmp_path / "out" / "manifest.json"))
        assert saved.stages == ["ingest", "fit-propensity"]  # fit-cate did not complete
        assert "cate/gate.json" in saved.paths()
        assert any(w["kind"] == "component-gate" for w in saved.warnings)

    def test_failed_rerun_replaces_the_partial_record(self, tmp_path):
        csv_path = tmp_path / "table.csv"
        write_observational_csv(csv_path, n=150)
        raw = pipeline_raw(
            csv_path, tmp_path / "out",
            cate={"menu": {"planted": {"kind": "s", "learner": {"kind": "lasso", "lam": 1e9}}},
                  "ensembles": []},
        )
        cfg = validate_config(raw)
        run_stages(cfg, ["ingest", "fit-propensity"])
        for _ in range(2):
            with pytest.raises(StageError, match="every model in the menu failed"):
                run_stages(cfg, ["fit-cate"])
        saved = RunManifest.from_dict(read_json(tmp_path / "out" / "manifest.json"))
        assert saved.stages == ["ingest", "fit-propensity"]
        assert saved.paths().count("cate/gate.json") == 1
        assert [w["kind"] for w in saved.warnings].count("component-gate") == 1


class TestSequencing:
    def test_stage_without_upstream_artifacts_fails(self, tmp_path):
        csv_path = tmp_path / "table.csv"
        write_observational_csv(csv_path, n=120)
        cfg = validate_config(pipeline_raw(csv_path, tmp_path / "out"))
        with pytest.raises(StageError, match="run the 'ingest' stage first"):
            run_stages(cfg, ["evaluate"])
        run_stages(cfg, ["ingest"])
        with pytest.raises(StageError, match="run the 'fit-propensity' stage first"):
            run_stages(cfg, ["fit-cate"])

    def test_unknown_stage_rejected(self, tmp_path):
        csv_path = tmp_path / "table.csv"
        write_observational_csv(csv_path, n=120)
        cfg = validate_config(pipeline_raw(csv_path, tmp_path / "out"))
        with pytest.raises(ConfigError, match="unknown stage"):
            run_stages(cfg, ["train"])

    def test_stale_estimates_detected_after_resplit(self, tmp_path):
        csv_path = tmp_path / "table.csv"
        write_observational_csv(csv_path)
        menu = {"t-ridge": {"kind": "t", "learner": {"kind": "ridge", "lam": 1.0}}}
        base = pipeline_raw(csv_path, tmp_path / "out",
                            cate={"menu": menu, "ensembles": []},
                            uncertainty={"alpha_stat": 0.8, "b_boot": 8})
        cfg = validate_config(base)
        run_stages(cfg, ["ingest", "fit-propensity", "fit-cate"])
        resplit = validate_config({**base, "splits": {"seed": 99}})
        run_stages(resplit, ["ingest"])  # test membership changes under it
        with pytest.raises(StageError, match="rerun fit-cate"):
            run_stages(resplit, ["defer"])


class TestChangedMenu:
    """A stage that reads cate/gate.json after cate.menu changed asks for a fit-cate rerun."""

    @pytest.fixture(scope="class")
    def fitted(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("menu")
        csv_path = root / "table.csv"
        write_observational_csv(csv_path, n=200)
        menu = {"t-ridge": {"kind": "t", "learner": {"kind": "ridge", "lam": 1.0}}}
        raw = pipeline_raw(csv_path, root / "out", cate={"menu": menu, "ensembles": []},
                           uncertainty={"alpha_stat": 0.8, "b_boot": 8},
                           evaluation={"bootstrap_b": 8, "plug_in": {"kind": "ridge", "lam": 1.0}})
        run_stages(validate_config(raw), ["ingest", "fit-propensity", "fit-cate", "defer"])
        grown = {**menu, "t-ols": {"kind": "t", "learner": {"kind": "ols"}}}
        changed = {**raw, "cate": {"menu": grown, "ensembles": []}}
        cfg_path = root / "changed.json"
        cfg_path.write_text(json.dumps(changed))
        return validate_config(changed), cfg_path

    @pytest.mark.parametrize("stage", ["defer", "evaluate"])
    def test_stage_names_the_model_and_the_gate(self, fitted, stage, capsys):
        cfg, cfg_path = fitted
        with pytest.raises(StageError) as info:
            run_stages(cfg, [stage])
        message = str(info.value)
        assert "'t-ols'" in message and "cate/gate.json" in message
        assert "rerun fit-cate" in message
        assert main([stage, str(cfg_path)]) == 4
        err = capsys.readouterr().err
        assert "stage failure:" in err and "'t-ols'" in err and "rerun fit-cate" in err


class TestStoredPerModelArtifacts:
    """defer and evaluate take each retained model's rows from the stored CSVs."""

    @pytest.fixture()
    def run_dir(self, tmp_path):
        csv_path = tmp_path / "table.csv"
        write_observational_csv(csv_path, n=200)
        raw = pipeline_raw(csv_path, tmp_path / "out", uncertainty={"alpha_stat": 0.8, "b_boot": 8},
                           evaluation={"bootstrap_b": 8, "plug_in": {"kind": "ridge", "lam": 1.0}})
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(raw))
        cfg = validate_config(raw)
        run_stages(cfg, ["ingest", "fit-propensity", "fit-cate", "defer", "evaluate"])
        return cfg, cfg_path, tmp_path / "out"

    def damage(self, path, model, how):
        header, *rows = read_csv(path)
        mine = [r for r in rows if r[0] == model]
        rest = [r for r in rows if r[0] != model]
        write_csv(path, [header, *rest, *(mine[::-1] if how == "reordered" else [])])

    @pytest.mark.parametrize(("rel", "stage", "producer"), [
        ("defer/decisions.csv", "evaluate", "defer"),
        ("cate/estimates.csv", "defer", "fit-cate"),
        ("cate/estimates.csv", "evaluate", "fit-cate"),
    ])
    @pytest.mark.parametrize("how", ["removed", "reordered"])
    def test_model_rows_missing_or_out_of_line_ask_for_a_rerun(
        self, run_dir, rel, stage, producer, how, capsys
    ):
        cfg, cfg_path, out = run_dir
        self.damage(out / rel, "t-ridge", how)
        with pytest.raises(StageError) as info:
            run_stages(cfg, [stage])
        message = str(info.value)
        assert "'t-ridge'" in message and rel in message and f"rerun {producer}" in message
        assert main([stage, str(cfg_path)]) == 4
        err = capsys.readouterr().err
        assert "stage failure:" in err and f"rerun {producer}" in err

    @pytest.mark.parametrize("stage", ["defer", "evaluate"])
    def test_propensity_model_without_bounds_asks_for_a_rerun(self, run_dir, stage, capsys):
        _, cfg_path, out = run_dir
        model_path = out / "propensity" / "model.json"
        save_model(replace(load_model(model_path), bounds=None), model_path)
        assert main([stage, str(cfg_path)]) == 4
        err = capsys.readouterr().err
        assert "no overlap bounds" in err and "rerun fit-propensity" in err

    def test_unparsable_propensity_model_is_a_data_error_naming_the_file(self, run_dir, capsys):
        _, cfg_path, out = run_dir
        model_path = out / "propensity" / "model.json"
        model_path.write_text("{not json")
        assert main(["defer", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert f"data error: {model_path}: not valid JSON" in err

    def test_propensity_model_missing_a_field_is_a_data_error_naming_it(self, run_dir, capsys):
        _, cfg_path, out = run_dir
        model_path = out / "propensity" / "model.json"
        doc = json.loads(model_path.read_text())
        del doc["model"]["bounds"]
        model_path.write_text(json.dumps(doc))
        assert main(["defer", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert f"data error: {model_path}: 'propensity' model lacks field(s) ['bounds']" in err

    def test_ensembles_vote_over_stored_estimates_not_model_files(self, run_dir):
        cfg, _, out = run_dir
        recs = out / "eval" / "recommendations.csv"
        before = recs.read_bytes()
        assert b"ensemble-majority" in before
        est = read_csv(out / "cate" / "estimates.csv")[1:]
        stored = np.stack([
            np.array([float(r[2]) for r in est if r[0] == name]) for name in ("t-ridge", "s-ols")
        ])
        # a t-ridge model file whose effects are the stored ones with the sign flipped
        model_path = out / "cate" / "models" / "t-ridge.json"
        model = load_model(model_path)
        model.components["mu0"], model.components["mu1"] = (
            model.components["mu1"], model.components["mu0"],
        )
        flipped = model.predict(load_test_split(out).covariates)
        np.testing.assert_array_equal(flipped, -stored[0])
        save_model(model, model_path)
        vote = ensemble_effects(stored, "majority")[0]
        assert (ensemble_effects(np.stack([flipped, stored[1]]), "majority")[0] != vote).any()

        run_stages(cfg, ["evaluate"])
        assert recs.read_bytes() == before
        majority = [r[2] for r in read_csv(recs)[1:] if r[0] == "ensemble-majority"]
        allowed = {1.0: {"1", "defer"}, -1.0: {"0", "defer"}, 0.0: {"defer"}}
        assert all(r in allowed[v] for r, v in zip(majority, vote))


class TestPlanning:
    def base(self, **extra):
        return pipeline_raw("table.csv", "out", **extra)

    def test_default_plan_skips_simulate(self):
        cfg = validate_config(self.base())
        assert planned_stages(cfg) == DEFAULT_STAGES

    def test_enabled_simulation_slots_in_after_propensity(self):
        cfg = validate_config(self.base(simulation={"enabled": True}))
        stages = planned_stages(cfg)
        assert stages == ["ingest", "fit-propensity", "simulate",
                          "fit-cate", "defer", "evaluate", "report"]
        assert [s for s in stages if s in STAGE_ORDER] == stages

    def test_simulation_only_plan(self):
        cfg = validate_config(self.base(simulation={"only": True}))
        assert planned_stages(cfg) == ["ingest", "simulate"]


@pytest.fixture(scope="module")
def sim_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("sim")
    csv_path = root / "table.csv"
    write_observational_csv(csv_path)
    raw = pipeline_raw(
        csv_path, root / "out",
        cate={"menu": {"t-ridge": {"kind": "t", "learner": {"kind": "ridge", "lam": 1.0}}},
              "ensembles": []},
        simulation={"only": True, "runs": 2, "seed": 3},
    )
    cfg = validate_config(raw)
    manifest = run_pipeline(cfg)
    return cfg, manifest, root / "out"


class TestSimulateStage:
    def test_only_plan_executes_two_stages(self, sim_run):
        _, manifest, out = sim_run
        assert manifest.stages == ["ingest", "simulate"]
        stages_with_files = {a["stage"] for a in manifest.artifacts}
        assert stages_with_files == {"ingest", "simulate"}

    def test_study_artifacts(self, sim_run):
        _, _, out = sim_run
        study = read_json(out / "study" / "study.json")
        assert {"fidelity", "improves_on_current", "approaches_optimal"} <= set(study["checks"])
        agg = read_csv(out / "study" / "aggregates.csv")
        assert agg[0][:2] == ["policy", "n_runs"]
        policies = {r[0] for r in agg[1:]}
        assert {"doctors", "optimal", "t-ridge"} <= policies
        scatter = read_csv(out / "study" / "scatter.csv")
        assert scatter[0] == ["run", "policy", "source", "n_deferred", "treated_fraction",
                              "v_ipw", "v_dr", "v_true"]
        assert len(scatter) == 1 + 2 * len(policies)

    def test_study_json_holds_every_report_field(self, sim_run):
        _, _, out = sim_run
        study = read_json(out / "study" / "study.json")
        assert sorted(study) == ["aggregates", "checks", "failures", "n_runs", "policies",
                                 "rows", "spec"]
        assert study["spec"] == {"lam": 0.5, "effect_size": 0.5, "noise_factor": 1.2,
                                 "seed": None}
        assert study["n_runs"] == 2 and study["failures"] == []
        assert study["policies"] == ["t-ridge", "doctors", "random", "propensity",
                                     "treat-all-0", "treat-all-1", "optimal"]
        assert [row["policy"] for row in study["aggregates"]] == study["policies"]
        assert len(study["rows"]) == 2 * len(study["policies"])
        assert {tuple(sorted(row)) for row in study["rows"]} == {
            ("n_deferred", "policy", "run", "source", "treated_fraction", "v_dr", "v_ipw",
             "v_true")
        }


    def test_study_values_what_evaluate_reports(self, tmp_path):
        raw = _small_raw(tmp_path, cate={"ensembles": ["average"]},
                         simulation={"enabled": True, "runs": 2, "seed": 3})
        run_pipeline(validate_config(raw))
        out = tmp_path / "out"
        evaluated = {r[0] for r in read_csv(out / "eval" / "policy_values.csv")[1:]}
        studied = {r[0] for r in read_csv(out / "study" / "aggregates.csv")[1:]}
        assert "ensemble-average" in evaluated
        assert studied == evaluated | {"optimal"}


class TestJsonArtifacts:
    def test_non_finite_floats_are_written_as_null(self, tmp_path):
        path = tmp_path / "a.json"
        layout.write_json(path, {"a": [1.5, math.nan, (math.inf, -math.inf)], "b": np.float64("nan")})
        assert layout.read_json(path) == {"a": [1.5, None, [None, None]], "b": None}

    def test_constant_effects_leave_valid_json(self, tmp_path):
        # a two-stump s-learner that never splits on the arm has every effect 0,
        # so its Pearson and Kendall cells with any other model are undefined
        menu = {"t-ridge": {"kind": "t", "learner": {"kind": "ridge", "lam": 1.0}},
                "s-gbt": {"kind": "s", "learner": {"kind": "gbt", "n_trees": 5, "max_depth": 1}}}
        cfg = validate_config(_small_raw(tmp_path, cate={"menu": menu, "ensembles": []}))
        run_stages(cfg, ["ingest", "fit-propensity", "fit-cate"])

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        text = (tmp_path / "out" / layout.CATE_DIAGNOSTICS).read_text()
        diag = json.loads(text, parse_constant=refuse)
        assert diag["ates"]["s-gbt"] == 0.0
        assert diag["pearson"][0][1] is None and diag["kendall"][1][0] is None


class TestManifestMerge:
    def test_rerunning_a_stage_replaces_its_entries(self, tmp_path):
        csv_path = tmp_path / "table.csv"
        write_observational_csv(csv_path, n=120)
        cfg = validate_config(pipeline_raw(csv_path, tmp_path / "out"))
        m1 = run_stages(cfg, ["ingest"])
        m2 = run_stages(cfg, ["ingest"])
        assert m2.stages == ["ingest"]
        assert sorted(m2.paths()) == sorted(m1.paths())

    def test_changed_config_starts_a_fresh_manifest(self, tmp_path):
        csv_path = tmp_path / "table.csv"
        write_observational_csv(csv_path, n=120)
        base = pipeline_raw(csv_path, tmp_path / "out")
        run_stages(validate_config(base), ["ingest"])
        changed = validate_config({**base, "evaluation": {"bootstrap_b": 5}})
        m = run_stages(changed, ["ingest"])
        assert m.config_hash == changed.hash
        assert m.stages == ["ingest"]

    def test_timings_recorded_only_on_request(self, tmp_path):
        csv_path = tmp_path / "table.csv"
        write_observational_csv(csv_path, n=120)
        raw = pipeline_raw(csv_path, tmp_path / "out", report={"include_timings": True})
        m = run_stages(validate_config(raw), ["ingest"])
        saved = read_json(tmp_path / "out" / "manifest.json")
        assert set(saved["timings"]) == {"ingest"}
        assert saved["timings"]["ingest"] >= 0.0


class TestEvaluateWarnings:
    def test_congeniality_and_thin_ensembles_flagged(self, tmp_path):
        csv_path = tmp_path / "table.csv"
        write_observational_csv(csv_path)
        raw = pipeline_raw(
            csv_path, tmp_path / "out",
            cate={"menu": {"t-ridge": {"kind": "t", "learner": {"kind": "ridge", "lam": 1.0}}},
                  "ensembles": ["average"]},
            uncertainty={"alpha_stat": 0.8, "b_boot": 8},
            evaluation={"bootstrap_b": 8, "plug_in": {"kind": "ridge", "lam": 1.0}},
        )
        cfg = validate_config(raw)
        manifest = run_stages(cfg, ["ingest", "fit-propensity", "fit-cate", "defer", "evaluate"])
        kinds = {w["kind"] for w in manifest.warnings if w["stage"] == "evaluate"}
        assert {"congeniality", "ensembles"} <= kinds
        names = {r[0] for r in read_csv(tmp_path / "out" / "eval" / "policy_values.csv")[1:]}
        assert not any(n.startswith("ensemble-") for n in names)


class TestChangedMenuEntry:
    """A menu entry that keeps its name but changes its learner asks for a fit-cate rerun."""

    @pytest.fixture(scope="class")
    def refitted(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("entry")
        csv_path = root / "table.csv"
        write_observational_csv(csv_path, n=200)
        menu = {"t-ridge": {"kind": "t", "learner": {"kind": "ridge", "lam": 1.0}}}
        raw = pipeline_raw(csv_path, root / "out", cate={"menu": menu, "ensembles": []},
                           uncertainty={"alpha_stat": 0.8, "b_boot": 8},
                           evaluation={"bootstrap_b": 8, "plug_in": {"kind": "ols"}})
        cfg = validate_config(raw)
        run_stages(cfg, ["ingest", "fit-propensity", "fit-cate", "defer"])
        gbt = {"t-ridge": {"kind": "t", "learner": {"kind": "gbt", "n_trees": 5}}}
        changed = {**raw, "cate": {"menu": gbt, "ensembles": []}}
        cfg_path = root / "changed.json"
        cfg_path.write_text(json.dumps(changed))
        return cfg, validate_config(changed), cfg_path, root / "out"

    def test_gate_records_each_menu_entry(self, refitted):
        cfg, _, _, out = refitted
        gate = read_json(out / "cate" / "gate.json")
        assert {name: entry["spec"] for name, entry in gate.items()} == cfg.echo["cate"]["menu"]

    @pytest.mark.parametrize("stage", ["defer", "evaluate"])
    def test_stage_refuses_the_old_estimates(self, refitted, stage, capsys):
        _, changed, cfg_path, _ = refitted
        with pytest.raises(StageError) as info:
            run_stages(changed, [stage])
        message = str(info.value)
        assert "'t-ridge'" in message and "cate/gate.json" in message
        assert "rerun fit-cate" in message
        assert main([stage, str(cfg_path)]) == 4
        err = capsys.readouterr().err
        assert "stage failure:" in err and "'t-ridge'" in err and "rerun fit-cate" in err


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("default")
    csv_path = root / "table.csv"
    write_observational_csv(csv_path, n=200)
    raw = pipeline_raw(csv_path, root / "out", uncertainty={"alpha_stat": 0.8, "b_boot": 8},
                       evaluation={"bootstrap_b": 8, "plug_in": {"kind": "ridge", "lam": 1.0}})
    cfg = validate_config(raw)
    assert planned_stages(cfg) == DEFAULT_STAGES
    run_pipeline(cfg)
    return cfg, root / "out"


# The stage that writes under each top-level name of the output directory.
WRITES_UNDER = {
    "identification.md": "ingest", "data": "ingest", "propensity": "fit-propensity",
    "study": "simulate", "cate": "fit-cate", "defer": "defer", "eval": "evaluate",
    "report": "report",
}


class TestManifestRecord:
    """After ``all``, the manifest lists exactly the files each stage wrote."""

    @pytest.fixture(params=["default_run", "full_run", "sim_run"])
    def saved(self, request):
        out = request.getfixturevalue(request.param)[-1]
        return RunManifest.from_dict(read_json(out / "manifest.json")), out

    def test_each_file_is_listed_once_under_the_stage_that_wrote_it(self, saved):
        manifest, out = saved
        listed = {a["path"]: a["stage"] for a in manifest.artifacts}
        assert len(listed) == len(manifest.artifacts)
        on_disk = disk_files(out) - {"manifest.json"}
        assert listed == {rel: WRITES_UNDER[rel.split("/")[0]] for rel in on_disk}

    def test_every_fixed_artifact_is_listed_under_its_producer(self, saved):
        manifest, _ = saved
        listed = {a["path"]: a["stage"] for a in manifest.artifacts}
        unlisted = {rel for rel, stage in layout.PRODUCER.items()
                    if stage in manifest.stages and listed.get(rel) != stage}
        # without a study there is no value scatter to draw
        no_study = "report" in manifest.stages and "simulate" not in manifest.stages
        assert unlisted == ({layout.FIG_VALUE_SCATTER} if no_study else set())


class TestReusedOutputDirectory:
    """A report drawn in a reused directory reads only what its run's manifest lists."""

    def test_files_left_by_an_earlier_run_are_not_drawn(self, tmp_path):
        raw = _small_raw(tmp_path, simulation={"enabled": True, "runs": 2})
        run_pipeline(validate_config(raw))
        out = tmp_path / "out"
        assert (out / "study" / "scatter.csv").exists()
        assert (out / "eval" / "distributions_DR.csv").exists()

        rerun = {**raw, "simulation": {"enabled": False},
                 "evaluation": {**raw["evaluation"], "estimators": ["IPW"]}}
        manifest = run_pipeline(validate_config(rerun))
        assert "simulate" not in manifest.stages
        assert not [p for p in manifest.paths() if p.startswith("study/")]
        index = (out / "report" / "index.md").read_text()
        assert "fig_value_scatter.svg" not in index
        missing = f"missing upstream artifact `{layout.STUDY_SCATTER}`"
        assert f"value scatter: *not produced - {missing}*" in index
        assert layout.FIG_VALUE_SCATTER not in manifest.paths()
        box = (out / layout.FIG_VALUE_BOX).read_text()
        assert "Bootstrap policy values (IPW)" in box


class TestFailedStage:
    def test_failed_stage_is_dropped_from_the_record(self, tmp_path):
        csv_path = tmp_path / "table.csv"
        write_observational_csv(csv_path, n=200)
        raw = pipeline_raw(csv_path, tmp_path / "out", uncertainty={"alpha_stat": 0.8, "b_boot": 8},
                           evaluation={"bootstrap_b": 8, "plug_in": {"kind": "ridge", "lam": 1.0}})
        cfg = validate_config(raw)
        run_pipeline(cfg)
        (tmp_path / "out" / "defer" / "decisions.csv").unlink()
        with pytest.raises(StageError, match="run the 'defer' stage first"):
            run_stages(cfg, ["evaluate"])
        saved = RunManifest.from_dict(read_json(tmp_path / "out" / "manifest.json"))
        assert saved.stages == [s for s in DEFAULT_STAGES if s != "evaluate"]
        assert [a for a in saved.artifacts if a["stage"] == "evaluate"] == []
        assert [w for w in saved.warnings if w["stage"] == "evaluate"] == []


@pytest.fixture
def loads(monkeypatch):
    """Every Dataset the stages load from data/dataset.npy, in call order."""
    loaded = []

    def counting(path, description):
        loaded.append(load_dataset(path, description))
        return loaded[-1]

    monkeypatch.setattr(pipeline, "load_dataset", counting)
    return loaded


def _small_raw(tmp_path, **extra):
    csv_path = tmp_path / "table.csv"
    write_observational_csv(csv_path, n=150)
    return pipeline_raw(csv_path, tmp_path / "out", uncertainty={"alpha_stat": 0.8, "b_boot": 8},
                        evaluation={"bootstrap_b": 8, "plug_in": {"kind": "ridge", "lam": 1.0}},
                        **extra)


class TestStagesLoadTheDatasetFile:
    """Every stage after ingest loads data/dataset.npy as it is on disk."""

    def test_each_stage_after_ingest_loads_the_file_once(self, tmp_path, loads):
        cfg = validate_config(_small_raw(tmp_path, simulation={"enabled": True, "runs": 2}))
        assert run_pipeline(cfg).stages == SIM_STAGES
        # the report stage reads artifacts only
        assert len(loads) == len(SIM_STAGES) - 2

    def test_edited_cell_is_seen_by_the_next_stage(self, tmp_path, loads):
        cfg = validate_config(_small_raw(tmp_path))
        run_stages(cfg, ["ingest", "fit-propensity"])
        before = read_csv(tmp_path / "out" / "propensity" / "scores.csv")
        path = tmp_path / "out" / "data" / "dataset.npy"
        matrix = np.load(path)
        matrix[0, -1] = 123.5  # the last covariate of the first data row
        np.save(path, matrix)
        run_stages(cfg, ["fit-propensity"])
        assert len(loads) == 2 and loads[1].covariates[0, -1] == 123.5
        after = read_csv(tmp_path / "out" / "propensity" / "scores.csv")
        assert after[1][3] != before[1][3]

    def test_same_size_rewrite_is_seen_by_the_next_stage(self, tmp_path, loads):
        cfg = validate_config(_small_raw(tmp_path))
        run_stages(cfg, ["ingest", "fit-propensity"])
        path = tmp_path / "out" / "data" / "dataset.npy"
        matrix = np.load(path)
        inode, size = os.stat(path).st_ino, os.stat(path).st_size
        value = matrix[0, -1] + 7.0  # the last covariate of the first data row
        with open(path, "r+b") as fh:  # in place: the same inode and size
            fh.seek(size - matrix.nbytes + (matrix.shape[1] - 1) * 8)
            fh.write(np.float64(value).tobytes())
        assert (os.stat(path).st_ino, os.stat(path).st_size) == (inode, size)
        run_stages(cfg, ["fit-propensity"])
        assert len(loads) == 2 and loads[1].covariates[0, -1] == value

    def test_edited_column_kind_is_seen_by_the_next_stage(self, tmp_path, loads):
        cfg = validate_config(_small_raw(tmp_path))
        run_stages(cfg, ["ingest"])
        meta_path = tmp_path / "out" / "data" / "dataset.json"
        meta = read_json(meta_path)
        assert meta["columns"][0]["kind"] == "numeric"
        meta["columns"][0]["kind"] = "binary"
        layout.write_json(meta_path, meta)
        run_stages(cfg, ["fit-propensity"])
        assert len(loads) == 1 and loads[0].columns[0].kind == "binary"

    def test_a_column_dropped_from_the_description_is_refused(self, tmp_path):
        cfg = validate_config(_small_raw(tmp_path))
        run_stages(cfg, ["ingest"])
        meta_path = tmp_path / "out" / "data" / "dataset.json"
        meta = read_json(meta_path)
        del meta["columns"][1]
        layout.write_json(meta_path, meta)
        with pytest.raises(StageError, match=r"dataset\.npy: a matrix of shape .*rerun the "
                                             "'ingest' stage"):
            run_stages(cfg, ["fit-propensity"])

    def test_secondary_outcome_and_ignored_columns_leave_every_artifact_unchanged(
            self, tmp_path):
        plain = _small_raw(tmp_path, simulation={"enabled": True, "runs": 2})
        rows = read_csv(plain["data"]["path"])
        rng = np.random.default_rng(1)
        write_csv(tmp_path / "wide.csv", [["id", *rows[0][:2], "y2", *rows[0][2:]]] + [
            [str(i), *row[:2], repr(float(y2)), *row[2:]]
            for i, (row, y2) in enumerate(zip(rows[1:], rng.normal(size=len(rows) - 1)))])
        wide = {**plain, "output_dir": str(tmp_path / "wide"),
                "data": {**plain["data"], "path": str(tmp_path / "wide.csv"),
                         "secondary_outcomes": ["y2"], "ignore": ["id"]}}
        hashes = [run_pipeline(validate_config(raw)).config_hash for raw in (plain, wide)]
        out, wide_out = tmp_path / "out", tmp_path / "wide"
        files = disk_files(out)
        assert disk_files(wide_out) == files
        # the manifest echoes the config, and the report index names its hash
        assert [rel for rel in sorted(files - {"manifest.json", "report/index.md"})
                if (out / rel).read_bytes() != (wide_out / rel).read_bytes()] == []
        index = [(o / "report" / "index.md").read_text().replace(h, "")
                 for o, h in zip((out, wide_out), hashes)]
        assert index[0] == index[1]
        description = read_json(wide_out / "data" / "dataset.json")
        assert description.keys() == {"columns", "n_rows"}
        assert [c["name"] for c in description["columns"]] == rows[0][:-2]
        assert np.load(wide_out / "data" / "dataset.npy").shape == (len(rows) - 1, 4 + 4)

    def test_missing_dataset_still_names_ingest(self, tmp_path):
        cfg = validate_config(_small_raw(tmp_path))
        run_stages(cfg, ["ingest"])
        (tmp_path / "out" / "data" / "dataset.npy").unlink()
        with pytest.raises(StageError, match="run the 'ingest' stage first"):
            run_stages(cfg, ["fit-propensity"])

    def test_a_directory_from_before_the_npy_file_names_it_and_ingest(self, tmp_path):
        cfg = validate_config(_small_raw(tmp_path))
        run_stages(cfg, ["ingest"])
        data = tmp_path / "out" / "data"
        # what ingest wrote before the dataset was a .npy matrix: a CSV table
        (data / "dataset.csv").write_text("row_id,split,treatment,outcome\r\n")
        (data / "dataset.npy").unlink()
        with pytest.raises(StageError, match=r"missing artifact data/dataset\.npy; run the "
                                             "'ingest' stage first"):
            run_stages(cfg, ["fit-cate"])

    def test_all_in_process_matches_each_stage_in_a_fresh_process(self, tmp_path, monkeypatch):
        # the same relative paths in two directories, so the config echoes are equal
        raw = _small_raw(tmp_path, simulation={"enabled": True, "runs": 2})
        raw["data"]["path"], raw["output_dir"] = "table.csv", "out"
        dirs = {side: tmp_path / side for side in ("shared", "parsed")}
        for d in dirs.values():
            d.mkdir()
            shutil.copy(tmp_path / "table.csv", d / "table.csv")
            (d / "config.json").write_text(json.dumps(raw))
        monkeypatch.chdir(dirs["shared"])
        cfg = validate_config(raw)
        run_pipeline(cfg)

        env = dict(os.environ, PYTHONPATH=str(Path(treatpolicy.__file__).resolve().parents[1]))
        for stage in planned_stages(cfg):
            proc = subprocess.run(
                [sys.executable, "-m", "treatpolicy.cli", stage, "config.json"],
                cwd=dirs["parsed"], env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
        shared, parsed = (d / "out" for d in dirs.values())
        assert "manifest.json" in disk_files(shared)
        assert disk_files(shared) == disk_files(parsed)
        assert [rel for rel in sorted(disk_files(shared))
                if (shared / rel).read_bytes() != (parsed / rel).read_bytes()] == []
