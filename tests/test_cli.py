import argparse
import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import pipeline_raw, write_observational_csv

import treatpolicy
from treatpolicy.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def workspace(tmp_path):
    csv_path = tmp_path / "table.csv"
    write_observational_csv(csv_path, n=200)
    raw = pipeline_raw(
        csv_path, tmp_path / "out",
        cate={"menu": {"t-ridge": {"kind": "t", "learner": {"kind": "ridge", "lam": 1.0}}},
              "ensembles": []},
        uncertainty={"alpha_stat": 0.8, "b_boot": 8},
        evaluation={"bootstrap_b": 8, "plug_in": {"kind": "ridge", "lam": 1.0}},
    )
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(raw))
    return tmp_path, cfg_path, raw


class TestParser:
    def test_every_stage_is_a_subcommand(self):
        parser = build_parser()
        for name in ("validate-config", "ingest", "simulate", "fit-propensity",
                     "fit-cate", "defer", "evaluate", "report", "all"):
            args = parser.parse_args([name, "cfg.json"])
            assert args.command == name

    def test_stage_subcommands_follow_the_stage_table(self):
        from treatpolicy import layout

        parser = build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        listed = [(c.dest, c.help) for c in commands._choices_actions]
        assert listed[1:-1] == list(layout.STAGES)
        assert [listed[0][0], listed[-1][0]] == ["validate-config", "all"]

    def test_readme_command_table_is_the_stage_table(self):
        from treatpolicy import layout

        rows = []
        for line in (REPO_ROOT / "README.md").read_text().splitlines():
            if line.startswith("| `"):
                name, about = (cell.strip() for cell in line.strip("|").split("|"))
                rows.append((name.strip("`"), about))
        names = [name for name, _ in rows]
        assert rows[names.index("ingest"):names.index("report") + 1] == list(layout.STAGES)

    def test_set_is_repeatable(self):
        args = build_parser().parse_args(
            ["all", "cfg.json", "--set", "a.b=1", "--set", "c=2"]
        )
        assert args.overrides == ["a.b=1", "c=2"]


class TestValidateConfig:
    def test_prints_hash_and_echo(self, workspace, capsys):
        _, cfg_path, _ = workspace
        assert main(["validate-config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        head, _, body = out.partition("\n")
        assert head.startswith("config hash: ")
        echo = json.loads(body)
        assert echo["evaluation"]["bootstrap_b"] == 8

    def test_set_override_changes_echo_and_hash(self, workspace, capsys):
        _, cfg_path, _ = workspace
        main(["validate-config", str(cfg_path)])
        base = capsys.readouterr().out
        main(["validate-config", str(cfg_path), "--set", "evaluation.bootstrap_b=16"])
        bumped = capsys.readouterr().out
        assert json.loads(bumped.partition("\n")[2])["evaluation"]["bootstrap_b"] == 16
        assert base.partition("\n")[0] != bumped.partition("\n")[0]

    def test_bad_gbt_value_is_a_config_error(self, workspace, capsys):
        tmp_path, _, raw = workspace
        raw["cate"]["menu"]["t-ridge"]["learner"] = {"kind": "gbt", "learning_rate": -1}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["validate-config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "learning_rate" in err

    @pytest.mark.parametrize("assignment", ["evaluation.rank_step=NaN", "uncertainty.lam=Infinity"])
    def test_non_finite_override_is_a_config_error(self, workspace, capsys, assignment):
        _, cfg_path, _ = workspace
        assert main(["validate-config", str(cfg_path), "--set", assignment]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and f"{assignment.partition('=')[0]} must be a finite" in err

    def test_simulation_form_is_no_longer_a_key(self, workspace, capsys):
        tmp_path, _, raw = workspace
        raw["simulation"] = {"enabled": True, "form": "linear"}
        old = tmp_path / "old.json"
        old.write_text(json.dumps(raw))
        assert main(["validate-config", str(old)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "'form'" in err and "simulation" in err

    def test_output_dir_flag_is_an_override(self, workspace, capsys):
        tmp_path, cfg_path, _ = workspace
        main(["validate-config", str(cfg_path), "--output-dir", str(tmp_path / "elsewhere")])
        echo = json.loads(capsys.readouterr().out.partition("\n")[2])
        assert echo["output_dir"] == str(tmp_path / "elsewhere")


class TestExitCodes:
    def test_full_run_succeeds(self, workspace, capsys):
        tmp_path, cfg_path, _ = workspace
        assert main(["all", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert out.strip().startswith("all: ok - ")
        assert (tmp_path / "out" / "report" / "index.md").exists()

    def test_config_error_is_2(self, workspace, capsys):
        _, cfg_path, _ = workspace
        assert main(["all", str(cfg_path), "--set", "evaluation.bogus=1"]) == 2
        assert "config error:" in capsys.readouterr().err
        assert main(["all", str(cfg_path.with_name("absent.json"))]) == 2

    def test_unacknowledged_estimation_is_2(self, workspace, capsys):
        _, cfg_path, _ = workspace
        override = "identification.acknowledged=false"
        assert main(["ingest", str(cfg_path), "--set", override]) == 0
        assert main(["fit-propensity", str(cfg_path), "--set", override]) == 2
        err = capsys.readouterr().err
        assert "identification.md" in err

    def test_data_error_is_3(self, workspace, capsys):
        _, cfg_path, _ = workspace
        assert main(["ingest", str(cfg_path), "--set", "data.path=missing.csv"]) == 3
        assert "data error:" in capsys.readouterr().err

    def test_table_that_is_not_utf8_is_3(self, workspace, capsys):
        _, cfg_path, _ = workspace
        table = cfg_path.with_name("latin1.csv")
        table.write_bytes("caf\u00e9,treat,outcome\n1.0,1,2.0\n".encode("latin-1"))
        assert main(["ingest", str(cfg_path), "--set", f"data.path={table}"]) == 3
        err = capsys.readouterr().err
        assert "data error:" in err and "latin1.csv" in err and "utf-8" in err

    def test_covariate_named_like_a_missing_indicator_is_3(self, workspace, capsys):
        _, cfg_path, _ = workspace
        table = cfg_path.with_name("indicator.csv")
        table.write_text("a,a__missing,treat,outcome\n" + "".join(
            f"{'' if i < 8 else i},7.5,{i % 2},{i / 10}\n" for i in range(40)))
        assert main(["ingest", str(cfg_path), "--set", f"data.path={table}"]) == 3
        err = capsys.readouterr().err
        assert "data error:" in err and "'a__missing'" in err

    def test_bad_column_is_3(self, workspace, capsys):
        _, cfg_path, _ = workspace
        assert main(["ingest", str(cfg_path), "--set", "data.outcome=nope"]) == 3

    def test_stage_failure_is_4(self, workspace, capsys):
        _, cfg_path, _ = workspace
        assert main(["evaluate", str(cfg_path)]) == 4
        err = capsys.readouterr().err
        assert "stage failure:" in err and "ingest" in err

    def test_a_refused_dataset_file_is_4(self, workspace, capsys):
        tmp_path, cfg_path, _ = workspace
        assert main(["ingest", str(cfg_path)]) == 0
        path = tmp_path / "out" / "data" / "dataset.npy"
        path.write_bytes(path.read_bytes()[:-8])
        capsys.readouterr()
        assert main(["fit-propensity", str(cfg_path)]) == 4
        err = capsys.readouterr().err
        assert f"{path}: not a readable .npy matrix" in err
        assert "rerun the 'ingest' stage" in err

    def test_a_refused_dataset_description_is_4(self, workspace, capsys):
        tmp_path, cfg_path, _ = workspace
        assert main(["ingest", str(cfg_path)]) == 0
        path = tmp_path / "out" / "data" / "dataset.json"
        desc = json.loads(path.read_text())
        del desc["n_rows"]
        path.write_text(json.dumps(desc))
        capsys.readouterr()
        assert main(["fit-propensity", str(cfg_path)]) == 4
        err = capsys.readouterr().err
        assert f"{path}: no 'n_rows'" in err
        assert "rerun the 'ingest' stage" in err


class TestWarningsSurface:
    def test_component_gate_warning_reaches_stderr(self, workspace, capsys):
        _, cfg_path, raw = workspace
        raw["cate"]["menu"]["planted"] = {"kind": "s", "learner": {"kind": "lasso", "lam": 1e9}}
        cfg_path.write_text(json.dumps(raw))
        assert main(["ingest", str(cfg_path)]) == 0
        assert main(["fit-propensity", str(cfg_path)]) == 0
        capsys.readouterr()
        assert main(["fit-cate", str(cfg_path)]) == 0
        err = capsys.readouterr().err
        assert "warning [fit-cate/component-gate]:" in err
        assert "'planted'" in err

    def test_failed_run_prints_the_warnings_it_recorded(self, workspace, capsys):
        _, cfg_path, raw = workspace
        raw["cate"]["menu"] = {"planted": {"kind": "s", "learner": {"kind": "lasso", "lam": 1e9}}}
        cfg_path.write_text(json.dumps(raw))
        assert main(["all", str(cfg_path)]) == 4
        err = capsys.readouterr().err
        warning = err.index("warning [fit-cate/component-gate]:")
        assert "'planted'" in err
        assert err.index("stage failure:") > warning


def _child_env(bin_dir=None):
    """Environment for a child process that runs the code under test.

    The directory this process imported ``treatpolicy`` from goes first on
    PYTHONPATH, so the child never picks up a stale installed copy; ``bin_dir``,
    if given, goes first on PATH.
    """
    env = dict(os.environ)
    src = str(Path(treatpolicy.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["PATH"] = os.pathsep.join(filter(None, [bin_dir and str(bin_dir), env.get("PATH")]))
    return env


class TestEntryPoints:
    def test_module_invocation(self, workspace):
        _, cfg_path, _ = workspace
        proc = subprocess.run(
            [sys.executable, "-m", "treatpolicy.cli", "validate-config", str(cfg_path)],
            capture_output=True, text=True, env=_child_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("config hash: ")

    def test_loading_a_config_imports_no_network_module(self, workspace):
        # nor a worker-pool module: pools are imported when a pool starts, and
        # figures.escape stands in for xml.sax, so a run that starts no pool
        # pays for neither
        _, cfg_path, _ = workspace
        heavy = ("multiprocessing", "concurrent.futures", "ssl", "urllib.request", "xml.sax")
        code = ("import sys\n"
                "import treatpolicy.cli\n"
                "from treatpolicy.config import load_config\n"
                f"load_config({str(cfg_path)!r})\n"
                f"print([m for m in {heavy!r} if m in sys.modules])\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=_child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_console_script_installed(self, workspace):
        tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
        tmp_path, cfg_path, _ = workspace
        with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert "treatpolicy" in scripts
        ep = importlib.metadata.EntryPoint(
            name="treatpolicy", value=scripts["treatpolicy"], group="console_scripts"
        )
        assert callable(ep.load())

        bin_dir = None
        if shutil.which("treatpolicy") is None:
            # No installed copy: write the wrapper an installer writes for the
            # declared entry point, so the script still runs through PATH.
            bin_dir = tmp_path / "bin"
            bin_dir.mkdir()
            wrapper = bin_dir / "treatpolicy"
            wrapper.write_text(
                f"#!{sys.executable}\n"
                "import sys\n"
                f"from {ep.module} import {ep.attr}\n"
                f"sys.exit({ep.attr}())\n"
            )
            wrapper.chmod(0o755)
        env = _child_env(bin_dir)
        exe = shutil.which("treatpolicy", path=env["PATH"])
        assert exe, "treatpolicy console script not on PATH"

        proc = subprocess.run(
            [exe, "validate-config", str(cfg_path)], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("config hash: ")

        proc = subprocess.run(
            [exe, "validate-config", str(tmp_path / "missing.json")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 2
        assert "config error:" in proc.stderr
