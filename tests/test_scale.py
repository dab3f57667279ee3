"""End-to-end ``all`` at 100,000 x 20 rows in a child process with bounded memory.

Time and memory must stay sub-quadratic in rows, so the run gets a 2 GB
address space: a quadratic regression fails here instead of swapping.  The
test takes tens of seconds, so it is marked ``slow`` and deselected by
default; run it with ``python -m pytest -q -m slow``.
"""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import treatpolicy
from treatpolicy.layout import write_table

ROWS, COVARIATES = 100_000, 20
ADDRESS_SPACE = 2 * 1024**3
RIDGE = {"kind": "ridge", "lam": 1.0}


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


@pytest.mark.slow
def test_all_at_100k_rows_runs_within_2gb(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(ROWS, COVARIATES))
    t = (rng.random(ROWS) < 1.0 / (1.0 + np.exp(-(0.6 * X[:, 0] - 0.4 * X[:, 1])))).astype(int)
    y = X[:, 0] - 0.5 * X[:, 1] + t * (0.5 + 0.8 * X[:, 2]) + rng.normal(size=ROWS)
    names = [f"x{j}" for j in range(COVARIATES)]
    write_table(tmp_path / "cohort.csv", [*names, "treat", "outcome"], [*X.T, t, y])
    config = {
        "data": {"path": "cohort.csv", "treatment": "treat", "outcome": "outcome"},
        "cate": {
            "menu": {
                "t-ridge": {"kind": "t", "learner": RIDGE},
                "x-ridge": {"kind": "x", "learner": RIDGE},
                "s-ols": {"kind": "s", "learner": {"kind": "ols"}},
            },
            "ensembles": ["average"],
        },
        "uncertainty": {"b_boot": 5},
        "evaluation": {"bootstrap_b": 100, "plug_in": RIDGE},
        "identification": {"acknowledged": True},
        "output_dir": "out",
    }
    (tmp_path / "config.json").write_text(json.dumps(config))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=str(Path(treatpolicy.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "treatpolicy.cli", "all", "config.json"],
        cwd=tmp_path, env=env, preexec_fn=_limit_address_space,
        capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr

    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stages"] == ["ingest", "fit-propensity", "fit-cate", "defer", "evaluate",
                                  "report"]
    assert np.load(out / "data" / "dataset.npy").shape == (ROWS, 4 + COVARIATES)
    assert not (out / "data" / "dataset.csv").exists()
    with open(out / "cate" / "estimates.csv") as fh:
        # one row per retained model and test row; the default test fraction is 0.25
        assert sum(1 for _ in fh) == 1 + 3 * ROWS // 4
