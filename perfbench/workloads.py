"""Workload definitions and the seeded cohort generator.

Each workload is one cohort shape plus one pipeline config.  The program
sees only the cohort CSV and the config JSON; the planted per-row effect
goes to a sidecar file that only the benchmark's checks read.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

# The pipeline's stage order (treatpolicy.pipeline.STAGE_ORDER); written out
# here so that the stage check does not trust the program's own plan.
STAGES_SIM = ("ingest", "fit-propensity", "simulate", "fit-cate", "defer", "evaluate", "report")
STAGES_NO_SIM = tuple(s for s in STAGES_SIM if s != "simulate")

_RIDGE = {"kind": "ridge", "lam": 1.0}
_LINEAR_MENU = {
    "t-ridge": {"kind": "t", "learner": _RIDGE},
    "x-ridge": {"kind": "x", "learner": _RIDGE},
    "s-ols": {"kind": "s", "learner": {"kind": "ols"}},
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rows: int
    covariates: int
    menu: dict
    ensembles: list
    b_boot: int
    bootstrap_b: int
    plug_in: dict | None = None  # None keeps the program's default plug-in
    simulation_runs: int = 0  # 0 disables the simulate stage
    # Per model, the smallest Pearson correlation between its test-row
    # estimates and the planted effect that a run may show.  The floors and
    # tolerances sit below the worst value seen over seeds 0..19 (0..44 on
    # gbt-bootstrap) at the commit that added the benchmark.
    corr_floors: dict = field(default_factory=dict)
    # Largest distance between a constant estimate (an S-learner on a linear
    # base fits no interaction, so its effect is one number) and the mean
    # planted effect on the test rows.
    ate_tolerance: float = 0.25
    # Smallest study fidelity (Pearson of DR against true policy values);
    # None skips the study check.
    study_fidelity_floor: float | None = None

    @property
    def stages(self) -> tuple:
        return STAGES_SIM if self.simulation_runs else STAGES_NO_SIM


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gbt-bootstrap",
            why="many small GBT refits from the uncertainty bootstrap and the "
            "simulation study; exercises the tree learner, little policy_eval, "
            "Kendall or IO",
            rows=4000,
            covariates=10,
            menu={
                "t-ridge": _LINEAR_MENU["t-ridge"],
                "t-gbt": {
                    "kind": "t",
                    "learner": {"kind": "gbt", "n_trees": 50, "max_depth": 3,
                                "min_samples_leaf": 10},
                },
                "x-ridge": _LINEAR_MENU["x-ridge"],
                "s-ols": _LINEAR_MENU["s-ols"],
            },
            ensembles=["average", "majority"],
            b_boot=20,
            bootstrap_b=200,
            simulation_runs=3,
            corr_floors={"t-ridge": 0.9, "x-ridge": 0.9, "t-gbt": 0.75},
            study_fidelity_floor=0.8,
        ),
        Workload(
            name="eval-bootstrap",
            why="linear menu at the default b_boot and bootstrap_b with 11 "
            "policies; exercises the value bootstrap and tournament, and is the "
            "no-change control for tree work",
            rows=12000,
            covariates=10,
            menu=dict(_LINEAR_MENU),
            ensembles=["average", "majority", "consensus"],
            b_boot=200,
            bootstrap_b=1000,
            plug_in=_RIDGE,
            corr_floors={"t-ridge": 0.95, "x-ridge": 0.95},
        ),
        Workload(
            name="large-cohort",
            why="memory and IO scale with rows: quadratic Kendall on the test "
            "split, dataset CSV parsed once per stage, two large one-shot GBT fits",
            rows=20000,
            covariates=20,
            menu=dict(_LINEAR_MENU),
            ensembles=["average"],
            b_boot=5,
            bootstrap_b=100,
            corr_floors={"t-ridge": 0.95, "x-ridge": 0.95},
        ),
        Workload(
            name="smoke",
            why="harness self-test: a few seconds through every stage and layer",
            rows=800,
            covariates=5,
            menu={
                "t-ridge": _LINEAR_MENU["t-ridge"],
                "t-gbt": {
                    "kind": "t",
                    "learner": {"kind": "gbt", "n_trees": 10, "max_depth": 2,
                                "min_samples_leaf": 10},
                },
                "s-ols": _LINEAR_MENU["s-ols"],
            },
            ensembles=["average", "majority"],
            b_boot=4,
            bootstrap_b=20,
            simulation_runs=2,
            corr_floors={"t-ridge": 0.8, "t-gbt": 0.25},
            ate_tolerance=0.6,
        ),
    )
}


def make_cohort(rows: int, covariates: int, seed: int):
    """Seeded observational cohort: confounded assignment, heterogeneous effect.

    Returns the covariates, treatment, outcome and the planted effect.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, rows, covariates]))
    X = rng.normal(size=(rows, covariates))
    logit = 0.6 * X[:, 0] - 0.4 * X[:, 1] + 0.3 * X[:, 2]
    t = (rng.random(rows) < 1.0 / (1.0 + np.exp(-logit))).astype(int)
    mu0 = X[:, 0] - 0.5 * X[:, 1] + 0.25 * X[:, 3] + 0.5 * np.sin(X[:, 4])
    tau = 0.5 + 0.8 * X[:, 2] - 0.4 * X[:, 3]  # changes sign across the cohort
    y = mu0 + t * tau + rng.normal(size=rows)
    return X, t, y, tau


def write_inputs(workload: Workload, seed: int, work_dir: str) -> dict:
    """Write cohort.csv, config.json and the truth sidecar into ``work_dir``.

    The config names the cohort and the output directory by relative path,
    so its hash does not depend on where the checkout lives.  Returns the
    file names.
    """
    X, t, y, tau = make_cohort(workload.rows, workload.covariates, seed)
    names = [f"x{j}" for j in range(workload.covariates)] + ["treat", "outcome"]
    lines = [",".join(names)]
    for i in range(workload.rows):
        cells = [repr(float(v)) for v in X[i]] + [str(int(t[i])), repr(float(y[i]))]
        lines.append(",".join(cells))
    files = {"cohort": "cohort.csv", "config": "config.json", "truth": "truth.csv",
             "output": "out"}
    with open(os.path.join(work_dir, files["cohort"]), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    # row_id is the file row order, which is how ingest numbers rows
    with open(os.path.join(work_dir, files["truth"]), "w") as fh:
        fh.write("row_id,tau\n")
        fh.writelines(f"{i},{float(v)!r}\n" for i, v in enumerate(tau))

    evaluation = {"bootstrap_b": workload.bootstrap_b, "seed": seed}
    if workload.plug_in is not None:
        evaluation["plug_in"] = workload.plug_in
    config = {
        "data": {"path": files["cohort"], "treatment": "treat", "outcome": "outcome"},
        "splits": {"seed": seed},
        "propensity": {"seed": seed},
        "cate": {"menu": workload.menu, "ensembles": workload.ensembles, "seed": seed},
        "uncertainty": {"b_boot": workload.b_boot, "seed": seed},
        "evaluation": evaluation,
        "simulation": {
            "enabled": workload.simulation_runs > 0,
            "runs": max(workload.simulation_runs, 2),  # validated even when disabled
            "seed": seed,
        },
        "identification": {"acknowledged": True},
        "output_dir": files["output"],
    }
    with open(os.path.join(work_dir, files["config"]), "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return files
