"""The stage table, canonical artifact paths, and artifact read/write helpers.

Stages write artifacts at these relative paths and downstream stages read
them back; keeping the names in one place is what lets a subcommand run in
isolation against an output directory produced earlier.  The CLI, the stage
dispatch and the report index all read the one stage table below.
"""

from __future__ import annotations

import csv
import json
import os

# Every stage in run order, with the description the CLI help and the report
# index show.
STAGES = (
    ("ingest", "parse the input table, impute (median + indicator), split train/val/test"),
    ("fit-propensity", "fit the treatment scorer, calibrate it and pick the overlap bounds"),
    ("simulate", "stress-test the model menu on semi-synthetic outcomes"),
    ("fit-cate", "fit the effect-model menu behind the held-out error gate"),
    ("defer", "decide which rows get no recommendation, and why"),
    ("evaluate", "value every policy on held-out rows (IPW/DR, bootstrap, rank curve, trees)"),
    ("report", "render the SVG figures and the markdown index from existing artifacts"),
)
STAGE_ORDER = tuple(name for name, _ in STAGES)

MANIFEST = "manifest.json"
IDENTIFICATION = "identification.md"

DATASET_CSV = "data/dataset.csv"
DATASET_META = "data/dataset.json"
SUMMARY = "data/summary.csv"

PROPENSITY_MODEL = "propensity/model.json"
PROPENSITY_SCORES = "propensity/scores.csv"
OVERLAP = "propensity/overlap.json"

STUDY = "study/study.json"
STUDY_AGGREGATES = "study/aggregates.csv"
STUDY_SCATTER = "study/scatter.csv"

CATE_ESTIMATES = "cate/estimates.csv"
CATE_GATE = "cate/gate.json"
CATE_DIAGNOSTICS = "cate/diagnostics.json"

DEFER_DECISIONS = "defer/decisions.csv"
DEFER_SUBPOP = "defer/subpop.json"

POLICY_VALUES = "eval/policy_values.csv"
RECOMMENDATIONS = "eval/recommendations.csv"
RANK_CURVE = "eval/rank_curve.csv"
OUTCOME_TREES = "eval/outcome_trees.json"

FIG_CATE_HIST = "report/fig_cate_hist.svg"
FIG_OVERLAP_HIST = "report/fig_overlap_hist.svg"
FIG_VALUE_SCATTER = "report/fig_value_scatter.svg"
FIG_VALUE_BOX = "report/fig_value_box.svg"
FIG_RANK_CURVE = "report/fig_rank_curve.svg"
FIG_OUTCOME_TREE = "report/fig_outcome_tree.svg"
REPORT_INDEX = "report/index.md"


def cate_model(name: str) -> str:
    return f"cate/models/{name}.json"


def wins(estimator: str) -> str:
    return f"eval/wins_{estimator}.csv"


def distributions(estimator: str) -> str:
    return f"eval/distributions_{estimator}.csv"


def path(out_dir, rel: str) -> str:
    """Absolute location of an artifact, creating its parent directory."""
    full = os.path.join(out_dir, rel)
    os.makedirs(os.path.dirname(full) or ".", exist_ok=True)
    return full


def fmt_float(x) -> str:
    """Round-trip text for a float: artifacts reload bit-identical."""
    return repr(float(x))


def write_json(full_path, obj) -> None:
    with open(full_path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(full_path):
    with open(full_path) as fh:
        return json.load(fh)


def write_csv(full_path, rows) -> None:
    with open(full_path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def read_csv(full_path) -> list[list[str]]:
    with open(full_path, newline="") as fh:
        return list(csv.reader(fh))
