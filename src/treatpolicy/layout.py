"""The stage table, canonical artifact paths, the stage recorder and the codecs.

Stages write artifacts at these relative paths and downstream stages read
them back; keeping the names in one place is what lets a subcommand run in
isolation against an output directory produced earlier.  The CLI, the stage
dispatch and the report index all read the one stage table below.

A stage run finds its input artifacts and writes its own only through its
:class:`StageIO`: ``need`` finds an input and names the stage that produces
it when it is missing, ``out`` lists every file the stage writes, and
``warn`` stamps the stage's name on a warning.  The manifest records what
the recorder saw, so it lists exactly the files each stage wrote.

Every CSV artifact is written by :func:`write_table` from the columns a
stage hands over and read back by :func:`read_table`: one header row, floats
as ``repr`` (a reload is bit-identical), integers and booleans as decimals,
text quoted by ``csv``.  Both stream a row block at a time, so no table is
ever held as text.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

from .errors import SchemaError, StageError

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

# The stage that writes each fixed artifact, by its path.
PRODUCER = {
    rel: stage
    for stage, rels in (
        ("ingest", (IDENTIFICATION, DATASET_CSV, DATASET_META, SUMMARY)),
        ("fit-propensity", (PROPENSITY_MODEL, PROPENSITY_SCORES, OVERLAP)),
        ("simulate", (STUDY, STUDY_AGGREGATES, STUDY_SCATTER)),
        ("fit-cate", (CATE_ESTIMATES, CATE_GATE, CATE_DIAGNOSTICS)),
        ("defer", (DEFER_DECISIONS, DEFER_SUBPOP)),
        ("evaluate", (POLICY_VALUES, RECOMMENDATIONS, RANK_CURVE, OUTCOME_TREES)),
        ("report", (FIG_CATE_HIST, FIG_OVERLAP_HIST, FIG_VALUE_SCATTER, FIG_VALUE_BOX,
                    FIG_RANK_CURVE, FIG_OUTCOME_TREE, REPORT_INDEX)),
    )
    for rel in rels
}

# The header of every CSV artifact whose columns are fixed, by its path.
HEADERS = {
    PROPENSITY_SCORES: ("row_id", "split", "treatment", "score"),
    STUDY_AGGREGATES: ("policy", "n_runs", "v_ipw_mean", "v_ipw_sem", "v_dr_mean", "v_dr_sem",
                       "v_true_mean", "v_true_sem"),
    STUDY_SCATTER: ("run", "policy", "source", "n_deferred", "treated_fraction",
                    "v_ipw", "v_dr", "v_true"),
    CATE_ESTIMATES: ("model", "row_id", "tau", "lower", "upper"),
    DEFER_DECISIONS: ("model", "row_id", "deferred", "reason"),
    POLICY_VALUES: ("policy", "source", "estimator", "point", "boot_mean", "boot_std", "boot_min",
                    "boot_q25", "boot_median", "boot_q75", "boot_max", "n_deferred", "n_skipped"),
    RANK_CURVE: ("model", "q", "treated_fraction", "value"),
    RECOMMENDATIONS: ("policy", "row_id", "recommendation"),
}


def cate_model(name: str) -> str:
    return f"cate/models/{name}.json"


def wins(estimator: str) -> str:
    return f"eval/wins_{estimator}.csv"


def distributions(estimator: str) -> str:
    return f"eval/distributions_{estimator}.csv"


class StageIO:
    """One stage run's record: the artifacts it wrote and the warnings it raised."""

    def __init__(self, out_dir, stage: str):
        self.out_dir = out_dir
        self.stage = stage
        self.written: list[str] = []
        self.warnings: list[dict] = []

    def out(self, rel: str) -> str:
        """Where to write the artifact ``rel``, which is listed as written;
        creates its parent directory."""
        full = os.path.join(self.out_dir, rel)
        os.makedirs(os.path.dirname(full) or ".", exist_ok=True)
        self.written.append(rel)
        return full

    def need(self, rel: str) -> str:
        """Where to read the artifact ``rel``; a missing one names its producer."""
        full = os.path.join(self.out_dir, rel)
        if not os.path.exists(full):
            raise StageError(f"missing artifact {rel}; run the {PRODUCER[rel]!r} stage first")
        return full

    def warn(self, kind: str, message: str) -> None:
        self.warnings.append({"stage": self.stage, "kind": kind, "message": message})


def write_json(full_path, obj) -> None:
    with open(full_path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(full_path):
    with open(full_path) as fh:
        return json.load(fh)


# rows formatted per write call: bounds the text held at once
BLOCK_ROWS = 1024


def write_table(full_path, header, columns) -> None:
    """Write ``header``, then one row per index of the equal-length ``columns``.

    Columns are positional, so a header may repeat a name.  Floats are
    written as ``repr``, integers and booleans as decimals, text as-is.
    """
    cols = [np.asarray(c) for c in columns]
    cols = [c.astype(int) if c.dtype == bool else c for c in cols]
    n = len(cols[0]) if cols else 0
    if len(cols) != len(header) or any(c.shape != (n,) for c in cols):
        raise ValueError(f"{full_path}: need {len(header)} columns of one length")
    with open(full_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for start in range(0, n, BLOCK_ROWS):
            # tolist gives Python floats, ints and strs; csv writes a float as its repr
            writer.writerows(zip(*(c[start:start + BLOCK_ROWS].tolist() for c in cols)))


def read_table(full_path, header=None):
    """Yield the rows of a table written by :func:`write_table` as lists of text.

    With ``header`` given, the file's first row must equal it and only the
    data rows are yielded; without, the file's first row is yielded first.
    Every row must be as wide as the header; data rows count from 1.
    """
    with open(full_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None:
            raise SchemaError(f"{full_path}: empty file, expected a header row")
        if header is None:
            yield first
        elif first != list(header):
            raise SchemaError(f"{full_path}: header does not match {list(header)}")
        for number, row in enumerate(reader, start=1):
            if len(row) != len(first):
                raise SchemaError(
                    f"{full_path}: row {number} has {len(row)} fields, expected {len(first)}"
                )
            yield row
