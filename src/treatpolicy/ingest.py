"""Tabular ingestion: schema-checked CSV loading, imputation, splits, summaries.

Conventions
-----------
* Covariates are carried as a dense float matrix; missing numeric entries are
  NaN until imputed.
* Imputation medians derive exclusively from train-split rows and are
  applied unchanged to every other split.
* Each column that ever had a missing value gains a 0/1 indicator column named
  ``<column>__missing``.
* Splits are assigned by a seeded shuffle with largest-remainder rounding of
  the requested fractions.
"""

from __future__ import annotations

import array
import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError, SchemaError
from .layout import read_table, write_table

__all__ = [
    "ColumnInfo",
    "TableSchema",
    "Dataset",
    "SummaryTable",
    "load_table",
    "impute_and_flag",
    "assign_splits",
    "summarize",
    "save_dataset",
    "load_dataset",
]

SPLIT_NAMES = ("train", "validation", "test")

KIND_NUMERIC = "numeric"
KIND_BINARY = "binary"
KIND_INDICATOR = "missing-indicator"

MISSING_SUFFIX = "__missing"


@dataclass(frozen=True)
class ColumnInfo:
    """Name and detected kind of one covariate column."""

    name: str
    kind: str


@dataclass(frozen=True)
class TableSchema:
    """Column-role declaration for an input table.

    Every header not named here is treated as a covariate.
    """

    treatment: str
    outcome: str
    secondary_outcomes: tuple[str, ...] = ()
    ignore: tuple[str, ...] = ()

    def __post_init__(self):
        named = [self.treatment, self.outcome, *self.secondary_outcomes, *self.ignore]
        seen = set()
        for name in named:
            if name in seen:
                raise SchemaError(f"column {name!r} assigned more than one role")
            seen.add(name)


@dataclass
class Dataset:
    """One analysis table: covariate matrix plus treatment, outcome, splits.

    Rows keep their original file order through ``row_ids``.  Transformations
    return new instances; nothing mutates in place.
    """

    covariates: np.ndarray
    columns: list[ColumnInfo]
    treatment: np.ndarray
    outcome: np.ndarray
    secondary: dict[str, np.ndarray] = field(default_factory=dict)
    split: np.ndarray | None = None
    row_ids: np.ndarray | None = None

    def __post_init__(self):
        self.covariates = np.asarray(self.covariates, dtype=float)
        if self.covariates.ndim != 2:
            raise DataError("covariates must be a 2-D matrix")
        n, d = self.covariates.shape
        if len(self.columns) != d:
            raise DataError(
                f"{len(self.columns)} column descriptors for {d} covariate columns"
            )
        self.treatment = np.asarray(self.treatment)
        self.outcome = np.asarray(self.outcome, dtype=float)
        if self.treatment.shape != (n,) or self.outcome.shape != (n,):
            raise DataError("treatment/outcome length does not match covariates")
        if self.row_ids is None:
            self.row_ids = np.arange(n)

    @property
    def n(self) -> int:
        return self.covariates.shape[0]

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def subset(self, mask_or_index) -> "Dataset":
        idx = np.asarray(mask_or_index)
        return Dataset(
            covariates=self.covariates[idx].copy(),
            columns=list(self.columns),
            treatment=self.treatment[idx].copy(),
            outcome=self.outcome[idx].copy(),
            secondary={k: v[idx].copy() for k, v in self.secondary.items()},
            split=None if self.split is None else self.split[idx].copy(),
            row_ids=self.row_ids[idx].copy(),
        )

    def rows_in(self, split_name: str) -> "Dataset":
        if self.split is None:
            raise DataError("dataset has no split assignment")
        return self.subset(self.split == split_name)


def _parse_cell(text: str) -> float:
    text = text.strip()
    if text == "" or text.lower() in ("na", "nan", "null", "none"):
        return math.nan
    try:
        return float(text)
    except ValueError:
        return math.nan


def load_table(path, schema: TableSchema, delimiter: str = ",") -> Dataset:
    """Read a headered CSV into a Dataset per the schema's column roles.

    Unparseable numeric cells become missing (NaN).  Treatment must be an
    exact 0/1 and the primary outcome must parse on every row; violations
    raise SchemaError naming the offending row and column.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            dupes = sorted({h for h in header if header.count(h) > 1})
            raise SchemaError(f"{path}: duplicate header column(s) {dupes}")
        for role, name in (("treatment", schema.treatment), ("outcome", schema.outcome)):
            if name not in header:
                raise SchemaError(f"{path}: {role} column {name!r} not in header")
        for name in (*schema.secondary_outcomes, *schema.ignore):
            if name not in header:
                raise SchemaError(f"{path}: declared column {name!r} not in header")

        special = {schema.treatment, schema.outcome, *schema.secondary_outcomes, *schema.ignore}
        cov_names = [h for h in header if h not in special]
        col_of = {h: i for i, h in enumerate(header)}

        treatment: list[int] = []
        outcome: list[float] = []
        secondary: dict[str, list[float]] = {k: [] for k in schema.secondary_outcomes}
        rows: list[list[float]] = []

        for rownum, record in enumerate(reader, start=2):
            if len(record) != len(header):
                raise SchemaError(
                    f"{path}: row {rownum} has {len(record)} fields, expected {len(header)}"
                )
            t_raw = record[col_of[schema.treatment]].strip()
            t_val = _parse_cell(t_raw)
            if math.isnan(t_val) or t_val not in (0.0, 1.0):
                raise SchemaError(
                    f"{path}: row {rownum}: treatment column "
                    f"{schema.treatment!r} must be 0 or 1, got {t_raw!r}"
                )
            y_val = _parse_cell(record[col_of[schema.outcome]])
            if math.isnan(y_val):
                raise SchemaError(
                    f"{path}: row {rownum}: outcome column {schema.outcome!r} is missing"
                )
            treatment.append(int(t_val))
            outcome.append(y_val)
            for k in schema.secondary_outcomes:
                secondary[k].append(_parse_cell(record[col_of[k]]))
            rows.append([_parse_cell(record[col_of[c]]) for c in cov_names])

    if not rows:
        raise SchemaError(f"{path}: no data rows")

    covariates = np.asarray(rows, dtype=float)
    columns = [ColumnInfo(name, _detect_kind(covariates[:, j])) for j, name in enumerate(cov_names)]
    return Dataset(
        covariates=covariates,
        columns=columns,
        treatment=np.asarray(treatment, dtype=np.int8),
        outcome=np.asarray(outcome, dtype=float),
        secondary={k: np.asarray(v, dtype=float) for k, v in secondary.items()},
    )


def _detect_kind(values: np.ndarray) -> str:
    present = values[~np.isnan(values)]
    if present.size and np.all(np.isin(present, (0.0, 1.0))):
        return KIND_BINARY
    return KIND_NUMERIC


def impute_and_flag(data: Dataset) -> tuple[Dataset, tuple[str, ...]]:
    """Median-impute missing covariates and append missing indicators.

    Medians come from the train split (all rows when the dataset is
    unsplit); every column with a missing value anywhere in the data is
    flagged and gains an indicator.  Returns the new dataset and the flagged
    column names.  Applying the function twice is a no-op.
    """
    base_idx = [i for i, c in enumerate(data.columns) if c.kind != KIND_INDICATOR]
    existing = set(data.column_names)

    if data.split is not None:
        train_mask = data.split == "train"
        if not train_mask.any():
            raise DataError("no train rows to derive imputation statistics from")
    else:
        train_mask = np.ones(data.n, dtype=bool)
    medians: dict[str, float] = {}
    for i in base_idx:
        name = data.columns[i].name
        col = data.covariates[train_mask, i]
        present = col[~np.isnan(col)]
        if present.size == 0:
            raise DataError(f"column {name!r} entirely missing on the train split")
        medians[name] = float(np.median(present))
    flagged = tuple(
        data.columns[i].name
        for i in base_idx
        if np.isnan(data.covariates[:, i]).any()
    )

    new_cols = list(data.columns)
    blocks = [data.covariates.copy()]
    for i in base_idx:
        name = data.columns[i].name
        miss = np.isnan(blocks[0][:, i])
        if miss.any():
            blocks[0][miss, i] = medians[name]
        if name in flagged and name + MISSING_SUFFIX not in existing:
            blocks.append(miss.astype(float)[:, None])
            new_cols.append(ColumnInfo(name + MISSING_SUFFIX, KIND_INDICATOR))

    covariates = np.hstack(blocks) if len(blocks) > 1 else blocks[0]
    out = Dataset(
        covariates=covariates,
        columns=new_cols,
        treatment=data.treatment.copy(),
        outcome=data.outcome.copy(),
        secondary={k: v.copy() for k, v in data.secondary.items()},
        split=None if data.split is None else data.split.copy(),
        row_ids=data.row_ids.copy(),
    )
    return out, flagged


def _largest_remainder_counts(n: int, fractions) -> list[int]:
    raw = [f * n for f in fractions]
    counts = [int(math.floor(r)) for r in raw]
    short = n - sum(counts)
    order = sorted(range(len(raw)), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in order[:short]:
        counts[i] += 1
    return counts


def assign_splits(data: Dataset, fractions, seed: int) -> Dataset:
    """Assign train/validation/test labels by seeded shuffle.

    Fractions must sum to 1; sizes follow largest-remainder rounding, so they
    are within one row of ``fraction * n`` each.  Any empty split is an error.
    """
    fractions = [float(f) for f in fractions]
    if len(fractions) != len(SPLIT_NAMES):
        raise ValueError(f"expected {len(SPLIT_NAMES)} fractions, got {len(fractions)}")
    if any(f < 0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must be non-negative and sum to 1, got {fractions}")

    counts = _largest_remainder_counts(data.n, fractions)
    if any(c == 0 for c in counts):
        empty = [SPLIT_NAMES[i] for i, c in enumerate(counts) if c == 0]
        raise DataError(f"split(s) {empty} would be empty for n={data.n}")

    perm = np.random.default_rng(seed).permutation(data.n)
    labels = np.empty(data.n, dtype="<U10")
    start = 0
    for name, count in zip(SPLIT_NAMES, counts):
        labels[perm[start : start + count]] = name
        start += count
    return replace(data, split=labels)


@dataclass
class SummaryTable:
    """Per-column descriptive statistics, overall and by group.

    Numeric columns report "mean (SD)", binary columns "n (%)"; the missing
    column counts NaNs in the summarized data.
    """

    group_names: tuple[str, ...]
    rows: list[dict]

    @property
    def header(self) -> list[str]:
        return ["column", "statistic", "missing", "overall", *self.group_names]

    def columns(self) -> list[list]:
        """One list per ``header`` name, in row order."""
        return [[r[k] for r in self.rows] for k in self.header[:4]] + [
            [r["groups"][g] for r in self.rows] for g in self.group_names
        ]

    def to_csv_rows(self) -> list[list[str]]:
        return [self.header, *([str(cell) for cell in row] for row in zip(*self.columns()))]


def _format_stat(values: np.ndarray, kind: str) -> str:
    present = values[~np.isnan(values)]
    if present.size == 0:
        return ""
    if kind == KIND_NUMERIC:
        sd = float(np.std(present, ddof=1)) if present.size > 1 else 0.0
        return f"{float(np.mean(present)):.2f} ({sd:.2f})"
    n_pos = int(np.sum(present == 1.0))
    return f"{n_pos} ({100.0 * n_pos / present.size:.1f}%)"


def summarize(
    data: Dataset,
    group_by: np.ndarray | None = None,
    group_names: tuple[str, str] = ("group0", "group1"),
) -> SummaryTable:
    """Descriptive table over covariates, treatment and outcome with optional
    two-group breakdown.

    ``group_by`` is a boolean row mask; False rows go under ``group_names[0]``.
    """
    if group_by is not None:
        group_by = np.asarray(group_by, dtype=bool)
        if group_by.shape != (data.n,):
            raise DataError("group_by length does not match dataset")
        masks = [~group_by, group_by]
        names = tuple(group_names)
    else:
        masks = []
        names = ()

    entries: list[tuple[str, str, np.ndarray]] = [
        (c.name, KIND_BINARY if c.kind == KIND_INDICATOR else c.kind, data.covariates[:, j])
        for j, c in enumerate(data.columns)
    ]
    entries.append(("treatment", KIND_BINARY, data.treatment.astype(float)))
    entries.append(("outcome", KIND_NUMERIC, data.outcome))

    rows = []
    for name, kind, values in entries:
        rows.append(
            {
                "column": name,
                "statistic": "mean (SD)" if kind == KIND_NUMERIC else "n (%)",
                "missing": int(np.isnan(values).sum()),
                "overall": _format_stat(values, kind),
                "groups": {g: _format_stat(values[m], kind) for g, m in zip(names, masks)},
            }
        )
    return SummaryTable(group_names=names, rows=rows)


def save_dataset(data: Dataset, csv_path) -> dict:
    """Write the dataset to CSV and return a metadata dict describing it.

    Floats are written with full round-trip precision so a reload is
    bit-identical.
    """
    sec_names = sorted(data.secondary)
    header = ["row_id", "split", "treatment", "outcome", *sec_names, *data.column_names]
    split = [""] * data.n if data.split is None else data.split
    write_table(csv_path, header, [data.row_ids, split, data.treatment.astype(int), data.outcome,
                                   *(data.secondary[k] for k in sec_names), *data.covariates.T])
    return {
        "columns": [{"name": c.name, "kind": c.kind} for c in data.columns],
        "secondary_outcomes": sec_names,
        "n_rows": data.n,
    }


def load_dataset(csv_path, description: dict) -> Dataset:
    """Reload a dataset written by :func:`save_dataset`."""
    columns = [ColumnInfo(c["name"], c["kind"]) for c in description["columns"]]
    sec_names = list(description["secondary_outcomes"])
    header = ["row_id", "split", "treatment", "outcome", *sec_names, *(c.name for c in columns)]
    row_ids, splits, treatment = [], [], []
    # a flat buffer of doubles, not one live Python float per cell
    cells = array.array("d")
    for record in read_table(csv_path, header):
        row_ids.append(int(record[0]))
        splits.append(record[1])
        treatment.append(int(record[2]))
        cells.extend(map(float, record[3:]))
    # outcome, secondary outcomes, covariates: one row per record
    table = np.frombuffer(cells).reshape(len(row_ids), len(header) - 3)
    return Dataset(
        covariates=np.ascontiguousarray(table[:, 1 + len(sec_names):]),
        columns=columns,
        treatment=np.asarray(treatment, dtype=np.int8),
        outcome=table[:, 0].copy(),
        secondary={k: table[:, 1 + j].copy() for j, k in enumerate(sec_names)},
        split=None if all(s == "" for s in splits) else np.asarray(splits, dtype="<U10"),
        row_ids=np.asarray(row_ids, dtype=int),
    )
