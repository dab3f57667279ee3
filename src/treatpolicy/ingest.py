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

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError, SchemaError
from .layout import parse_columns, read_columns, write_table

__all__ = [
    "ColumnInfo",
    "TableSchema",
    "Dataset",
    "SummaryTable",
    "load_table",
    "impute_and_flag",
    "assign_splits",
    "summarize",
    "DatasetDescription",
    "save_dataset",
    "load_dataset",
    "saved_dataset",
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


# cells that read as missing, as files commonly spell them; the bulk parse
# reads these as NaN without parsing their block row by row
_MISSING_CELLS = frozenset(
    ("", ".", "?", "NA", "N/A", "na", "n/a", "NaN", "nan", "NULL", "Null", "null", "None", "none")
)


def _parse_cell(text: str) -> float:
    """The number in ``text``, which may be padded with whitespace (what
    ``str.strip`` takes off, as the bulk parse does); NaN for a cell that
    holds none: empty, NA, null, none or any other text."""
    try:
        return float(text.strip())
    except ValueError:
        return math.nan


def load_table(path, schema: TableSchema, delimiter: str = ",") -> Dataset:
    """Read a headered CSV into a Dataset per the schema's column roles.

    The file is read as UTF-8, after a byte-order mark if there is one.
    Unparseable numeric cells become missing (NaN).  Treatment must be an
    exact 0/1 and the primary outcome must parse on every row; violations
    raise SchemaError naming the offending row and column.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header = next(csv.reader(fh, delimiter=delimiter), None)
        if header is None:
            raise SchemaError(f"{path}: empty file")
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
        t_col, y_col = col_of[schema.treatment], col_of[schema.outcome]
        rest = [col_of[k] for k in (*schema.secondary_outcomes, *cov_names)]

        def parse_row(record, rownum):
            t_raw = record[t_col].strip()
            t_val = _parse_cell(t_raw)
            if math.isnan(t_val) or t_val not in (0.0, 1.0):
                raise SchemaError(
                    f"{path}: row {rownum}: treatment column "
                    f"{schema.treatment!r} must be 0 or 1, got {t_raw!r}"
                )
            y_val = _parse_cell(record[y_col])
            if math.isnan(y_val):
                raise SchemaError(
                    f"{path}: row {rownum}: outcome column {schema.outcome!r} is missing"
                )
            return [t_val, y_val, *map(_parse_cell, map(record.__getitem__, rest))]

        def valid(columns):
            # the checks parse_row makes, on a block parsed in bulk
            return bool(np.isin(columns[0], (0.0, 1.0)).all() and not np.isnan(columns[1]).any())

        (treatment, outcome, *values), _ = parse_columns(
            fh, path, len(header), [t_col, y_col, *rest], row=parse_row, valid=valid,
            missing=_MISSING_CELLS, delimiter=delimiter, first_row=2,
        )

    if not len(treatment):
        raise SchemaError(f"{path}: no data rows")

    n_sec = len(schema.secondary_outcomes)
    covariates = _matrix(values[n_sec:], len(treatment))
    columns = [ColumnInfo(name, _detect_kind(covariates[:, j])) for j, name in enumerate(cov_names)]
    return Dataset(
        covariates=covariates,
        columns=columns,
        treatment=treatment.astype(np.int8),
        outcome=outcome,
        secondary=dict(zip(schema.secondary_outcomes, values[:n_sec])),
    )


def _matrix(columns, n: int) -> np.ndarray:
    """The ``n``-row float columns side by side, as a C-ordered matrix."""
    return np.stack(columns, axis=1) if columns else np.empty((n, 0))


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


class DatasetDescription(dict):
    """The description of a saved dataset, as ``data/dataset.json`` holds it.

    ``sha256`` is the digest of the CSV file :func:`save_dataset` wrote; it
    is an attribute, not a key, so the description serialises without it.
    """

    sha256: str


def save_dataset(data: Dataset, csv_path) -> DatasetDescription:
    """Write the dataset to CSV and return a metadata dict describing it.

    Floats are written with full round-trip precision so a reload is
    bit-identical.
    """
    sec_names = sorted(data.secondary)
    header = ["row_id", "split", "treatment", "outcome", *sec_names, *data.column_names]
    split = [""] * data.n if data.split is None else data.split
    description = DatasetDescription(
        columns=[{"name": c.name, "kind": c.kind} for c in data.columns],
        secondary_outcomes=sec_names,
        n_rows=data.n,
    )
    description.sha256 = write_table(
        csv_path, header, [data.row_ids, split, data.treatment.astype(int), data.outcome,
                           *(data.secondary[k] for k in sec_names), *data.covariates.T])
    return description


def load_dataset(csv_path, description: dict) -> Dataset:
    """Reload a dataset written by :func:`save_dataset`.

    A split label that is not a split name, or an empty one among labels,
    raises SchemaError naming its data row.
    """
    sec_names = list(description["secondary_outcomes"])
    header = ["row_id", "split", "treatment", "outcome", *sec_names,
              *(c["name"] for c in description["columns"])]
    (row_ids, treatment, outcome, *values), (splits,) = read_columns(
        csv_path, header, [0, 2, *range(3, len(header))], ints=(0, 2), text=(1,)
    )
    return _stored_dataset(
        description, row_ids, splits, treatment, outcome, values[:len(sec_names)],
        _matrix(values[len(sec_names):], len(row_ids)), source=csv_path,
    )


def saved_dataset(data: Dataset, description: dict) -> Dataset:
    """``data`` as :func:`load_dataset` reloads it from the file that
    :func:`save_dataset` wrote with ``description``, built without the parse."""
    return _stored_dataset(
        description, data.row_ids, [""] * data.n if data.split is None else data.split,
        data.treatment, data.outcome,
        [data.secondary[k] for k in description["secondary_outcomes"]], data.covariates,
    )


def _stored_dataset(
    description: dict, row_ids, splits, treatment, outcome, secondary, covariates, source="dataset"
) -> Dataset:
    """The Dataset that a saved dataset's columns and ``description`` stand for.

    Fixes the dtypes, makes every float array contiguous (copying only a
    strided one) and reads an all-empty split column as no split.  Any other
    split label that is not a split name raises SchemaError naming the data
    row of ``source``, counted from 1, and the label.
    """
    splits = np.asarray(splits, dtype=str)  # uncut, so a long label is checked whole
    no_split = bool((splits == "").all())
    if not no_split:
        bad = np.flatnonzero(~np.isin(splits, SPLIT_NAMES))
        if bad.size:
            raise SchemaError(
                f"{source}: row {bad[0] + 1} has split label {str(splits[bad[0]])!r}; "
                f"expected one of {list(SPLIT_NAMES)}, or no label on any row"
            )
    return Dataset(
        covariates=np.ascontiguousarray(covariates, dtype=float),
        columns=[ColumnInfo(c["name"], c["kind"]) for c in description["columns"]],
        treatment=np.asarray(treatment, dtype=np.int8),
        outcome=np.ascontiguousarray(outcome, dtype=float),
        secondary={k: np.ascontiguousarray(v, dtype=float)
                   for k, v in zip(description["secondary_outcomes"], secondary)},
        split=None if no_split else splits.astype("<U10", copy=False),
        row_ids=np.asarray(row_ids, dtype=int),
    )
