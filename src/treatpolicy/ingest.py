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
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, SchemaError, StageError
from .layout import parse_columns, read_json

__all__ = [
    "ColumnInfo",
    "TableSchema",
    "Dataset",
    "load_table",
    "impute_and_flag",
    "assign_splits",
    "summarize",
    "save_dataset",
    "load_description",
    "load_dataset",
]

SPLIT_NAMES = ("train", "validation", "test")
# the share of rows in each split, in SPLIT_NAMES order, when the config gives none
DEFAULT_FRACTIONS = (0.6, 0.15, 0.25)

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

    Every header not named here is treated as a covariate; ``ignore`` lists
    the columns left out of the table (the config's secondary outcomes and
    ignored columns).
    """

    treatment: str
    outcome: str
    ignore: tuple[str, ...] = ()

    def __post_init__(self):
        named = [self.treatment, self.outcome, *self.ignore]
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
        # fancy indexing copies, so the subset shares no array with this dataset
        return Dataset(
            covariates=self.covariates[idx],
            columns=list(self.columns),
            treatment=self.treatment[idx],
            outcome=self.outcome[idx],
            split=None if self.split is None else self.split[idx],
            row_ids=self.row_ids[idx],
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

    Every header is a covariate except the treatment, the outcome and the
    other columns the schema names, which must be in the header and are left
    out of the table unparsed.  A covariate whose name ends in ``__missing``
    (``MISSING_SUFFIX``, the names of the indicators that ``impute_and_flag``
    adds) raises SchemaError.  The file is read as UTF-8, after a byte-order
    mark if there is one.  Unparseable numeric cells become missing (NaN).
    Treatment must be an exact 0/1 and the outcome must parse on every row;
    violations raise SchemaError naming the offending row and column.
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
        for name in schema.ignore:
            if name not in header:
                raise SchemaError(f"{path}: declared column {name!r} not in header")

        special = {schema.treatment, schema.outcome, *schema.ignore}
        cov_names = [h for h in header if h not in special]
        for name in cov_names:
            if name.endswith(MISSING_SUFFIX):
                raise SchemaError(
                    f"{path}: covariate column {name!r} ends in {MISSING_SUFFIX!r}, "
                    "which names the missing indicators that ingest adds"
                )
        col_of = {h: i for i, h in enumerate(header)}
        t_col, y_col = col_of[schema.treatment], col_of[schema.outcome]
        cov_cols = [col_of[k] for k in cov_names]

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
            return [t_val, y_val, *map(_parse_cell, map(record.__getitem__, cov_cols))]

        def valid(columns):
            # the checks parse_row makes, on a block parsed in bulk
            return bool(np.isin(columns[0], (0.0, 1.0)).all() and not np.isnan(columns[1]).any())

        (treatment, outcome, *values), _ = parse_columns(
            fh, path, len(header), [t_col, y_col, *cov_cols], row=parse_row, valid=valid,
            missing=_MISSING_CELLS, delimiter=delimiter, first_row=2,
        )

    if not len(treatment):
        raise SchemaError(f"{path}: no data rows")

    covariates = np.stack(values, axis=1) if cov_names else np.empty((len(treatment), 0))
    columns = [ColumnInfo(name, _detect_kind(covariates[:, j])) for j, name in enumerate(cov_names)]
    return Dataset(
        covariates=covariates,
        columns=columns,
        treatment=treatment.astype(np.int8),
        outcome=outcome,
    )


def _detect_kind(values: np.ndarray) -> str:
    present = values[~np.isnan(values)]
    if present.size and np.all(np.isin(present, (0.0, 1.0))):
        return KIND_BINARY
    return KIND_NUMERIC


def impute_and_flag(data: Dataset) -> tuple[Dataset, tuple[str, ...]]:
    """Median-impute missing covariates and append missing indicators.

    Medians come from the train split; every column with a missing value
    anywhere in the data is flagged and gains an indicator.  Returns the new
    dataset and the flagged column names.  Applying the function twice is a
    no-op.  A dataset without a split, or without train rows, raises
    DataError.
    """
    if data.split is None:
        raise DataError("dataset has no split assignment to derive imputation statistics from")
    train_mask = data.split == "train"
    if not train_mask.any():
        raise DataError("no train rows to derive imputation statistics from")
    medians: dict[str, float] = {}
    for i, column in enumerate(data.columns):
        col = data.covariates[train_mask, i]
        present = col[~np.isnan(col)]
        if present.size == 0:
            raise DataError(f"column {column.name!r} entirely missing on the train split")
        medians[column.name] = float(np.median(present))

    new_cols = list(data.columns)
    blocks = [data.covariates.copy()]
    flagged = []
    for i, column in enumerate(data.columns):
        miss = np.isnan(blocks[0][:, i])
        if miss.any():
            blocks[0][miss, i] = medians[column.name]
            blocks.append(miss.astype(float)[:, None])
            new_cols.append(ColumnInfo(column.name + MISSING_SUFFIX, KIND_INDICATOR))
            flagged.append(column.name)

    covariates = np.hstack(blocks) if len(blocks) > 1 else blocks[0]
    return replace(data, covariates=covariates, columns=new_cols), tuple(flagged)


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


def _format_stat(values: np.ndarray, kind: str) -> str:
    present = values[~np.isnan(values)]
    if present.size == 0:
        return ""
    if kind == KIND_NUMERIC:
        sd = float(np.std(present, ddof=1)) if present.size > 1 else 0.0
        return f"{float(np.mean(present)):.2f} ({sd:.2f})"
    n_pos = int(np.sum(present == 1.0))
    return f"{n_pos} ({100.0 * n_pos / present.size:.1f}%)"


def summarize(data: Dataset, group_by: np.ndarray, group_names: tuple[str, str]
              ) -> tuple[list[str], list[list]]:
    """Descriptive table over covariates, treatment and outcome, overall and
    in two groups: ``(header, rows)``, the table that ``data/summary.csv``
    holds by treatment arm and the deferral profile's ``table`` holds by
    defer flag.

    ``header`` is ``column``, ``statistic``, ``missing``, ``overall`` and the
    two ``group_names``; each row holds those cells in that order.  Numeric
    columns report "mean (SD)", binary columns "n (%)"; ``missing`` counts
    the NaNs of the column.  ``group_by`` is a boolean row mask; False rows
    go under ``group_names[0]``.
    """
    group_by = np.asarray(group_by, dtype=bool)
    if group_by.shape != (data.n,):
        raise DataError("group_by length does not match dataset")
    masks = [~group_by, group_by]

    entries: list[tuple[str, str, np.ndarray]] = [
        (c.name, KIND_BINARY if c.kind == KIND_INDICATOR else c.kind, data.covariates[:, j])
        for j, c in enumerate(data.columns)
    ]
    entries.append(("treatment", KIND_BINARY, data.treatment.astype(float)))
    entries.append(("outcome", KIND_NUMERIC, data.outcome))

    rows = [
        [
            name,
            "mean (SD)" if kind == KIND_NUMERIC else "n (%)",
            int(np.isnan(values).sum()),
            _format_stat(values, kind),
            *(_format_stat(values[m], kind) for m in masks),
        ]
        for name, kind, values in entries
    ]
    return ["column", "statistic", "missing", "overall", *group_names], rows


def save_dataset(data: Dataset, csv_path) -> dict:
    """Write the split dataset to ``csv_path`` as one ``.npy`` matrix; returns
    the description that ``data/dataset.json`` holds next to it: ``columns``
    (each covariate's name and kind) and ``n_rows``.

    The matrix is C-order float64 with one row per data row.  Its columns are
    ``row_id``, the split code (the label's index in ``SPLIT_NAMES``),
    ``treatment``, ``outcome``, then the covariates.  float64 holds every
    value exactly (a ``row_id`` up to 2**53), so a reload is bit-identical,
    and the ``.npy`` header holds only dtype, order and shape, so two writes
    of one dataset give the same bytes.  A dataset without a split, or with
    a split label that is not a split name (named with its row, counted from
    1), raises DataError.

    The path parameter keeps the name ``csv_path`` that it had when the file
    was a CSV table: the benchmark's tracer reads the written file's size
    through that name.
    """
    if data.split is None:
        raise DataError("dataset has no split assignment to save")
    codes = np.full(data.n, len(SPLIT_NAMES))
    for code, name in enumerate(SPLIT_NAMES):
        codes[data.split == name] = code
    bad = np.flatnonzero(codes == len(SPLIT_NAMES))
    if bad.size:
        raise DataError(f"row {bad[0] + 1} has split label {str(data.split[bad[0]])!r}; "
                        f"expected one of {list(SPLIT_NAMES)}")
    matrix = np.column_stack([data.row_ids, codes, data.treatment, data.outcome, data.covariates])
    with open(csv_path, "wb") as fh:
        np.save(fh, matrix)
    return {"columns": [{"name": c.name, "kind": c.kind} for c in data.columns], "n_rows": data.n}


def load_description(path) -> dict:
    """Read the description that :func:`save_dataset` returned from the JSON
    file at ``path``.  One that is not valid JSON, whose keys are not
    ``columns`` and ``n_rows``, or that holds one of them with the wrong type
    (a column entry without a text ``name`` and ``kind``) raises StageError
    naming the file and asking for ingest to be rerun.
    """

    def refuse(what):
        return StageError(f"{path}: {what}; rerun the 'ingest' stage")

    checks = {
        "columns": ("a list of entries with a text 'name' and 'kind'",
                    lambda v: isinstance(v, list) and all(
                        isinstance(c, dict) and isinstance(c.get("name"), str)
                        and isinstance(c.get("kind"), str) for c in v)),
        "n_rows": ("a row count", lambda v: type(v) is int and v >= 0),
    }
    try:
        description = read_json(path)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise refuse(f"not valid JSON ({exc})") from exc
    if not isinstance(description, dict):
        raise refuse("not a JSON object")
    for key, (what, ok) in checks.items():
        if key not in description:
            raise refuse(f"no {key!r}")
        if not ok(description[key]):
            raise refuse(f"{key!r} is not {what}")
    extra = sorted(set(description) - set(checks))
    if extra:
        raise refuse(f"unexpected key(s) {extra}")
    return description


def load_dataset(csv_path, description: dict) -> Dataset:
    """Reload the dataset that :func:`save_dataset` wrote to ``csv_path``
    with ``description``.

    A file that is not such a matrix raises StageError naming it and asking
    for ingest to be rerun: one that does not load as a float64 array, whose
    shape is not the description's ``n_rows`` by 4 plus its covariate
    columns, or whose ``row_id`` is not an integer, whose split code is not a
    split index (0-2) or whose treatment is not 0 or 1 on some row.
    """
    width = 4 + len(description["columns"])

    def refuse(what):
        return StageError(f"{csv_path}: {what}; rerun the 'ingest' stage")

    try:
        with open(csv_path, "rb") as fh:
            matrix = np.load(fh, allow_pickle=False)
    except (OSError, ValueError, EOFError) as exc:
        raise refuse(f"not a readable .npy matrix ({exc})") from exc
    if not isinstance(matrix, np.ndarray) or matrix.dtype != np.float64:
        raise refuse("not a float64 matrix")
    if matrix.shape != (description["n_rows"], width):
        raise refuse(f"a matrix of shape {matrix.shape}, but its description has "
                     f"{description['n_rows']} rows of {width} columns")
    row_ids, codes, treatment = matrix[:, 0], matrix[:, 1], matrix[:, 2]
    for name, column, bad in (
        ("row_id", row_ids, ~((np.abs(row_ids) <= 2.0**53) & (row_ids == np.trunc(row_ids)))),
        ("split code", codes, ~np.isin(codes, np.arange(len(SPLIT_NAMES)))),
        ("treatment", treatment, ~np.isin(treatment, (0.0, 1.0))),
    ):
        if bad.any():
            row = np.flatnonzero(bad)[0]
            raise refuse(f"row {row + 1} has {name} {float(column[row])!r}")
    return Dataset(
        covariates=np.ascontiguousarray(matrix[:, 4:]),
        columns=[ColumnInfo(c["name"], c["kind"]) for c in description["columns"]],
        treatment=treatment.astype(np.int8),
        outcome=np.ascontiguousarray(matrix[:, 3]),
        split=np.array(SPLIT_NAMES, dtype="<U10")[codes.astype(np.intp)],
        row_ids=row_ids.astype(int),
    )
