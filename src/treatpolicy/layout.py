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
stage hands over: one header row, floats as ``repr`` (a reload is
bit-identical), integers and booleans as decimals, text quoted as ``csv``
quotes it, UTF-8 with ``\r\n`` line ends.  It formats a block of rows a
column at a time and returns the sha256 of the bytes it wrote.
:func:`read_columns` reads named columns back as arrays, and
:func:`read_by_model` reads a per-model artifact, whose first column names
the model, back as each model's arrays.  They, and the input
table's reader, parse a block of rows in bulk with ``np.loadtxt``, where a
cell spelled as the caller's missing value reads as NaN; a block that does
not parse in bulk, or that fails the caller's check, is parsed again one row
at a time by the caller's cell rules, so an error names the same row and
text as a row-by-row parse.  :func:`read_header` reads a table's first row.
The readers hold one block of text at a time, so no table is ever held as
text.  Every table is written and read in this process.

The analysis table itself is not a CSV artifact: ingest writes it as one
``.npy`` matrix (``DATASET``) that ``ingest.load_dataset`` reads back.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import os
import warnings

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

DATASET = "data/dataset.npy"
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
        ("ingest", (IDENTIFICATION, DATASET, DATASET_META, SUMMARY)),
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


def _finite(obj):
    """``obj`` with every non-finite float, which JSON cannot spell, as None."""
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def write_json(full_path, obj) -> None:
    """Write ``obj`` as JSON with sorted keys; NaN and infinities become ``null``."""
    with open(full_path, "w") as fh:
        json.dump(_finite(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def read_json(full_path):
    with open(full_path) as fh:
        return json.load(fh)


# rows formatted or parsed per step: bounds the text held at once
BLOCK_ROWS = 1024

# a field holding one of these is quoted by csv's QUOTE_MINIMAL rule
_QUOTED = (",", '"', "\r", "\n")


def write_table(full_path, header, columns) -> str:
    """Write ``header``, then one row per index of the equal-length ``columns``;
    returns the sha256 of the bytes written.

    Columns are positional, so a header may repeat a name.  Floats are
    written as ``repr``, integers and booleans as decimals, text as-is,
    quoted as ``csv.writer`` quotes it.
    """
    cols = [np.asarray(c) for c in columns]
    cols = [c.astype(int) if c.dtype == bool else c for c in cols]
    n = len(cols[0]) if cols else 0
    if len(cols) != len(header) or any(c.shape != (n,) for c in cols):
        raise ValueError(f"{full_path}: need {len(header)} columns of one length")

    def block_bytes(start):
        block = [c[start:start + BLOCK_ROWS] for c in cols]
        text = _block_text(block)
        # tolist gives Python floats, ints and strs; csv writes a float as its repr
        return (_csv_text(zip(*(c.tolist() for c in block))) if text is None else text).encode()

    digest = hashlib.sha256()
    with open(full_path, "wb") as fh:
        for data in itertools.chain([_csv_text([header]).encode()],
                                    map(block_bytes, range(0, n, BLOCK_ROWS))):
            digest.update(data)
            fh.write(data)
    return digest.hexdigest()


def _csv_text(rows) -> str:
    """``rows`` as ``csv.writer`` writes them."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _block_text(block) -> str | None:
    """The rows of ``block`` formatted column by column, as ``csv.writer``
    would write them; None for a block the column rule does not cover."""
    cells = []
    for c in block:
        kind = c.dtype.kind
        if kind == "f" and c.dtype.itemsize <= 8:
            cells.append(map(repr, c.tolist()))
        elif kind in "iu":
            cells.append(map(str, c.tolist()))
        elif kind == "U":
            values = c.tolist()
            if len(block) == 1 and "" in values:
                return None  # csv writes a row of one empty field as ""
            cells.append(_quoted(values))
        else:
            return None
    return "\r\n".join(map(",".join, zip(*cells))) + "\r\n"


def _quoted(values: list) -> list:
    """Text cells as QUOTE_MINIMAL writes them: a field holding a comma, a
    quote or a line break is quoted, with its quotes doubled."""
    joined = "".join(values)
    if not any(ch in joined for ch in _QUOTED):
        return values
    return ['"' + v.replace('"', '""') + '"' if any(ch in v for ch in _QUOTED) else v
            for v in values]


def read_header(full_path) -> list:
    """The first row of a table written by :func:`write_table`."""
    with open(full_path, newline="", encoding="utf-8") as fh:
        return _header(full_path, next(csv.reader(fh), None), None)


def read_columns(full_path, header, numbers, *, ints=(), text=()):
    """Columns of a table written by :func:`write_table`, whose first row
    must equal ``header``.

    Returns ``(arrays, texts)``: one array per index in ``numbers`` (int64
    for one also in ``ints``, else float64) and one list of text per index
    in ``text``.  Cells convert as ``int`` and ``float`` convert them after
    ``str.strip``; a cell that does not raises their ValueError, and a row of
    the wrong width raises SchemaError naming it, counted from 1.
    """
    with open(full_path, newline="", encoding="utf-8") as fh:
        _header(full_path, next(csv.reader(fh), None), header)
        return parse_columns(fh, full_path, len(header), numbers, ints=ints, text=text)


def read_by_model(full_path, header, numbers, *, ints=()) -> dict:
    """``{model: arrays}`` of a table written by :func:`write_table` whose
    first column names the model: each model's rows of the columns
    ``numbers``, read as :func:`read_columns` reads them, in file order.
    Models come in order of first appearance."""
    values, (names,) = read_columns(full_path, header, numbers, ints=ints, text=(0,))
    models = np.asarray(names, dtype=str)
    return {name: [v[models == name] for v in values] for name in dict.fromkeys(names)}


def parse_columns(fh, where, width, numbers, *, ints=(), text=(), row=None, valid=None,
                  missing=(), delimiter=",", first_row=1):
    """Parse the rest of the open CSV file ``fh``, ``width`` fields a row,
    into the columns ``numbers`` (arrays) and ``text`` (lists of text).

    A block of rows is parsed in bulk by ``np.loadtxt``, whose numbers are
    those Python's ``int`` and ``float`` read from the same text once
    ``str.strip`` has taken its padding off.  A cell
    spelled exactly as one of ``missing`` reads as NaN there, which ``row``
    must agree with.  A block that it cannot parse, that holds a row of
    another width or that fails ``valid`` (called with the block's arrays,
    in ``numbers`` order) is parsed again one row at a time:
    ``row(record, number)`` gives the numbers of one record, by default
    through ``int`` and ``float`` after ``str.strip``, and raises what the
    row is wrong in.  A quote character sends the rest of the file through
    ``csv.reader`` row by row, because a quoted field may span lines.
    ``where`` names the file in errors; rows count from ``first_row``.
    """
    ints, missing = set(ints), frozenset(missing)
    dtype = np.dtype([(f"c{i}", np.int64 if j in ints else np.float64)
                      for i, j in enumerate(numbers)])
    if row is None:
        def row(record, number):
            return [int(record[j].strip()) if j in ints else float(record[j].strip())
                    for j in numbers]

    def by_row(records, number):
        values, texts = [], [[] for _ in text]
        for number, record in enumerate(records, start=number):
            _check_width(where, number, record, width)
            values.append(tuple(row(record, number)))
            for cells, j in zip(texts, text):
                cells.append(record[j])
        return np.array(values, dtype=dtype), texts

    bulk = delimiter not in '"\r\n'
    blocks = [(np.empty(0, dtype), [[] for _ in text])]
    number = first_row
    for lines in _blocks(fh):
        if not bulk or '"' in "".join(lines):
            for records in _blocks(csv.reader(itertools.chain(lines, fh), delimiter=delimiter)):
                blocks.append(by_row(records, number))
                number += len(records)
            break
        parsed = _bulk(lines, width, numbers, dtype, text, valid, delimiter, missing)
        # without quotes, each line is one record
        blocks.append(parsed or by_row(csv.reader(lines, delimiter=delimiter), number))
        number += len(lines)
    arrays = [np.concatenate([b[name] for b, _ in blocks]) for name in dtype.names]
    texts = [[cell for _, t in blocks for cell in t[k]] for k in range(len(text))]
    return arrays, texts


def _blocks(items):
    """Lists of up to ``BLOCK_ROWS`` of ``items``, in order."""
    return iter(lambda: list(itertools.islice(items, BLOCK_ROWS)), [])


def _bulk(lines, width, numbers, dtype, text, valid, delimiter, missing=frozenset()):
    """The block of unquoted ``lines`` parsed in bulk, or None when a row has
    another width, a cell does not parse or ``valid`` refuses the block.  A
    cell spelled as one of ``missing`` reads as NaN."""
    if set(map(str.count, lines, itertools.repeat(delimiter))) != {width - 1}:
        return None
    if width == 1 and any(not line.strip() for line in lines):
        return None  # loadtxt skips a blank line; csv reads it as a row of no fields
    values = _loadtxt(lines, dtype, delimiter, numbers)
    if values is None and missing:
        respelled = _nan_spelled(lines, width, delimiter, missing)
        values = respelled and _loadtxt(respelled, dtype, delimiter, numbers)
    if values is None or valid and not valid([values[n] for n in dtype.names]):
        return None
    return values, [[line.rstrip("\r\n").split(delimiter, j + 1)[j] for line in lines]
                    for j in text]


def _loadtxt(lines, dtype, delimiter, numbers):
    """``np.loadtxt`` of the columns ``numbers`` of ``lines``, or None when a
    cell does not parse as its column's type."""
    with warnings.catch_warnings():
        # some numpy versions read an integer cell such as 1.5 through
        # float, truncating it, and only warn; int() refuses it
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.loadtxt(lines, dtype=dtype, delimiter=delimiter, comments=None,
                              usecols=numbers, ndmin=1)
        except (ValueError, DeprecationWarning):
            return None


def _nan_spelled(lines, width, delimiter, missing) -> list | None:
    """``lines`` with each cell spelled as one of ``missing`` spelled nan, or
    None when no cell is."""
    cells = delimiter.join(line.rstrip("\r\n") for line in lines).split(delimiter)
    if missing.isdisjoint(cells):
        return None
    cells = ["nan" if cell in missing else cell for cell in cells]
    return [delimiter.join(cells[i:i + width]) for i in range(0, len(cells), width)]


def _header(where, first, header):
    """The file's first row ``first``, which must equal ``header`` when given."""
    if first is None:
        raise SchemaError(f"{where}: empty file, expected a header row")
    if header is not None and first != list(header):
        raise SchemaError(f"{where}: header does not match {list(header)}")
    return first


def _check_width(where, number, row, width) -> None:
    if len(row) != width:
        raise SchemaError(f"{where}: row {number} has {len(row)} fields, expected {width}")
