import csv
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treatpolicy import layout, pipeline
from treatpolicy.errors import DataError, SchemaError, StageError
from treatpolicy.ingest import (
    _MISSING_CELLS,
    SPLIT_NAMES,
    Dataset,
    ColumnInfo,
    TableSchema,
    _parse_cell,
    assign_splits,
    impute_and_flag,
    load_dataset,
    load_description,
    load_table,
    save_dataset,
    summarize,
)

SCHEMA = TableSchema(treatment="t", outcome="y")


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadTable:
    def test_basic_parse(self, tmp_path):
        path = write_csv(tmp_path, "a,b,t,y\n1.5,0,1,2.0\n2.5,1,0,3.0\n")
        data = load_table(path, SCHEMA)
        assert data.n == 2
        assert data.column_names == ["a", "b"]
        assert [c.kind for c in data.columns] == ["numeric", "binary"]
        np.testing.assert_array_equal(data.treatment, [1, 0])
        np.testing.assert_allclose(data.outcome, [2.0, 3.0])
        np.testing.assert_allclose(data.covariates[:, 0], [1.5, 2.5])

    def test_unparseable_covariate_cell_becomes_missing(self, tmp_path):
        path = write_csv(tmp_path, "a,t,y\noops,1,2.0\n3.0,0,1.0\n")
        data = load_table(path, SCHEMA)
        assert math.isnan(data.covariates[0, 0])
        assert data.covariates[1, 0] == 3.0

    def test_non_binary_treatment_names_row(self, tmp_path):
        path = write_csv(tmp_path, "a,t,y\n1.0,1,2.0\n2.0,2,3.0\n")
        with pytest.raises(SchemaError, match="row 3"):
            load_table(path, SCHEMA)

    def test_missing_outcome_is_error(self, tmp_path):
        path = write_csv(tmp_path, "a,t,y\n1.0,1,\n")
        with pytest.raises(SchemaError, match="outcome"):
            load_table(path, SCHEMA)

    def test_ragged_row_is_error(self, tmp_path):
        path = write_csv(tmp_path, "a,t,y\n1.0,1,2.0,9\n")
        with pytest.raises(SchemaError, match="row 2"):
            load_table(path, SCHEMA)

    def test_duplicate_header_is_error(self, tmp_path):
        path = write_csv(tmp_path, "a,a,t,y\n1,2,1,0\n")
        with pytest.raises(SchemaError, match="duplicate"):
            load_table(path, SCHEMA)

    def test_missing_role_column_is_error(self, tmp_path):
        path = write_csv(tmp_path, "a,y\n1,2\n")
        with pytest.raises(SchemaError, match="treatment"):
            load_table(path, SCHEMA)

    def test_secondary_and_ignored_columns(self, tmp_path):
        schema = TableSchema(
            treatment="t", outcome="y", secondary_outcomes=("y2",), ignore=("id",)
        )
        path = write_csv(tmp_path, "id,a,y2,t,y\n7,1.0,5.0,1,2.0\n")
        data = load_table(path, schema)
        assert data.column_names == ["a"]
        np.testing.assert_array_equal(data.covariates, [[1.0]])
        assert not hasattr(data, "secondary")


def make_dataset(cov, t, y, columns=None, split=None):
    cov = np.asarray(cov, dtype=float)
    if columns is None:
        columns = [ColumnInfo(f"x{j}", "numeric") for j in range(cov.shape[1])]
    return Dataset(
        covariates=cov,
        columns=columns,
        treatment=np.asarray(t),
        outcome=np.asarray(y, dtype=float),
        split=None if split is None else np.asarray(split, dtype="<U10"),
    )


class TestImputeAndFlag:
    def test_median_comes_from_train_rows_only(self):
        # train values of x0: 1, 3 (median 2); the test-row 100 must not leak in
        cov = [[1.0], [3.0], [np.nan], [100.0]]
        data = make_dataset(cov, [0, 1, 0, 1], [0, 0, 0, 0],
                            split=["train", "train", "train", "test"])
        out, flagged = impute_and_flag(data)
        assert flagged == ("x0",)
        assert out.covariates[2, 0] == 2.0
        assert out.column_names == ["x0", "x0__missing"]
        np.testing.assert_array_equal(out.covariates[:, 1], [0, 0, 1, 0])

    def test_no_missing_no_indicator(self):
        data = make_dataset([[1.0], [2.0]], [0, 1], [0, 0], split=["train", "test"])
        out, flagged = impute_and_flag(data)
        assert out.column_names == ["x0"]
        assert flagged == ()

    def test_idempotent(self):
        cov = [[1.0], [np.nan], [3.0]]
        data = make_dataset(cov, [0, 1, 0], [0, 0, 0], split=["train", "train", "test"])
        once, _ = impute_and_flag(data)
        twice, _ = impute_and_flag(once)
        np.testing.assert_array_equal(once.covariates, twice.covariates)
        assert once.column_names == twice.column_names

    def test_entirely_missing_train_column_is_error(self):
        data = make_dataset([[np.nan], [np.nan], [1.0]], [0, 1, 0], [0, 0, 0],
                            split=["train", "train", "test"])
        with pytest.raises(DataError, match="x0"):
            impute_and_flag(data)

    def test_unsplit_dataset_is_error(self):
        data = make_dataset([[1.0], [np.nan]], [0, 1], [0, 0])
        with pytest.raises(DataError, match="no split"):
            impute_and_flag(data)

    def test_original_dataset_not_mutated(self):
        cov = np.array([[np.nan], [2.0]])
        data = make_dataset(cov, [0, 1], [0, 0], split=["train", "train"])
        impute_and_flag(data)
        assert math.isnan(data.covariates[0, 0])


class TestSplits:
    def test_reported_counts_within_one(self):
        # fractions chosen to target a 1305/322/530 partition of 2157 rows
        n = 2157
        data = make_dataset(np.zeros((n, 1)), np.zeros(n, dtype=int), np.zeros(n))
        out = assign_splits(data, (1305 / n, 322 / n, 530 / n), seed=3)
        sizes = [int((out.split == s).sum()) for s in ("train", "validation", "test")]
        for size, want in zip(sizes, (1305, 322, 530)):
            assert abs(size - want) <= 1
        assert sum(sizes) == n

    def test_largest_remainder_rounding(self):
        # 10 * (0.55, 0.25, 0.2) = (5.5, 2.5, 2.0): one leftover row goes to
        # the largest fractional part (train), ties broken by position
        data = make_dataset(np.zeros((10, 1)), np.zeros(10, dtype=int), np.zeros(10))
        out = assign_splits(data, (0.55, 0.25, 0.2), seed=0)
        sizes = {s: int((out.split == s).sum()) for s in ("train", "validation", "test")}
        assert sizes == {"train": 6, "validation": 2, "test": 2}

    def test_deterministic_and_exhaustive(self):
        data = make_dataset(np.zeros((50, 1)), np.zeros(50, dtype=int), np.zeros(50))
        a = assign_splits(data, (0.6, 0.2, 0.2), seed=11)
        b = assign_splits(data, (0.6, 0.2, 0.2), seed=11)
        np.testing.assert_array_equal(a.split, b.split)
        assert set(a.split) == {"train", "validation", "test"}
        c = assign_splits(data, (0.6, 0.2, 0.2), seed=12)
        assert not np.array_equal(a.split, c.split)

    def test_empty_split_is_error(self):
        data = make_dataset(np.zeros((3, 1)), np.zeros(3, dtype=int), np.zeros(3))
        with pytest.raises(DataError, match="empty"):
            assign_splits(data, (0.9, 0.05, 0.05), seed=0)

    def test_bad_fractions_are_error(self):
        data = make_dataset(np.zeros((10, 1)), np.zeros(10, dtype=int), np.zeros(10))
        with pytest.raises(ValueError):
            assign_splits(data, (0.5, 0.5, 0.5), seed=0)


class TestSummarize:
    def test_two_group_layout(self):
        cov = [[1.0, 1], [2.0, 0], [3.0, 1], [4.0, 0]]
        columns = [ColumnInfo("age", "numeric"), ColumnInfo("flag", "binary")]
        data = make_dataset(cov, [0, 1, 0, 1], [1.0, 2.0, 3.0, 4.0], columns=columns)
        header, rows = summarize(data, group_by=np.array([False, False, True, True]),
                                 group_names=("recommended", "deferred"))
        assert header == ["column", "statistic", "missing", "overall",
                          "recommended", "deferred"]
        by_col = {r[0]: r for r in rows}
        assert by_col["age"][1] == "mean (SD)"
        assert by_col["age"][3] == "2.50 (1.29)"
        assert by_col["flag"][1] == "n (%)"
        assert by_col["flag"][3] == "2 (50.0%)"
        assert by_col["flag"][4] == "1 (50.0%)"
        assert by_col["treatment"][1] == "n (%)"

    def test_missing_counted(self):
        data = make_dataset([[np.nan], [2.0]], [0, 1], [0.0, 1.0])
        header, rows = summarize(data, group_by=np.array([False, True]), group_names=("a", "b"))
        row = dict(zip(header, next(r for r in rows if r[0] == "x0")))
        assert row["missing"] == 1
        assert row["overall"] == "2.00 (0.00)"


class TestRoundTrip:
    def test_save_load_bit_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        cov = rng.normal(size=(7, 3))
        data = make_dataset(cov, rng.integers(0, 2, 7), rng.normal(size=7),
                            split=["train"] * 4 + ["validation"] * 1 + ["test"] * 2)
        desc = save_dataset(data, tmp_path / "d.npy")
        back = load_dataset(tmp_path / "d.npy", desc)
        np.testing.assert_array_equal(back.covariates, data.covariates)
        np.testing.assert_array_equal(back.outcome, data.outcome)
        np.testing.assert_array_equal(back.treatment, data.treatment)
        np.testing.assert_array_equal(back.split, data.split)
        np.testing.assert_array_equal(back.row_ids, data.row_ids)

    @pytest.mark.parametrize("edit", ["extra", "missing"])
    def test_row_with_wrong_cell_count_rejected(self, tmp_path, edit):
        data = make_dataset(np.arange(6.0).reshape(3, 2), [0, 1, 0], [1.0, 2.0, 3.0])
        header = _dataset_table(data, tmp_path / "d.csv")
        lines = (tmp_path / "d.csv").read_text().splitlines()
        lines[2] = lines[2] + ",9.0" if edit == "extra" else lines[2].rsplit(",", 1)[0]
        (tmp_path / "d.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="row 2"):
            _read_dataset_table(tmp_path / "d.csv", header)

    def test_mismatched_header_rejected(self, tmp_path):
        data = make_dataset(np.arange(6.0).reshape(3, 2), [0, 1, 0], [1.0, 2.0, 3.0])
        header = _dataset_table(data, tmp_path / "d.csv")
        header[-1] = "renamed"
        with pytest.raises(SchemaError, match="header does not match"):
            _read_dataset_table(tmp_path / "d.csv", header)

    def test_unsplit_dataset_is_refused(self, tmp_path):
        data = make_dataset(np.arange(6.0).reshape(3, 2), [0, 1, 0], [1.0, 2.0, 3.0])
        with pytest.raises(DataError, match="no split"):
            save_dataset(data, tmp_path / "d.npy")
        assert not (tmp_path / "d.npy").exists()

    def test_unknown_split_label_names_its_row(self, tmp_path):
        data = make_dataset(np.arange(6.0).reshape(3, 2), [0, 1, 0], [1.0, 2.0, 3.0],
                            split=["train", "trian", "test"])
        with pytest.raises(DataError, match="row 2 has split label 'trian'"):
            save_dataset(data, tmp_path / "d.npy")

    def test_long_split_label_is_checked_uncut(self, tmp_path):
        data = make_dataset(np.arange(6.0).reshape(3, 2), [0, 1, 0], [1.0, 2.0, 3.0])
        data.split = np.array(["train", "validation-old", "test"])
        with pytest.raises(DataError, match="row 2 has split label 'validation-old'"):
            save_dataset(data, tmp_path / "d.npy")

    def test_empty_split_label_among_labels_names_its_row(self, tmp_path):
        data = make_dataset(np.arange(6.0).reshape(3, 2), [0, 1, 0], [1.0, 2.0, 3.0],
                            split=["train", "test", ""])
        with pytest.raises(DataError, match="row 3 has split label ''"):
            save_dataset(data, tmp_path / "d.npy")

    def test_covariates_named_like_fixed_columns_round_trip(self, tmp_path):
        names = ["row_id", "split", "age, years", 'say "x"']
        cov = np.arange(12.0).reshape(3, 4) - 5.5
        data = make_dataset(cov, [0, 1, 0], [1.0, 2.0, 3.0], split=["train", "test", "test"],
                            columns=[ColumnInfo(n, "numeric") for n in names])
        back = load_dataset(tmp_path / "d.npy", save_dataset(data, tmp_path / "d.npy"))
        assert back.column_names == names
        np.testing.assert_array_equal(back.covariates, cov)
        np.testing.assert_array_equal(back.row_ids, [0, 1, 2])
        np.testing.assert_array_equal(back.split, ["train", "test", "test"])

    def test_reloaded_covariates_are_c_contiguous(self, tmp_path):
        data = make_dataset(np.arange(12.0).reshape(4, 3), [0, 1, 0, 1], [1.0, 2.0, 3.0, 4.0],
                            split=["train", "train", "validation", "test"])
        back = load_dataset(tmp_path / "d.npy", save_dataset(data, tmp_path / "d.npy"))
        for a in (back.covariates, back.outcome):
            assert a.flags["C_CONTIGUOUS"]


def _dataset_table(data, path):
    """Write ``data`` to ``path`` as the CSV table the dataset was stored as
    before data/dataset.npy: int row_id, text split and int treatment, then
    float outcome and covariates.  Returns its header."""
    header = ["row_id", "split", "treatment", "outcome", *data.column_names]
    split = np.full(data.n, "") if data.split is None else data.split
    layout.write_table(path, header, [data.row_ids, split, data.treatment.astype(int),
                                      data.outcome, *data.covariates.T])
    return header


def _read_dataset_table(path, header):
    """The columns of a table that :func:`_dataset_table` wrote, through read_columns."""
    return layout.read_columns(path, header, [0, 2, *range(3, len(header))], ints=(0, 2),
                               text=(1,))


def _edge_dataset():
    """Every float the .npy file must keep bit for bit, the largest exact row_id and
    all three splits."""
    cov = np.array([[-0.0, 5e-324, math.nan], [math.inf, -math.inf, -math.nan],
                    [-2.2250738585072e-308, 1e308, 1.0]])
    data = make_dataset(cov, [0, 1, 1], [0.5, -0.0, 1e-310], split=list(SPLIT_NAMES))
    data.row_ids = np.array([2**53, 0, 7])
    return data


def _per_row_save_dataset(data, csv_path):
    """The CSV dataset writer before the table codec: one formatted row at a time."""
    header = ["row_id", "split", "treatment", "outcome", *data.column_names]
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(data.n):
            row = [
                str(int(data.row_ids[i])),
                "" if data.split is None else str(data.split[i]),
                str(int(data.treatment[i])),
                repr(float(data.outcome[i])),
            ]
            row += [repr(float(v)) for v in data.covariates[i]]
            writer.writerow(row)


_SPECIAL_FLOATS = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072e-308, 1e308]
_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(_SPECIAL_FLOATS)
# header names and text cells: csv must quote commas, quotes and line breaks
_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                max_size=6) | st.sampled_from(["a,b", 'say "hi"', "x", "two\nlines", ""])


@st.composite
def _tables(draw):
    n = draw(st.integers(0, 30))
    kinds = draw(st.lists(st.sampled_from(["float", "int", "bool", "str"]), min_size=1, max_size=5))
    # few distinct names, so headers often repeat one
    header = draw(st.lists(st.sampled_from(["x", "a,b", 'q"t']) | _TEXT,
                           min_size=len(kinds), max_size=len(kinds)))
    values = {"float": _FLOATS, "int": st.integers(-2**63, 2**63 - 1),
              "bool": st.booleans(), "str": _TEXT}
    dtypes = {"float": float, "int": np.int64, "bool": bool, "str": None}
    columns = [draw(st.lists(values[k], min_size=n, max_size=n)) for k in kinds]
    columns = [c if dtypes[k] is None else np.array(c, dtype=dtypes[k])
               for k, c in zip(kinds, columns)]
    return header, kinds, columns


@st.composite
def _datasets(draw):
    n = draw(st.integers(1, 12))
    d = draw(st.integers(0, 3))
    cov = np.array(draw(st.lists(_FLOATS, min_size=n * d, max_size=n * d)),
                   dtype=float).reshape(n, d)
    data = make_dataset(cov, draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                        draw(st.lists(_FLOATS, min_size=n, max_size=n)),
                        split=draw(st.lists(st.sampled_from(SPLIT_NAMES), min_size=n, max_size=n)))
    data.row_ids = np.array(draw(st.lists(st.integers(0, 2**53), min_size=n, max_size=n)),
                            dtype=int)
    return data


class TestDatasetArtifact:
    """data/dataset.npy: a bit-identical reload, and a StageError for any other file."""

    @settings(max_examples=150, deadline=None)
    @given(_datasets())
    @example(_edge_dataset())
    def test_reload_is_bit_identical_and_rewrites_are_byte_identical(self, tmp_path_factory,
                                                                     data):
        folder = tmp_path_factory.mktemp("npy")
        desc = save_dataset(data, folder / "a.npy")
        assert save_dataset(data, folder / "b.npy") == desc
        assert (folder / "a.npy").read_bytes() == (folder / "b.npy").read_bytes()
        back = load_dataset(folder / "a.npy", desc)
        assert desc == {"columns": [{"name": c.name, "kind": c.kind} for c in data.columns],
                        "n_rows": data.n}
        assert np.load(folder / "a.npy").shape == (data.n, 4 + len(data.columns))
        assert back.columns == data.columns
        pairs = [(back.covariates, data.covariates), (back.outcome, data.outcome),
                 (back.treatment, data.treatment.astype(np.int8)), (back.row_ids, data.row_ids)]
        for got, want in pairs:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert back.split.dtype == np.dtype("<U10")
        assert back.split.tolist() == data.split.tolist()

    REFUSALS = {
        "empty": "not a readable .npy matrix",
        "truncated": "not a readable .npy matrix",
        "object": "not a readable .npy matrix",
        "float32": "not a float64 matrix",
        "npz": "not a float64 matrix",
        "dropped-column": r"a matrix of shape \(6, 6\), but its description has 6 rows of 5 ",
        "split-code-5": "row 2 has split code 5.0",
        "no-split-among-labels": "row 3 has split code -1.0",
        "no-split": "row 1 has split code -1.0",
        "secondary-block": r"a matrix of shape \(6, 7\), but its description has 6 rows of 6 ",
        "row-id-1.5": "row 4 has row_id 1.5",
        "treatment-2": "row 5 has treatment 2.0",
    }

    @pytest.mark.parametrize("edit", REFUSALS)
    def test_a_file_that_is_not_the_saved_matrix_is_refused(self, tmp_path, edit):
        data = make_dataset(np.arange(12.0).reshape(6, 2), np.arange(6) % 2, np.ones(6),
                            split=list(SPLIT_NAMES) * 2)
        path = tmp_path / "dataset.npy"
        desc = save_dataset(data, path)
        matrix = np.load(path)
        planted = {"split-code-5": (1, 1, 5.0), "no-split-among-labels": (2, 1, -1.0),
                   "row-id-1.5": (3, 0, 1.5), "treatment-2": (4, 2, 2.0)}
        if edit in ("empty", "truncated"):
            path.write_bytes(path.read_bytes()[:0 if edit == "empty" else -8])
        elif edit == "object":
            np.save(path, matrix.astype(object))
        elif edit == "float32":
            np.save(path, matrix.astype(np.float32))
        elif edit == "npz":
            with open(path, "wb") as fh:
                np.savez(fh, matrix)
        elif edit == "dropped-column":
            del desc["columns"][0]
        elif edit == "no-split":
            # an unsplit dataset as an older ingest could save it
            matrix[:, 1] = -1.0
            np.save(path, matrix)
        elif edit == "secondary-block":
            # an older layout: a secondary outcome between outcome and covariates
            np.save(path, np.insert(matrix, 4, 5.0, axis=1))
        else:
            row, column, value = planted[edit]
            matrix[row, column] = value
            np.save(path, matrix)
        with pytest.raises(StageError, match=self.REFUSALS[edit]) as info:
            load_dataset(path, desc)
        assert str(info.value).startswith(f"{path}: ")
        assert str(info.value).endswith("; rerun the 'ingest' stage")


class TestDatasetDescription:
    """data/dataset.json: the saved description, and a StageError for anything else."""

    def described(self, tmp_path, edit=None):
        data = make_dataset(np.arange(6.0).reshape(3, 2), [0, 1, 0], np.ones(3),
                            split=list(SPLIT_NAMES))
        desc = save_dataset(data, tmp_path / "dataset.npy")
        if edit is not None:
            edit(desc)
        path = tmp_path / "dataset.json"
        path.write_text(json.dumps(desc))
        return path, desc

    def refused(self, path, match):
        with pytest.raises(StageError, match=match) as info:
            load_description(path)
        assert str(info.value).startswith(f"{path}: ")
        assert str(info.value).endswith("; rerun the 'ingest' stage")

    def test_the_saved_description_reads_back(self, tmp_path):
        path, desc = self.described(tmp_path)
        assert load_description(path) == desc

    @pytest.mark.parametrize("text", ['{"columns": [', "", "n_rows: 3"])
    def test_text_that_is_not_json_is_refused(self, tmp_path, text):
        path = tmp_path / "dataset.json"
        path.write_text(text)
        self.refused(path, "not valid JSON")

    @pytest.mark.parametrize("key", ["columns", "n_rows"])
    def test_a_missing_key_is_refused(self, tmp_path, key):
        path, _ = self.described(tmp_path, lambda d: d.pop(key))
        self.refused(path, f"no '{key}'")

    @pytest.mark.parametrize("names", [[], ["y2"]])
    def test_an_older_description_with_secondary_outcomes_is_refused(self, tmp_path, names):
        path, _ = self.described(tmp_path, lambda d: d.update(secondary_outcomes=names))
        self.refused(path, r"unexpected key\(s\) \['secondary_outcomes'\]")

    @pytest.mark.parametrize("key, value", [
        ("columns", {"x0": "numeric"}), ("n_rows", "3"), ("n_rows", 3.0), ("n_rows", True),
        ("n_rows", -1),
    ])
    def test_a_key_of_the_wrong_type_is_refused(self, tmp_path, key, value):
        path, _ = self.described(tmp_path, lambda d: d.update({key: value}))
        self.refused(path, f"'{key}' is not")

    @pytest.mark.parametrize("entry", [{"name": "x0"}, {"kind": "numeric"}, ["x0", "numeric"],
                                       {"name": 0, "kind": "numeric"}])
    def test_a_column_entry_without_name_or_kind_is_refused(self, tmp_path, entry):
        path, _ = self.described(tmp_path, lambda d: d["columns"].__setitem__(1, entry))
        self.refused(path, "'columns' is not a list of entries with a text 'name' and 'kind'")


def _same_float(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


class TestTableCodec:
    @settings(max_examples=150, deadline=None)
    @given(_tables())
    def test_write_read_round_trip(self, tmp_path_factory, table):
        header, kinds, columns = table
        path = tmp_path_factory.mktemp("codec") / "t.csv"
        layout.write_table(path, header, columns)
        numbers = [j for j, kind in enumerate(kinds) if kind != "str"]
        text = [j for j, kind in enumerate(kinds) if kind == "str"]
        ints = [j for j, kind in enumerate(kinds) if kind in ("int", "bool")]
        arrays, texts = layout.read_columns(path, header, numbers, ints=ints, text=text)
        assert layout.read_header(path) == header
        read = dict(zip(numbers, arrays)) | dict(zip(text, texts))
        for j, (kind, column) in enumerate(zip(kinds, columns)):
            assert len(read[j]) == len(column)
            if kind == "float":
                assert all(_same_float(c, v) for c, v in zip(read[j].tolist(), column.tolist()))
            elif kind == "str":
                assert read[j] == list(column)
            else:
                assert read[j].tolist() == [int(v) for v in column.tolist()]

    @pytest.mark.parametrize("split", [True, False])
    def test_dataset_table_bytes_match_the_per_row_writer_across_blocks(self, tmp_path, split):
        rng = np.random.default_rng(3)
        n = 2 * layout.BLOCK_ROWS + 3
        cov = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-300, 300, size=(n, 3))
        cov[layout.BLOCK_ROWS - 2 : layout.BLOCK_ROWS + 6, 1] = _SPECIAL_FLOATS
        names = ["a", "b, c", 'd"e']
        data = make_dataset(cov, rng.integers(0, 2, n), rng.normal(size=n),
                            columns=[ColumnInfo(k, "numeric") for k in names],
                            split=rng.choice(["train", "validation", "test"], n) if split else None)
        _per_row_save_dataset(data, tmp_path / "old.csv")
        _dataset_table(data, tmp_path / "new.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_reader_checks_header_and_row_width(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\r\n1,2\r\n3\r\n")
        with pytest.raises(SchemaError, match="header does not match"):
            layout.read_columns(path, ["a", "c"], [0, 1])
        with pytest.raises(SchemaError, match="row 2 has 1 fields, expected 2"):
            layout.read_columns(path, ["a", "b"], [0, 1])

    def test_read_header(self, tmp_path):
        path = tmp_path / "t.csv"
        layout.write_table(path, ["a", "b,c"], [[1.0], ["x"]])
        assert layout.read_header(path) == ["a", "b,c"]
        path.write_text("")
        with pytest.raises(SchemaError, match="empty file"):
            layout.read_header(path)

    def test_writer_rejects_columns_that_do_not_fit_the_header(self, tmp_path):
        with pytest.raises(ValueError):
            layout.write_table(tmp_path / "t.csv", ["a", "b"], [[1.0, 2.0], [1.0]])
        with pytest.raises(ValueError):
            layout.write_table(tmp_path / "t.csv", ["a"], [[1.0], [2.0]])


def _csv_writer_table(full_path, header, columns):
    """The table writer before the column formatter: ``csv.writer`` over each
    block's rows."""
    cols = [np.asarray(c) for c in columns]
    cols = [c.astype(int) if c.dtype == bool else c for c in cols]
    n = len(cols[0]) if cols else 0
    with open(full_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for start in range(0, n, layout.BLOCK_ROWS):
            writer.writerows(zip(*(c[start:start + layout.BLOCK_ROWS].tolist() for c in cols)))


class TestColumnWriterMatchesCsvWriter:
    @settings(max_examples=200, deadline=None)
    @given(_tables())
    def test_bytes_and_digest(self, tmp_path_factory, table):
        header, _, columns = table
        folder = tmp_path_factory.mktemp("writer")
        digest = layout.write_table(folder / "new.csv", header, columns)
        _csv_writer_table(folder / "old.csv", header, columns)
        written = (folder / "new.csv").read_bytes()
        assert written == (folder / "old.csv").read_bytes()
        assert digest == hashlib.sha256(written).hexdigest()

    @settings(max_examples=150, deadline=None)
    @given(_tables())
    # plain text, last and inside, takes the bulk parse
    @example(table=(["n", "t", "x", "u"], ["int", "str", "float", "str"],
                    [np.array([3, -1]), ["a b", ""], np.array([0.5, -0.0]), ["x", "é"]]))
    def test_read_columns_round_trip(self, tmp_path_factory, table):
        header, kinds, columns = table
        path = tmp_path_factory.mktemp("columns") / "t.csv"
        layout.write_table(path, header, columns)
        numbers = [j for j, k in enumerate(kinds) if k != "str"]
        text = [j for j, k in enumerate(kinds) if k == "str"]
        arrays, texts = layout.read_columns(path, header, numbers, text=text,
                                            ints=[j for j in numbers if kinds[j] != "float"])
        for j, got in zip(numbers, arrays):
            if kinds[j] == "float":
                assert all(_same_float(a, b) for a, b in zip(got.tolist(), columns[j].tolist()))
            else:
                assert got.tolist() == [int(v) for v in columns[j].tolist()]
        assert texts == [list(columns[j]) for j in text]

    @pytest.mark.parametrize("case", ["mixed", "one-text-column", "objects", "narrow-floats"])
    def test_bytes_across_blocks(self, tmp_path, case):
        rng = np.random.default_rng(11)
        n = 2 * layout.BLOCK_ROWS + 7
        text = rng.choice(["train", "", "a,b", 'say "x"', "two\nlines", "cr\r", "é"], n)
        if case == "mixed":
            floats = rng.normal(size=n) * 10.0 ** rng.integers(-320, 308, n)
            floats[layout.BLOCK_ROWS - 4 : layout.BLOCK_ROWS + 4] = _SPECIAL_FLOATS
            columns = [floats, rng.integers(-2**63, 2**63 - 1, n), rng.random(n) < 0.5, text,
                       rng.integers(0, 2**64 - 1, n, dtype=np.uint64)]
        elif case == "one-text-column":
            columns = [text]
        elif case == "objects":
            columns = [np.array([None, 1.5, "x,y"] * (n // 3) + [2] * (n % 3), dtype=object),
                       rng.normal(size=n)]
        else:
            columns = [rng.normal(size=n).astype(np.float32), rng.normal(size=n).astype(np.float16)]
        header = [f"c{j}" for j in range(len(columns))]
        layout.write_table(tmp_path / "new.csv", header, columns)
        _csv_writer_table(tmp_path / "old.csv", header, columns)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


# cells the bulk parse may meet: _parse_cell's missing words, Python-only
# float syntax, padding, special values and quoted cells
_CELL_TEXTS = ["", "NA", "na", "nan", "-nan", "NaN", "null", "None", " 1.5 ", "1_000", "１",
               "inf", "-inf", "+Infinity", "1e999", "-0", ".5", "5.", "0x10", "abc", "1.5e-3",
               "\t2\t", '"2.5"', '"1,5"', '" 7 "']
# every code point str.strip takes off but the line ends, which end a row
_PADDING = "".join(c for c in map(chr, range(0x110000)) if c.isspace() and c not in "\r\n")
_CELLS = (st.sampled_from(_CELL_TEXTS) | st.floats().map(repr)
          | st.text(alphabet="0123456789.e+-_ nNaAiIfF\t", max_size=8))


def _parse_oracle(path, delimiter=","):
    """Every data cell of ``path`` read by ``csv.reader`` and ``_parse_cell``."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh, delimiter=delimiter))[1:]
    return [[_parse_cell(c) for c in row] for row in rows]


class TestBulkParseMatchesParseCell:
    @settings(max_examples=200, deadline=None)
    @given(width=st.integers(1, 4), data=st.data(), delimiter=st.sampled_from([",", ";"]),
           end=st.sampled_from(["\r\n", "\n", "\r"]),
           missing=st.sampled_from([frozenset(), _MISSING_CELLS]))
    def test_cell_for_cell(self, tmp_path_factory, width, data, delimiter, end, missing):
        rows = data.draw(st.lists(st.lists(_CELLS, min_size=width, max_size=width),
                                  min_size=1, max_size=40))
        path = tmp_path_factory.mktemp("cells") / "t.csv"
        lines = [delimiter.join(f"h{j}" for j in range(width))]
        lines += [delimiter.join(row) for row in rows]
        path.write_bytes(end.join(lines).encode() + end.encode())
        expected = _parse_oracle(path, delimiter)

        def parse():
            with open(path, newline="", encoding="utf-8") as fh:
                next(fh)
                return layout.parse_columns(
                    fh, path, width, list(range(width)), delimiter=delimiter, missing=missing,
                    row=lambda record, number: [_parse_cell(c) for c in record])

        if any(len(row) != width for row in expected):
            # csv reads a blank line as a row of no fields
            blank = next(i for i, row in enumerate(expected) if len(row) != width)
            with pytest.raises(SchemaError, match=f"row {blank + 1} has 0 fields"):
                parse()
            return
        arrays, _ = parse()
        got = np.stack(arrays, axis=1).tolist()
        assert len(got) == len(expected)
        assert all(_same_float(a, b) for g, e in zip(got, expected) for a, b in zip(g, e))

        # the bulk parse alone, where it takes the block, agrees cell for cell
        with open(path, newline="", encoding="utf-8") as fh:
            block = fh.readlines()[1:]
        if not any('"' in line for line in block):
            dtype = np.dtype([(f"c{j}", np.float64) for j in range(width)])
            bulk = layout._bulk(block, width, list(range(width)), dtype, (), None, delimiter,
                                missing)
            if bulk is not None:
                got = [list(r) for r in bulk[0].tolist()]
                assert all(_same_float(a, b) for g, e in zip(got, expected) for a, b in zip(g, e))

    def test_bulk_takes_plain_numbers(self):
        lines = ["1.5,-0,nan\r\n", " 2 ,inf,-1e999\r\n", "3,1e-320,.5\n"]
        dtype = np.dtype([(f"c{j}", np.float64) for j in range(3)])
        values, _ = layout._bulk(lines, 3, [0, 1, 2], dtype, (), None, ",")
        expected = [1.5, -0.0, math.nan, 2.0, math.inf, -math.inf, 3.0, 1e-320, 0.5]
        got = [v for row in values.tolist() for v in row]
        assert all(_same_float(a, b) for a, b in zip(got, expected)) and len(got) == 9


    def test_bulk_reads_missing_spellings_as_nan(self):
        lines = ["NA,1.5,\r\n", "null,,N/A\r\n", "?,nan,.\n"]
        dtype = np.dtype([(f"c{j}", np.float64) for j in range(3)])
        assert layout._bulk(lines, 3, [0, 1, 2], dtype, (), None, ",") is None
        values, _ = layout._bulk(lines, 3, [0, 1, 2], dtype, (), None, ",", _MISSING_CELLS)
        got = [v for row in values.tolist() for v in row]
        assert got[1] == 1.5 and sum(map(math.isnan, got)) == 8

    def test_missing_spellings_are_missing_cells(self):
        assert all(math.isnan(_parse_cell(c)) for c in _MISSING_CELLS)

    @settings(max_examples=300, deadline=None)
    @given(_CELLS | st.text(max_size=6))
    def test_parse_cell_matches_the_stripping_rule(self, text):
        # the cell rule before float() was left to strip the padding itself
        stripped = text.strip()
        if stripped == "" or stripped.lower() in ("na", "nan", "null", "none"):
            expected = math.nan
        else:
            try:
                expected = float(stripped)
            except ValueError:
                expected = math.nan
        assert _same_float(_parse_cell(text), expected)

    @settings(max_examples=200, deadline=None)
    @given(rule=st.sampled_from(["parse_cell", "int-float"]), data=st.data())
    def test_padding_reads_alike_with_and_without_a_row_path_fallback(self, tmp_path_factory,
                                                                      rule, data):
        ints = (0,) if rule == "int-float" else ()
        numbers = st.integers(-10**18, 10**18).map(str)
        if not ints:
            numbers |= st.floats(allow_nan=False).map(repr)
        pad = st.text(_PADDING, max_size=3)
        cells = data.draw(st.lists(st.tuples(pad, numbers, pad), min_size=1, max_size=12))
        path = tmp_path_factory.mktemp("padded") / "t.csv"

        def column(fallback):
            # "1_000" is a number to float() but not to np.loadtxt: its block goes row by row
            lines = [f"{left}{number}{right},{'1_000' if fallback and i == 0 else 1}\n"
                     for i, (left, number, right) in enumerate(cells)]
            path.write_text("a,b\n" + "".join(lines), encoding="utf-8")

            def row(record, number):
                assert fallback, f"row {number} parsed row by row"
                if rule == "parse_cell":
                    return [_parse_cell(c) for c in record]
                return [int(record[0].strip()), float(record[1].strip())]

            with open(path, newline="", encoding="utf-8") as fh:
                next(fh)
                (values, other), _ = layout.parse_columns(fh, path, 2, [0, 1], ints=ints, row=row)
            assert other[0] == (1000.0 if fallback else 1.0)
            return values

        bulk, by_row = column(False), column(True)
        assert bulk.dtype == by_row.dtype
        assert bulk.tolist() == by_row.tolist() == [
            (int if ints else float)(number) for _, number, _ in cells]

    def test_integer_cells_that_numpy_reads_through_float_are_refused(self, monkeypatch):
        # numpy versions that still read "1.5" into an int64 column only warn
        def warn_and_truncate(lines, dtype, **kw):
            import warnings
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning, stacklevel=2)
            return np.ones(len(lines), dtype=dtype)

        monkeypatch.setattr(layout.np, "loadtxt", warn_and_truncate)
        dtype = np.dtype([("c0", np.int64)])
        assert layout._bulk(["1.5\n"], 1, [0], dtype, (), None, ",") is None


def _cohort_text(n, planted=()):
    """A valid ``x,t,y`` cohort of ``n`` rows, with ``(data row index, line)`` swaps."""
    lines = {i: f"{i * 0.25!r},{i % 2},{i * 0.5!r}" for i in range(n)}
    lines.update(planted)
    return "x,t,y\n" + "".join(lines[i] + "\n" for i in range(n))


class TestErrorsBeyondTheFirstBlock:
    N = 3 * layout.BLOCK_ROWS + 5
    WHERE = [layout.BLOCK_ROWS, 3 * layout.BLOCK_ROWS + 4]  # first row of block 2; last row

    @pytest.mark.parametrize("index", WHERE)
    @pytest.mark.parametrize(("line", "message"), [
        ("1.0,1", "row {row} has 2 fields, expected 3"),
        ("1.0,1,2.0,9", "row {row} has 4 fields, expected 3"),
        ("1.0, 2 ,2.0", "row {row}: treatment column 't' must be 0 or 1, got '2'"),
        ("1.0,NA,2.0", "row {row}: treatment column 't' must be 0 or 1, got 'NA'"),
        ("1.0,1,", "row {row}: outcome column 'y' is missing"),
        ("1.0,0,nan", "row {row}: outcome column 'y' is missing"),
    ])
    def test_load_table_names_the_row(self, tmp_path, index, line, message):
        path = write_csv(tmp_path, _cohort_text(self.N, {index: line}))
        with pytest.raises(SchemaError) as info:
            load_table(path, SCHEMA)
        # the header is row 1
        assert str(info.value) == f"{path}: " + message.format(row=index + 2)

    def test_first_fault_in_row_order_wins_within_a_block(self, tmp_path):
        start = layout.BLOCK_ROWS
        path = write_csv(tmp_path, _cohort_text(self.N, {start + 3: "1.0,1", start + 1: "1.0,7,1.0",
                                                         start + 2: "1.0,1,"}))
        with pytest.raises(SchemaError, match=f"row {start + 3}: treatment column 't'"):
            load_table(path, SCHEMA)

    @pytest.mark.parametrize("start", [layout.BLOCK_ROWS - 1, 3])
    def test_rows_count_records_after_a_quoted_line_break(self, tmp_path, start):
        # the note of row `start` spans two lines, across a block's end at BLOCK_ROWS - 1
        lines = [f"{i * 0.25!r},{i % 2},{i * 0.5!r},n{i}" for i in range(self.N)]
        lines[start] = f'{start * 0.25!r},{start % 2},{start * 0.5!r},"see, \r\nnext"'
        lines[self.N - 1] = "1.0,3,1.0,x"
        path = tmp_path / "notes.csv"
        path.write_text("x,t,y,note\n" + "\n".join(lines) + "\n", newline="")
        schema = TableSchema(treatment="t", outcome="y", ignore=("note",))
        with pytest.raises(SchemaError, match=f"row {self.N + 1}: treatment column 't'"):
            load_table(path, schema)
        lines[self.N - 1] = "1.0,1,1.0,x"
        path.write_text("x,t,y,note\n" + "\n".join(lines) + "\n", newline="")
        data = load_table(path, schema)
        assert data.n == self.N and data.column_names == ["x"]
        np.testing.assert_array_equal(data.covariates[:-1, 0], np.arange(self.N - 1) * 0.25)

    def test_missing_covariates_past_the_first_block_are_nan(self, tmp_path):
        planted = {i: f"{word},1,1.0" for i, word in zip(self.WHERE, ["NA", " "])}
        data = load_table(write_csv(tmp_path, _cohort_text(self.N, planted)), SCHEMA)
        assert np.flatnonzero(np.isnan(data.covariates[:, 0])).tolist() == self.WHERE
        assert data.covariates[5, 0] == 1.25 and data.n == self.N

    @pytest.mark.parametrize("index", WHERE)
    @pytest.mark.parametrize("code", [5.0, -1.0, 0.5])
    def test_load_dataset_names_the_split_code_row(self, tmp_path, index, code):
        n = self.N
        split = np.array(["train", "validation", "test"] * n)[:n]
        data = make_dataset(np.arange(2.0 * n).reshape(n, 2), np.arange(n) % 2, np.ones(n),
                            split=split)
        path = tmp_path / "d.npy"
        desc = save_dataset(data, path)
        matrix = np.load(path)
        matrix[index, 1] = code
        np.save(path, matrix)
        with pytest.raises(StageError) as info:
            load_dataset(path, desc)
        assert str(info.value) == (
            f"{path}: row {index + 1} has split code {code!r}; rerun the 'ingest' stage"
        )

    @pytest.mark.parametrize("index", WHERE)
    def test_read_columns_names_a_ragged_row(self, tmp_path, index):
        n = self.N
        data = make_dataset(np.arange(2.0 * n).reshape(n, 2), np.arange(n) % 2, np.ones(n))
        header = _dataset_table(data, tmp_path / "d.csv")
        lines = (tmp_path / "d.csv").read_text().splitlines()
        lines[index + 1] += ",9.0"
        (tmp_path / "d.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=f"row {index + 1} has 7 fields, expected 6"):
            _read_dataset_table(tmp_path / "d.csv", header)

    @pytest.mark.parametrize("index", WHERE)
    @pytest.mark.parametrize(("column", "cell"), [(0, "1.5"), (0, "nan"), (0, "1e3"), (2, "1.9")])
    def test_read_columns_refuses_an_integer_cell_that_is_not_one(self, tmp_path, index, column,
                                                                   cell):
        n = self.N
        data = make_dataset(np.arange(2.0 * n).reshape(n, 2), np.arange(n) % 2, np.ones(n))
        header = _dataset_table(data, tmp_path / "d.csv")
        lines = (tmp_path / "d.csv").read_text().splitlines()
        row = lines[index + 1].split(",")
        row[column] = cell  # row_id or treatment
        lines[index + 1] = ",".join(row)
        (tmp_path / "d.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"invalid literal for int.*'{cell}'"):
            _read_dataset_table(tmp_path / "d.csv", header)

    def test_missing_spellings_past_the_first_block_take_the_bulk_parse(self, tmp_path,
                                                                        monkeypatch):
        planted = {i: f"{word},1,1.0" for i, word in zip(self.WHERE, ["NA", ""])}
        path = write_csv(tmp_path, _cohort_text(self.N, planted))

        def no_row_by_row(record, number):
            raise AssertionError(f"row {number} parsed row by row")

        with open(path, newline="") as fh:
            next(fh)
            (x, t, y), _ = layout.parse_columns(fh, path, 3, [0, 1, 2], row=no_row_by_row,
                                               missing=_MISSING_CELLS, first_row=2)
        assert np.flatnonzero(np.isnan(x)).tolist() == self.WHERE
        assert load_table(path, SCHEMA).n == self.N

    def test_quoted_cells_reload_past_the_first_block(self, tmp_path):
        n = self.N
        names = ["a", "b, c"]
        data = make_dataset(np.arange(2.0 * n).reshape(n, 2), np.arange(n) % 2, np.ones(n),
                            columns=[ColumnInfo(k, "numeric") for k in names])
        header = _dataset_table(data, tmp_path / "d.csv")
        lines = (tmp_path / "d.csv").read_text().splitlines()
        row = lines[self.WHERE[0] + 1].split(",")
        lines[self.WHERE[0] + 1] = ",".join([*row[:4], f'"{row[4]}"', row[5]])
        (tmp_path / "d.csv").write_text("\n".join(lines) + "\n")
        (row_ids, treatment, outcome, *covariates), (split,) = _read_dataset_table(
            tmp_path / "d.csv", header)
        np.testing.assert_array_equal(np.stack(covariates, axis=1), data.covariates)
        np.testing.assert_array_equal(row_ids, data.row_ids)
        np.testing.assert_array_equal(treatment, data.treatment)
        assert split == [""] * n


class TestByteOrderMark:
    @pytest.mark.parametrize("text", ["t,x0,y\n1,0.5,2.0\n0,1.5,3.0\n",
                                      "x0,t,y\n0.5,1,2.0\n1.5,0,3.0\n"])
    def test_a_leading_bom_is_not_part_of_the_first_name(self, tmp_path, text):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        data = load_table(path, TableSchema(treatment="t", outcome="y"))
        assert data.column_names == ["x0"]
        np.testing.assert_array_equal(data.treatment, [1, 0])
        np.testing.assert_array_equal(data.covariates[:, 0], [0.5, 1.5])


class TestPerModelValues:
    """defer and evaluate read each model's rows of a per-model artifact."""

    N = layout.BLOCK_ROWS + 10

    def stored(self, tmp_path, models, row_ids):
        io = layout.StageIO(tmp_path, "defer")
        tau = np.arange(len(models), dtype=float) / 8
        layout.write_table(io.out(layout.CATE_ESTIMATES), layout.HEADERS[layout.CATE_ESTIMATES],
                           [models, row_ids, tau, tau - 1, tau + 1])
        return io

    def test_rows_in_test_order_are_read_per_model(self, tmp_path):
        test = make_dataset(np.zeros((self.N, 1)), np.zeros(self.N, dtype=int), np.zeros(self.N))
        ids = np.arange(self.N)
        # the two models' rows interleave, each in test order
        io = self.stored(tmp_path, np.tile(["a", "b,c"], self.N), np.repeat(ids, 2))
        out = pipeline._per_model_values(io, layout.CATE_ESTIMATES, test, ["a", "b,c"], 3)
        tau = np.arange(2 * self.N) / 8
        for name, lines in (("a", slice(0, None, 2)), ("b,c", slice(1, None, 2))):
            assert out[name].flags["C_CONTIGUOUS"]
            np.testing.assert_array_equal(out[name], [tau[lines], tau[lines] - 1, tau[lines] + 1])

    @pytest.mark.parametrize("cell", ["1.5", "nan"])
    def test_a_row_id_that_is_not_an_integer_is_refused(self, tmp_path, cell):
        test = make_dataset(np.zeros((self.N, 1)), np.zeros(self.N, dtype=int), np.zeros(self.N))
        io = self.stored(tmp_path, np.full(self.N, "a"), np.arange(self.N))
        full = tmp_path / layout.CATE_ESTIMATES
        lines = full.read_text().splitlines()
        row = lines[self.N].split(",")
        row[1] = cell
        lines[self.N] = ",".join(row)
        full.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"invalid literal for int.*'{cell}'"):
            pipeline._per_model_values(io, layout.CATE_ESTIMATES, test, ["a"], 3)

    @pytest.mark.parametrize("how", ["swapped", "missing-row", "missing-model"])
    def test_reordered_or_missing_rows_ask_for_a_rerun(self, tmp_path, how):
        test = make_dataset(np.zeros((self.N, 1)), np.zeros(self.N, dtype=int), np.zeros(self.N))
        ids = np.arange(self.N)
        if how == "swapped":
            ids[[layout.BLOCK_ROWS - 1, layout.BLOCK_ROWS]] = ids[[layout.BLOCK_ROWS,
                                                                  layout.BLOCK_ROWS - 1]]
        elif how == "missing-row":
            ids = np.delete(ids, layout.BLOCK_ROWS + 3)
        io = self.stored(tmp_path, np.full(len(ids), "b" if how == "missing-model" else "a"), ids)
        with pytest.raises(StageError, match="rows for model 'a' are missing or do not line up"):
            pipeline._per_model_values(io, layout.CATE_ESTIMATES, test, ["a"], 3)


class TestReadByModel:
    HEADER = ("model", "row_id", "value")

    def test_round_trip_through_write_table(self, tmp_path):
        # two blocks of interleaved models; "b,c" is written quoted, and "d"
        # first appears in the second block
        n = layout.BLOCK_ROWS + 10
        models = np.tile(["b,c", "a"], n)
        models[-3:] = "d"
        row_ids = np.arange(2 * n)[::-1]
        values = np.arange(2 * n) / 8
        path = tmp_path / "t.csv"
        layout.write_table(path, self.HEADER, [models, row_ids, values])
        assert path.read_text().splitlines()[1] == f'"b,c",{2 * n - 1},0.0'
        out = layout.read_by_model(path, self.HEADER, [1, 2], ints=(1,))
        assert list(out) == ["b,c", "a", "d"]
        for name, (ids, vals) in out.items():
            rows = models == name
            assert ids.dtype == np.int64 and vals.dtype == np.float64
            np.testing.assert_array_equal(ids, row_ids[rows])
            np.testing.assert_array_equal(vals, values[rows])

    def test_a_table_without_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        layout.write_table(path, self.HEADER, [np.array([], dtype=str), np.array([], dtype=int),
                                               np.array([])])
        assert layout.read_by_model(path, self.HEADER, [1, 2], ints=(1,)) == {}
