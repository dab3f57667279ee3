import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treatpolicy import layout
from treatpolicy.errors import DataError, SchemaError
from treatpolicy.ingest import (
    Dataset,
    ColumnInfo,
    TableSchema,
    assign_splits,
    impute_and_flag,
    load_dataset,
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
        np.testing.assert_allclose(data.secondary["y2"], [5.0])


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
        data = make_dataset([[1.0], [2.0]], [0, 1], [0, 0])
        out, flagged = impute_and_flag(data)
        assert out.column_names == ["x0"]
        assert flagged == ()

    def test_idempotent(self):
        cov = [[1.0], [np.nan], [3.0]]
        data = make_dataset(cov, [0, 1, 0], [0, 0, 0])
        once, _ = impute_and_flag(data)
        twice, _ = impute_and_flag(once)
        np.testing.assert_array_equal(once.covariates, twice.covariates)
        assert once.column_names == twice.column_names

    def test_entirely_missing_train_column_is_error(self):
        data = make_dataset([[np.nan], [np.nan]], [0, 1], [0, 0])
        with pytest.raises(DataError, match="x0"):
            impute_and_flag(data)

    def test_original_dataset_not_mutated(self):
        cov = np.array([[np.nan], [2.0]])
        data = make_dataset(cov, [0, 1], [0, 0])
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
        table = summarize(data, group_by=np.array([False, False, True, True]),
                          group_names=("recommended", "deferred"))
        rows = table.to_csv_rows()
        assert rows[0] == ["column", "statistic", "missing", "overall",
                           "recommended", "deferred"]
        by_col = {r[0]: r for r in rows[1:]}
        assert by_col["age"][1] == "mean (SD)"
        assert by_col["age"][3] == "2.50 (1.29)"
        assert by_col["flag"][1] == "n (%)"
        assert by_col["flag"][3] == "2 (50.0%)"
        assert by_col["flag"][4] == "1 (50.0%)"
        assert by_col["treatment"][1] == "n (%)"

    def test_missing_counted(self):
        data = make_dataset([[np.nan], [2.0]], [0, 1], [0.0, 1.0])
        table = summarize(data)
        row = next(r for r in table.rows if r["column"] == "x0")
        assert row["missing"] == 1
        assert row["overall"] == "2.00 (0.00)"


class TestRoundTrip:
    def test_save_load_bit_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        cov = rng.normal(size=(7, 3))
        data = make_dataset(cov, rng.integers(0, 2, 7), rng.normal(size=7),
                            split=["train"] * 4 + ["validation"] * 1 + ["test"] * 2)
        data.secondary["aux"] = rng.normal(size=7)
        desc = save_dataset(data, tmp_path / "d.csv")
        back = load_dataset(tmp_path / "d.csv", desc)
        np.testing.assert_array_equal(back.covariates, data.covariates)
        np.testing.assert_array_equal(back.outcome, data.outcome)
        np.testing.assert_array_equal(back.treatment, data.treatment)
        np.testing.assert_array_equal(back.split, data.split)
        np.testing.assert_array_equal(back.secondary["aux"], data.secondary["aux"])
        np.testing.assert_array_equal(back.row_ids, data.row_ids)

    @pytest.mark.parametrize("edit", ["extra", "missing"])
    def test_row_with_wrong_cell_count_rejected(self, tmp_path, edit):
        data = make_dataset(np.arange(6.0).reshape(3, 2), [0, 1, 0], [1.0, 2.0, 3.0])
        desc = save_dataset(data, tmp_path / "d.csv")
        lines = (tmp_path / "d.csv").read_text().splitlines()
        lines[2] = lines[2] + ",9.0" if edit == "extra" else lines[2].rsplit(",", 1)[0]
        (tmp_path / "d.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="row 2"):
            load_dataset(tmp_path / "d.csv", desc)

    def test_mismatched_header_rejected(self, tmp_path):
        data = make_dataset(np.arange(6.0).reshape(3, 2), [0, 1, 0], [1.0, 2.0, 3.0])
        desc = save_dataset(data, tmp_path / "d.csv")
        desc["columns"][1]["name"] = "renamed"
        with pytest.raises(SchemaError, match="header does not match"):
            load_dataset(tmp_path / "d.csv", desc)

    def test_unsplit_dataset_reloads_without_split(self, tmp_path):
        data = make_dataset(np.arange(6.0).reshape(3, 2), [0, 1, 0], [1.0, 2.0, 3.0])
        back = load_dataset(tmp_path / "d.csv", save_dataset(data, tmp_path / "d.csv"))
        assert back.split is None
        np.testing.assert_array_equal(back.covariates, data.covariates)

    def test_unknown_split_label_names_its_row(self, tmp_path):
        data = make_dataset(np.arange(6.0).reshape(3, 2), [0, 1, 0], [1.0, 2.0, 3.0],
                            split=["train", "trian", "test"])
        desc = save_dataset(data, tmp_path / "d.csv")
        with pytest.raises(SchemaError, match="row 2 has split label 'trian'"):
            load_dataset(tmp_path / "d.csv", desc)

    def test_empty_split_label_among_labels_names_its_row(self, tmp_path):
        data = make_dataset(np.arange(6.0).reshape(3, 2), [0, 1, 0], [1.0, 2.0, 3.0],
                            split=["train", "test", ""])
        desc = save_dataset(data, tmp_path / "d.csv")
        with pytest.raises(SchemaError, match="row 3 has split label ''"):
            load_dataset(tmp_path / "d.csv", desc)

    def test_covariates_named_like_fixed_columns_round_trip(self, tmp_path):
        names = ["row_id", "split", "age, years", 'say "x"']
        cov = np.arange(12.0).reshape(3, 4) - 5.5
        data = make_dataset(cov, [0, 1, 0], [1.0, 2.0, 3.0], split=["train", "test", "test"],
                            columns=[ColumnInfo(n, "numeric") for n in names])
        back = load_dataset(tmp_path / "d.csv", save_dataset(data, tmp_path / "d.csv"))
        assert back.column_names == names
        np.testing.assert_array_equal(back.covariates, cov)
        np.testing.assert_array_equal(back.row_ids, [0, 1, 2])
        np.testing.assert_array_equal(back.split, ["train", "test", "test"])

    def test_reloaded_covariates_are_c_contiguous(self, tmp_path):
        data = make_dataset(np.arange(12.0).reshape(4, 3), [0, 1, 0, 1], [1.0, 2.0, 3.0, 4.0])
        data.secondary["aux"] = np.ones(4)
        back = load_dataset(tmp_path / "d.csv", save_dataset(data, tmp_path / "d.csv"))
        assert back.covariates.flags["C_CONTIGUOUS"]


def _per_row_save_dataset(data, csv_path):
    """The dataset writer before the table codec: one formatted row at a time."""
    sec_names = sorted(data.secondary)
    header = ["row_id", "split", "treatment", "outcome", *sec_names, *data.column_names]
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
            row += [repr(float(data.secondary[k][i])) for k in sec_names]
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
        rows = list(layout.read_table(path, header))
        assert len(rows) == len(columns[0])
        assert next(layout.read_table(path)) == header
        for j, (kind, column) in enumerate(zip(kinds, columns)):
            cells = [row[j] for row in rows]
            if kind == "float":
                assert all(_same_float(float(c), v) for c, v in zip(cells, column.tolist()))
            elif kind == "str":
                assert cells == list(column)
            else:
                assert [int(c) for c in cells] == [int(v) for v in column.tolist()]

    @pytest.mark.parametrize("split", [True, False])
    def test_dataset_bytes_match_the_per_row_writer_across_blocks(self, tmp_path, split):
        rng = np.random.default_rng(3)
        n = 2 * layout.BLOCK_ROWS + 3
        cov = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-300, 300, size=(n, 3))
        cov[layout.BLOCK_ROWS - 2 : layout.BLOCK_ROWS + 6, 1] = _SPECIAL_FLOATS
        names = ["a", "b, c", 'd"e']
        data = make_dataset(cov, rng.integers(0, 2, n), rng.normal(size=n),
                            columns=[ColumnInfo(k, "numeric") for k in names],
                            split=rng.choice(["train", "validation", "test"], n) if split else None)
        data.secondary["aux"] = rng.normal(size=n)
        _per_row_save_dataset(data, tmp_path / "old.csv")
        save_dataset(data, tmp_path / "new.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_reader_checks_header_and_row_width(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\r\n1,2\r\n3\r\n")
        with pytest.raises(SchemaError, match="header does not match"):
            list(layout.read_table(path, ["a", "c"]))
        with pytest.raises(SchemaError, match="row 2 has 1 fields, expected 2"):
            list(layout.read_table(path, ["a", "b"]))

    def test_writer_rejects_columns_that_do_not_fit_the_header(self, tmp_path):
        with pytest.raises(ValueError):
            layout.write_table(tmp_path / "t.csv", ["a", "b"], [[1.0, 2.0], [1.0]])
        with pytest.raises(ValueError):
            layout.write_table(tmp_path / "t.csv", ["a"], [[1.0], [2.0]])
