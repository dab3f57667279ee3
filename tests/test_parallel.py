"""pmap: an ordered map over forked workers, and artifacts that do not depend on it."""

import errno
import hashlib
import multiprocessing
import os
import shutil
import sys

import numpy as np
import pytest
from conftest import pipeline_raw, see_cpus, write_observational_csv

from treatpolicy import layout
from treatpolicy.config import validate_config
from treatpolicy.errors import DataError
from treatpolicy.parallel import pmap
from treatpolicy.pipeline import run_pipeline

forks = pytest.mark.skipif(
    sys.platform != "linux" or sys.version_info >= (3, 12),
    reason="pmap starts workers on Linux before Python 3.12 only",
)


@pytest.fixture
def two_cpus(monkeypatch):
    see_cpus(monkeypatch, 2)


@pytest.fixture
def no_pool(monkeypatch):
    def refuse(method):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(multiprocessing, "get_context", refuse)


def tagged(x):
    return x, os.getpid()


@forks
@pytest.mark.usefixtures("two_cpus")
class TestPool:
    def test_results_come_back_in_item_order_from_workers(self):
        out = list(pmap(lambda x: (x * x, os.getpid()), (x for x in range(25))))
        assert [v for v, _ in out] == [x * x for x in range(25)]
        assert os.getpid() not in {pid for _, pid in out}
        assert multiprocessing.active_children() == []

    def test_a_task_error_reaches_the_caller_and_no_worker_is_left(self):
        def fit(x):
            if x == 7:
                raise DataError(f"planted failure on item {x}")
            return x

        with pytest.raises(DataError, match="planted failure on item 7") as raised:
            list(pmap(fit, range(20)))
        assert type(raised.value) is DataError  # the CLI exits 3 on it
        assert multiprocessing.active_children() == []

    def test_a_pmap_inside_a_worker_runs_in_that_worker(self):
        def outer(x):
            return os.getpid(), [pid for _, pid in pmap(tagged, range(4))]

        for pid, inner in list(pmap(outer, range(3))):
            assert pid != os.getpid()
            assert inner == [pid] * 4


@pytest.mark.usefixtures("two_cpus", "no_pool")
def test_zero_or_one_item_starts_no_pool():
    assert list(pmap(tagged, [])) == []
    assert list(pmap(tagged, iter([5]))) == [(5, os.getpid())]


@pytest.mark.usefixtures("one_worker", "no_pool")
def test_one_cpu_runs_the_loop_in_this_process():
    assert list(pmap(tagged, range(6))) == [(x, os.getpid()) for x in range(6)]


@forks
def test_artifacts_do_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    csv_path = tmp_path / "table.csv"
    write_observational_csv(csv_path, n=300)
    gbt = {"kind": "gbt", "n_trees": 10, "max_depth": 2, "min_samples_leaf": 5}
    raw = pipeline_raw(
        csv_path, tmp_path / "out",
        cate={"menu": {"t-gbt": {"kind": "t", "learner": gbt},
                       "t-ridge": {"kind": "t", "learner": {"kind": "ridge", "lam": 1.0}}}},
        uncertainty={"alpha_stat": 0.8, "b_boot": 6},
        evaluation={"bootstrap_b": 40, "plug_in": gbt},
        simulation={"enabled": True, "runs": 2, "seed": 3},
    )
    cfg = validate_config(raw)
    out = tmp_path / "out"
    pools, get_context = [], multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: pools.append(method) or get_context(method))
    outputs = []
    for cpus in (1, 2):
        shutil.rmtree(out, ignore_errors=True)
        with monkeypatch.context() as m:
            see_cpus(m, cpus)
            run_pipeline(cfg)
        outputs.append({p.relative_to(out).as_posix(): p.read_bytes()
                        for p in out.rglob("*") if p.is_file()})
        if cpus == 1:
            assert pools == []
    # the gbt refits, the two study runs and the gbt plug-in arms of evaluate
    assert pools == ["fork"] * 3
    assert sorted(outputs[0]) == sorted(outputs[1])
    assert [rel for rel in sorted(outputs[0]) if outputs[0][rel] != outputs[1][rel]] == []


@pytest.fixture
def pools(monkeypatch):
    """The start method of every pool that pmap starts."""
    started, get_context = [], multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: started.append(method) or get_context(method))
    return started


def loop_and_forked(monkeypatch, run):
    """``run()`` at one CPU, and at two with every table over the fork cutoff."""
    with monkeypatch.context() as m:
        see_cpus(m, 1)
        loop = run()
    with monkeypatch.context() as m:
        see_cpus(m, 2)
        m.setattr(layout, "FORK_CELLS", 1)
        return loop, run()


ROWS = 5 * layout.BLOCK_ROWS + 17
HEADER = ["row_id", "label", "flag", "value", "count"]


def codec_columns(quote_at=None):
    """Text, bool, float and int columns; a label holding a comma and a
    quote at row ``quote_at``, so the file is quoted from there on."""
    rng = np.random.default_rng(11)
    labels = rng.choice(["train", "test", "validation", "é x"], ROWS).astype("<U12")
    if quote_at is not None:
        labels[quote_at] = 'a,"b"'
    values = rng.normal(size=ROWS) * 10.0 ** rng.integers(-300, 300, ROWS)
    values[::97] = np.nan
    values[5::101] = -np.inf
    return [np.arange(ROWS), labels, rng.random(ROWS) < 0.5, values,
            rng.integers(-2**62, 2**62, ROWS)]


def read_back(path):
    return layout.read_columns(path, HEADER, [0, 2, 3, 4], ints=(0, 2, 4), text=(1,))


@forks
class TestForkedCodec:
    """write_table writes what the one-CPU loop writes when its blocks are
    formatted in workers."""

    @pytest.mark.parametrize("quote_at", [None, 3 * layout.BLOCK_ROWS + 5])
    def test_write_table_bytes_and_sha256(self, tmp_path, monkeypatch, pools, quote_at):
        columns = codec_columns(quote_at)
        paths = iter([tmp_path / "loop.csv", tmp_path / "forked.csv"])

        def run():
            path = next(paths)
            return layout.write_table(path, HEADER, columns), path.read_bytes()

        loop, forked = loop_and_forked(monkeypatch, run)
        assert pools == ["fork"]
        assert forked == loop
        assert loop[0] == hashlib.sha256(loop[1]).hexdigest()
        assert (b'"a,""b"""' in loop[1]) == (quote_at is not None)

    def test_a_failed_write_stops_the_workers(self, tmp_path, monkeypatch, pools):
        see_cpus(monkeypatch, 2)
        monkeypatch.setattr(layout, "FORK_CELLS", 1)

        class FillingDisk:
            """A file that takes the header and one block, then is full."""

            def __init__(self, path, mode):
                self.fh, self.writes = open(path, mode), 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.writes += 1
                if self.writes > 2:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return self.fh.write(data)

        monkeypatch.setattr(layout, "open", FillingDisk, raising=False)
        with pytest.raises(OSError) as raised:
            layout.write_table(tmp_path / "t.csv", HEADER, codec_columns())
        assert raised.value.errno == errno.ENOSPC
        assert pools == ["fork"]
        # the error, and the frames its traceback holds, are still alive here
        assert multiprocessing.active_children() == []

    def test_tables_are_read_in_this_process(self, tmp_path, monkeypatch, pools):
        see_cpus(monkeypatch, 2)
        layout.write_table(tmp_path / "t.csv", HEADER, codec_columns())
        monkeypatch.setattr(layout, "FORK_CELLS", 1)
        assert len(read_back(tmp_path / "t.csv")[1][0]) == ROWS
        assert pools == []

    def test_small_tables_start_no_pool(self, tmp_path, monkeypatch, pools):
        see_cpus(monkeypatch, 2)
        columns = codec_columns()
        assert ROWS * len(columns) < layout.FORK_CELLS
        layout.write_table(tmp_path / "t.csv", HEADER, columns)
        assert pools == []
