"""pmap: an ordered map over forked workers, and artifacts that do not depend on it."""

import multiprocessing
import os
import shutil
import sys

import pytest
from conftest import pipeline_raw, see_cpus, write_observational_csv

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
        out = pmap(lambda x: (x * x, os.getpid()), (x for x in range(25)))
        assert [v for v, _ in out] == [x * x for x in range(25)]
        assert os.getpid() not in {pid for _, pid in out}
        assert multiprocessing.active_children() == []

    def test_a_task_error_reaches_the_caller_and_no_worker_is_left(self):
        def fit(x):
            if x == 7:
                raise DataError(f"planted failure on item {x}")
            return x

        with pytest.raises(DataError, match="planted failure on item 7") as raised:
            pmap(fit, range(20))
        assert type(raised.value) is DataError  # the CLI exits 3 on it
        assert multiprocessing.active_children() == []

    def test_a_pmap_inside_a_worker_runs_in_that_worker(self):
        def outer(x):
            return os.getpid(), [pid for _, pid in pmap(tagged, range(4))]

        for pid, inner in pmap(outer, range(3)):
            assert pid != os.getpid()
            assert inner == [pid] * 4


@pytest.mark.usefixtures("two_cpus", "no_pool")
def test_zero_or_one_item_starts_no_pool():
    assert pmap(tagged, []) == []
    assert pmap(tagged, iter([5])) == [(5, os.getpid())]


@pytest.mark.usefixtures("one_worker", "no_pool")
def test_one_cpu_runs_the_loop_in_this_process():
    assert pmap(tagged, range(6)) == [(x, os.getpid()) for x in range(6)]


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
