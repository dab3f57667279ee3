"""The benchmark's tracer still finds every layer it times and counts, and
the program still accepts every benchmark config.

``perfbench/layertrace.py`` wraps program functions by name, so renaming one
would quietly zero its per-layer metrics.  This runs one traced pipeline in a
child process, as ``perfbench/run.py`` does, on a small cohort.
"""

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys

from treatpolicy.config import load_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")

# the tracer still lists this function, which the program no longer has
STALE = "policy_eval.estimate_policy_value: "


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(PERFBENCH, "workloads.py")
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_traced_run_finds_every_layer(tmp_path):
    workloads = _workloads()
    workload = dataclasses.replace(workloads.WORKLOADS["smoke"], rows=300)
    files = workloads.write_inputs(workload, 0, str(tmp_path))
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src"), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1"}
    # one CPU, so that no fit runs in a worker process, where the tracer's wrappers
    # count into the worker's copy; the child inherits this thread's affinity
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        subprocess.run(
            [sys.executable, os.path.join(PERFBENCH, "child.py"), "run", files["config"],
             "result.json", "--trace"],
            cwd=tmp_path, env=env, check=True, capture_output=True, timeout=300,
        )
    finally:
        os.sched_setaffinity(0, cpus)
    result = json.loads((tmp_path / "result.json").read_text())
    assert [e for e in result["errors"] if not e.startswith(STALE)] == []
    assert result["counters"]["report.svg_bytes"] > 0
    # the counter binds save_dataset's path parameter by name; a rename would zero it
    assert result["counters"]["ingest.dataset_bytes"] == os.path.getsize(
        tmp_path / "out" / "data" / "dataset.npy")
    assert result["counters"]["cate.refits"] > 0


def test_every_workload_config_validates(tmp_path):
    """A schema change that refused a benchmark config would fail every benchmark run."""
    workloads = _workloads()
    for name, workload in workloads.WORKLOADS.items():
        work = tmp_path / name
        work.mkdir()
        files = workloads.write_inputs(workload, 0, str(work))
        cfg = load_config(work / files["config"])
        assert cfg.echo["cate"]["menu"].keys() == workload.menu.keys()
