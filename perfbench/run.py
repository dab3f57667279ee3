#!/usr/bin/env python3
"""Pipeline benchmark for treatpolicy.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --summary [--seed N] [--seconds S]
    python3 perfbench/run.py --self-test

Run from the root of a checkout; the program is imported from ``src``.

Each workload's cohort and config are generated from ``--seed``.  A run is
one full ``all`` pipeline in a fresh child process (closed loop, one client,
one pipeline process at a time); runs repeat until ``--seconds`` have passed.
Every run is checked against the effect planted in the cohort, and a run
that raises or fails a check counts as failed and its timings are dropped.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(medians over the passing runs).  With ``--trace 1`` it reports per-layer
metrics from one traced run, made after one untraced run of the same seed
into the same output path; the two output directories must be
byte-identical.  Provenance and every sample go to ``perfbench/out/results``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import layertrace
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(HERE, "out")

# The process must end within 180 s: no run starts unless the longest one
# so far would still end before this many seconds.
DEADLINE_S = 165.0
SETUP_PROBES = 7
MAIN_WORKLOADS = ("gbt-bootstrap", "eval-bootstrap", "large-cohort")

END_TO_END = {"total_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

_STAGE_METRICS = {f"stage.{s}_s": "s" for s in workloads.STAGES_SIM}
_SPAN_METRICS = {
    name + "_s": "s"
    for name in dict.fromkeys(n for n, *_ in layertrace.FUNCTIONS + layertrace.METHODS)
}
PER_LAYER = {
    **_STAGE_METRICS,
    "pipeline.untraced_s": "s",
    "pipeline.cpu_s": "s",
    **_SPAN_METRICS,
    "ingest.load_dataset.calls": "count",
    "ingest.dataset_bytes": "bytes",
    "learners.fit_gbt.calls": "count",
    "learners.fit_gbt.trees": "count",
    "learners.fit_linear.calls": "count",
    "learners.fit_linear.iters": "count",
    "learners.kendall_tau.calls": "count",
    "learners.kendall_tau.rss_rise_mb": "MB",
    "cate.fit_meta_learner.calls": "count",
    "cate.refits": "count",
    "cate.models_excluded": "count",
    "simulation.failed_runs": "count",
    "deferral.rows_deferred": "count",
    "policy_eval.estimate_policy_value.calls": "count",
    "policy_eval.replicate_evals": "count",
    "policy_eval.unique_replicate_ratio": "ratio",
    "policy_eval.rounds_skipped": "count",
    "report.svg_bytes": "bytes",
    "trace.total_s": "s",
    "trace.overhead_s": "s",
    "trace.peak_rss_mb": "MB",
}


class RunFailed(Exception):
    """A pipeline run raised, timed out, or failed a correctness check."""


# ------------------------------------------------------------ environment


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    threads = str(nproc())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    return env


def _git_revision():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    """sha256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "treatpolicy")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, SRC).encode() + b"\0")
            with open(full, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def dir_digest(path: str) -> str:
    """sha256 over every file's relative path and bytes under ``path``."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


# ------------------------------------------------------------ child runs


def setup_probe(work: str, config: str) -> float:
    """Seconds from spawning a fresh interpreter until its config is loaded."""
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, CHILD, "setup", config], cwd=work, env=child_env(),
                         capture_output=True, text=True, timeout=60)
    if out.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{out.stderr[-2000:]}")
    return float(out.stdout.strip().splitlines()[-1]) - t0


def pipeline_run(work: str, files: dict, traced: bool, timeout: float) -> dict:
    """One full pipeline in a fresh child; returns the child's result."""
    out_dir = os.path.join(work, files["output"])
    shutil.rmtree(out_dir, ignore_errors=True)
    result_path = os.path.join(work, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, CHILD, "run", files["config"], result_path]
    if traced:
        cmd.append("--trace")
    with open(os.path.join(work, "child.log"), "w") as log:
        proc = subprocess.Popen(cmd, cwd=work, env=child_env(), stdout=log, stderr=log)
        try:
            code = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RunFailed(f"pipeline run exceeded {timeout:.0f} s and was killed") from None
    if code != 0:
        with open(os.path.join(work, "child.log")) as fh:
            tail = fh.read()[-2000:]
        raise RunFailed(f"pipeline exited with code {code}:\n{tail}")
    with open(result_path) as fh:
        return json.load(fh)


# ------------------------------------------------------------ checks


def _read_csv(path: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def check_run(workload, work: str, files: dict) -> dict:
    """Check one run's output directory; raise RunFailed on the first defect.

    Returns the quality figures the checks computed.
    """
    out_dir = os.path.join(work, files["output"])
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    if list(manifest["stages"]) != list(workload.stages):
        raise RunFailed(f"manifest stages {manifest['stages']} != {list(workload.stages)}")
    missing = [a["path"] for a in manifest["artifacts"]
               if not os.path.isfile(os.path.join(out_dir, a["path"]))]
    if missing:
        raise RunFailed(f"listed artifacts missing: {missing}")

    truth_rows = _read_csv(os.path.join(work, files["truth"]))[1:]
    truth = np.array([float(tau) for _rid, tau in truth_rows])
    with open(os.path.join(out_dir, "cate", "gate.json")) as fh:
        gate = json.load(fh)
    retained = [m for m in workload.menu if not gate[m]["excluded"]]
    est: dict[str, tuple[list, list]] = {}
    for model, row_id, tau, _lo, _hi in _read_csv(os.path.join(out_dir, "cate", "estimates.csv"))[1:]:
        ids, taus = est.setdefault(model, ([], []))
        ids.append(int(row_id))
        taus.append(float(tau))
    if sorted(est) != sorted(retained):
        raise RunFailed(f"estimates cover {sorted(est)}, retained models are {sorted(retained)}")
    quality = {}
    for model, (ids, taus) in est.items():
        hat = np.asarray(taus)
        true = truth[np.asarray(ids)]
        if np.ptp(hat) <= 1e-9 * max(1.0, abs(hat[0])):
            gap = abs(float(hat[0]) - float(true.mean()))
            quality[model] = {"ate_gap": gap}
            if gap > workload.ate_tolerance:
                raise RunFailed(f"{model}: constant effect {hat[0]:.3f} is {gap:.3f} from "
                                f"the planted mean, tolerance {workload.ate_tolerance}")
        else:
            corr = float(np.corrcoef(hat, true)[0, 1])
            quality[model] = {"corr": corr}
            floor = workload.corr_floors[model]
            if not corr >= floor:
                raise RunFailed(f"{model}: correlation with the planted effect {corr:.3f} "
                                f"< floor {floor}")

    if workload.study_fidelity_floor is not None:
        with open(os.path.join(out_dir, "study", "study.json")) as fh:
            checks = json.load(fh)["checks"]
        # The study's own fidelity gate (0.9) is a three-run statistic that
        # misses on some cohorts; the benchmark holds it to a floor instead.
        fidelity = checks["fidelity"]["pearson_dr"]
        quality["study"] = {k: v.get("pass") for k, v in checks.items()}
        quality["study"]["pearson_dr"] = fidelity
        failed = sorted(k for k, v in checks.items() if k != "fidelity" and not v.get("pass"))
        if failed or not fidelity >= workload.study_fidelity_floor:
            raise RunFailed(f"study checks failed: {failed}, fidelity {fidelity:.3f} "
                            f"(floor {workload.study_fidelity_floor})")
    return {"config_hash": manifest["config_hash"], "quality": quality}


# ------------------------------------------------------------ measuring


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(workload, result: dict, work: str, files: dict) -> dict:
    """Per-layer metrics of one traced run."""
    spans = result["spans"]
    selfs = layertrace.self_times(spans)
    counters = result["counters"]
    m = {}
    for stage in workloads.STAGES_SIM:
        m[f"stage.{stage}_s"] = sum(s["end"] - s["start"] for s in spans
                                    if s["name"] == "stage." + stage)
    m["pipeline.untraced_s"] = sum(v for k, v in selfs.items() if k.startswith("stage."))
    m["pipeline.cpu_s"] = result["cpu_s"]
    for name in _SPAN_METRICS:
        m[name] = selfs.get(name[: -len("_s")], 0.0)
    with open(os.path.join(work, files["output"], "cate", "gate.json")) as fh:
        m["cate.models_excluded"] = sum(1 for g in json.load(fh).values() if g["excluded"])
    evals = counters.get("policy_eval.replicate_evals", 0)
    m["policy_eval.unique_replicate_ratio"] = result["unique_replicates"] / evals if evals else 0.0
    for name in PER_LAYER:
        m.setdefault(name, counters.get(name, 0))
    return m


def measure(name: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    """One benchmark run; returns the result line and the full record."""
    start = time.monotonic()
    workload = workloads.WORKLOADS[name]
    work = os.path.join(OUT, f"{name}-seed{seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    files = workloads.write_inputs(workload, seed, work)

    record = {
        "workload": name, "why": workload.why, "seed": seed, "seconds": seconds,
        "trace": int(traced), "git_revision": _git_revision(), "src_sha256": _src_digest(),
        "nproc": nproc(),
        "thread_env": {k: v for k, v in child_env().items() if k.endswith("_THREADS")},
        "runs": [], "problems": [],
    }

    def remaining():
        return DEADLINE_S - (time.monotonic() - start)

    def one_run(traced_run: bool) -> dict | None:
        try:
            result = pipeline_run(work, files, traced_run, timeout=remaining())
            result.update(check_run(workload, work, files))
        except Exception as exc:  # noqa: BLE001 - a bad run is counted as failed, not fatal
            record["problems"].append(
                str(exc) if isinstance(exc, RunFailed) else traceback.format_exc(limit=3))
            record["runs"].append({"traced": traced_run, "passed": False})
            return None
        record.update(config_hash=result["config_hash"], python=result["python"],
                      numpy=result["numpy"])
        record["runs"].append({"traced": traced_run, "passed": True,
                               **{k: v for k, v in result.items() if k != "spans"}})
        return result

    if traced:
        plain = one_run(False)
        digest_plain = plain and dir_digest(os.path.join(work, files["output"]))
        result = one_run(True)
        if result is None or plain is None:
            metrics = {k: 0.0 for k in PER_LAYER}
        else:
            metrics = layer_metrics(workload, result, work, files)
            metrics["trace.total_s"] = result["total_s"]
            metrics["trace.overhead_s"] = result["total_s"] - plain["total_s"]
            metrics["trace.peak_rss_mb"] = result["peak_rss_mb"]
            if dir_digest(os.path.join(work, files["output"])) != digest_plain:
                record["problems"].append("traced and untraced output directories differ")
            covered = sum(metrics[k] for k in _SPAN_METRICS) + metrics["pipeline.untraced_s"]
            if abs(covered - result["total_s"]) > 0.01 * result["total_s"] + 0.01:
                record["problems"].append(
                    f"self times sum to {covered:.4f} s, traced total is {result['total_s']:.4f} s")
            record["trace_errors"] = result["errors"]
        units = PER_LAYER
    else:
        setup_probe(work, files["config"])  # warm the bytecode and file caches
        setups = [setup_probe(work, files["config"]) for _ in range(SETUP_PROBES)]
        record["setup_samples"] = setups
        t_measure = time.monotonic()
        longest = 0.0
        while True:
            t = time.monotonic()
            one_run(False)
            longest = max(longest, time.monotonic() - t)
            if time.monotonic() - t_measure >= seconds or remaining() < 1.2 * longest:
                break
        passed = [r for r in record["runs"] if r["passed"]]
        metrics = {
            "total_s": _median([r["total_s"] for r in passed]),
            "setup_s": _median(setups),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in passed]),
        }
        units = END_TO_END

    attempted = len(record["runs"])
    failed = sum(1 for r in record["runs"] if not r["passed"])
    line = {
        "correct": failed == 0 and not record["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record["result"] = line
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{name}-seed{seed}-trace{int(traced)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(work, ignore_errors=True)
    return line, record


# ------------------------------------------------------------ modes


def summary(seed: int, seconds: float) -> int:
    """Run each main workload once (untraced) and print its metrics."""
    print(f"{'workload':<16}{'total_s':>12}{'setup_s':>12}{'peak_rss_mb':>14}{'failed':>12}")
    ok = True
    for name in MAIN_WORKLOADS:
        line, _ = measure(name, seed, seconds, traced=False)
        m = line["metrics"]
        cells = [f"{m[k]['value']:.3f} {m[k]['unit']}" for k in ("total_s", "setup_s")]
        cells.append(f"{m['peak_rss_mb']['value']:.1f} {m['peak_rss_mb']['unit']}")
        share = f"{line['failed']}/{line['attempted']}"
        print(f"{name:<16}{cells[0]:>12}{cells[1]:>12}{cells[2]:>14}{share:>12}", flush=True)
        ok = ok and line["correct"]
    return 0 if ok else 1


def self_test() -> int:
    """Smoke workload end to end: generator, checks, tracer, output schema."""
    problems = []
    for traced, units in ((False, END_TO_END), (True, PER_LAYER)):
        line, record = measure("smoke", 0, 1, traced)
        if set(line) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"trace {int(traced)}: result keys {sorted(line)}")
        if not line["correct"] or line["failed"] or line["attempted"] < 1:
            problems.append(f"trace {int(traced)}: run failed: {record['problems']}")
        for k, unit in units.items():
            got = line["metrics"].get(k)
            if got is None or got["unit"] != unit or not isinstance(got["value"], (int, float)):
                problems.append(f"trace {int(traced)}: metric {k} missing or without unit {unit}")
        if set(line["metrics"]) != set(units):
            problems.append(f"trace {int(traced)}: unexpected metrics "
                            f"{sorted(set(line['metrics']) - set(units))}")
    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(bench_path):
        with open(bench_path) as fh:
            bench = json.load(fh)
        for key, units in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            listed = {m["name"]: m["unit"] for m in bench[key]}
            if listed != units:
                problems.append(f"BENCHMARK.json {key} does not match the harness")
        unknown = [w["name"] for w in bench["workloads"] if w["name"] not in workloads.WORKLOADS]
        if unknown:
            problems.append(f"BENCHMARK.json names unknown workloads {unknown}")
    for p in problems:
        print("FAIL", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--summary", action="store_true",
                        help="run every main workload once and print a table")
    parser.add_argument("--self-test", action="store_true",
                        help="check the harness end to end on the smoke workload")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "treatpolicy", "__init__.py")):
        print(f"error: no program to benchmark: {SRC}/treatpolicy is missing", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.summary:
        return summary(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    line, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    provenance = {k: record.get(k) for k in ("workload", "seed", "git_revision", "src_sha256",
                                             "config_hash", "python", "numpy", "nproc",
                                             "thread_env")}
    print(json.dumps({"provenance": provenance}))
    for p in record["problems"] + record.get("trace_errors", []):
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
