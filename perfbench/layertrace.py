"""Outside-in tracing of the treatpolicy layers.

The program has no spans of its own, so the tracer wraps the public
functions each layer exposes.  ``pipeline`` imports many of them by name,
so every ``treatpolicy.*`` namespace that binds a function gets the same
wrapper; patching only the defining module would miss those calls.

Spans (name, start, end, parent) are kept in memory and returned at the
end.  Counters are taken from the arguments and results at the same
boundaries, so they count the work where it happens.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

# (span name, defining module, attribute).  A function that a later
# version of the program no longer has is skipped and reported; its metrics
# read 0.
FUNCTIONS = (
    ("ingest.load_table", "treatpolicy.ingest", "load_table"),
    ("ingest.save_dataset", "treatpolicy.ingest", "save_dataset"),
    ("ingest.load_dataset", "treatpolicy.ingest", "load_dataset"),
    ("propensity.fit_propensity", "treatpolicy.propensity", "fit_propensity"),
    ("learners.fit_gbt", "treatpolicy.learners.trees", "fit_gbt"),
    ("learners.fit_linear", "treatpolicy.learners.linear", "fit_linear"),
    ("learners.kendall_tau", "treatpolicy.learners.metrics", "kendall_tau"),
    ("cate.fit_meta_learner", "treatpolicy.cate.meta", "fit_meta_learner"),
    ("cate.uncertainty_interval", "treatpolicy.cate.intervals", "uncertainty_interval"),
    ("cate.cate_diagnostics", "treatpolicy.cate.diagnostics", "cate_diagnostics"),
    ("simulation.run_study", "treatpolicy.simulation", "run_study"),
    ("deferral.evaluate_deferral", "treatpolicy.deferral", "evaluate_deferral"),
    ("deferral.characterize_subpop", "treatpolicy.deferral", "characterize_subpop"),
    ("policy_eval.estimate_policy_value", "treatpolicy.policy_eval", "estimate_policy_value"),
    ("policy_eval.bootstrap_tournament", "treatpolicy.policy_eval", "bootstrap_tournament"),
    ("policy_eval.rank_curve", "treatpolicy.policy_eval", "rank_curve"),
    ("policy_eval.outcome_tree", "treatpolicy.policy_eval", "outcome_tree"),
    ("report.emit_report", "treatpolicy.report", "emit_report"),
)

# (span name, defining module, class, method)
METHODS = (
    ("learners.gbt_predict", "treatpolicy.learners.trees", "BoostedTreesModel", "predict"),
    ("learners.gbt_predict", "treatpolicy.learners.trees", "BoostedTreesModel", "predict_proba"),
)


def vm_hwm_mb() -> float:
    """Peak resident memory of this process so far (VmHWM), in MB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Tracer:
    """Records nested spans and counters for one pipeline run."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self.errors: list[str] = []
        self._stack: list[int] = []
        # (policy, estimator, seed) -> largest B valued, for unique replicates
        self._replicates: dict[tuple, int] = {}

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def inside(self, name: str) -> bool:
        return any(self.spans[i]["name"] == name for i in self._stack)

    def span(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = {"name": name, "parent": parent, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def unique_replicates(self) -> int:
        return sum(self._replicates.values())

    def note_replicates(self, policy: str, estimator: str, seed, B: int) -> None:
        key = (policy, estimator, seed)
        self._replicates[key] = max(self._replicates.get(key, 0), int(B))


def _count_save_dataset(tr, a, result):
    tr.add("ingest.dataset_bytes", os.path.getsize(a["csv_path"]))


def _count_fit_gbt(tr, a, result):
    tr.add("learners.fit_gbt.trees", len(result.trees))


def _count_fit_linear(tr, a, result):
    tr.add("learners.fit_linear.iters", int(result.n_iter))


def _count_fit_meta_learner(tr, a, result):
    if tr.inside("cate.uncertainty_interval"):
        tr.add("cate.refits", 1)


def _count_run_study(tr, a, result):
    tr.add("simulation.failed_runs", len(result.failures))


def _count_evaluate_deferral(tr, a, result):
    tr.add("deferral.rows_deferred", int(result.n_deferred))


def _count_estimate_policy_value(tr, a, result):
    tr.add("policy_eval.replicate_evals", int(a["B"]))
    tr.add("policy_eval.rounds_skipped", int(result.n_skipped))
    tr.note_replicates(a["policy"].name, a["estimator"], a.get("seed"), a["B"])


def _count_bootstrap_tournament(tr, a, result):
    estimators = tuple(a["estimators"])
    tr.add("policy_eval.replicate_evals", int(a["B"]) * len(a["policies"]) * len(estimators))
    tr.add("policy_eval.rounds_skipped", sum(int(v) for v in result.skipped.values()))
    for policy in a["policies"]:
        for est in estimators:
            tr.note_replicates(policy.name, est, a.get("seed"), a["B"])


def _count_emit_report(tr, a, result):
    artifacts, _warnings = result
    svg = [p for p in artifacts if p.endswith(".svg")]
    tr.add("report.svg_bytes", sum(os.path.getsize(os.path.join(a["out_dir"], p)) for p in svg))


_COUNTERS = {
    "ingest.save_dataset": _count_save_dataset,
    "learners.fit_gbt": _count_fit_gbt,
    "learners.fit_linear": _count_fit_linear,
    "cate.fit_meta_learner": _count_fit_meta_learner,
    "simulation.run_study": _count_run_study,
    "deferral.evaluate_deferral": _count_evaluate_deferral,
    "policy_eval.estimate_policy_value": _count_estimate_policy_value,
    "policy_eval.bootstrap_tournament": _count_bootstrap_tournament,
    "report.emit_report": _count_emit_report,
}


def _wrap(tracer: Tracer, name: str, fn):
    count = _COUNTERS.get(name)
    signature = inspect.signature(fn) if count else None
    track_rss = name == "learners.kendall_tau"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.add(name + ".calls", 1)
        before = vm_hwm_mb() if track_rss else 0.0
        result = tracer.span(name, fn, *args, **kwargs)
        if track_rss:
            tracer.add(name + ".rss_rise_mb", vm_hwm_mb() - before)
        if count is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            try:
                count(tracer, bound.arguments, result)
            except (KeyError, AttributeError, TypeError, OSError) as exc:
                # a changed signature or result type loses a counter, not the run
                tracer.errors.append(f"{name}: counter failed: {exc!r}")
        return result

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every listed function and method.

    Call after ``import treatpolicy`` has loaded every submodule.
    """
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "treatpolicy"]
    for name, module_name, attr in FUNCTIONS:
        original = _lookup(tracer, name, module_name, attr)
        if original is None:
            continue
        wrapper = _wrap(tracer, name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    for name, module_name, cls_name, method in METHODS:
        original = _lookup(tracer, name, module_name, cls_name, method)
        if original is None:
            continue
        setattr(_lookup(tracer, name, module_name, cls_name), method, _wrap(tracer, name, original))


def _lookup(tracer: Tracer, name: str, module_name: str, *attrs):
    """The object at ``module_name.attrs``, or None, noted in ``tracer.errors``."""
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        obj = None
    for attr in attrs:
        obj = getattr(obj, attr, None)
    if obj is None:
        tracer.errors.append(f"{name}: {'.'.join((module_name, *attrs))} not found; reads 0")
    return obj


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name: summed duration minus the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = {}
    for s, covered in zip(spans, child_time):
        out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - covered
    return out
