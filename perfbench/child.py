"""One fresh process of the program under test.

    python3 child.py setup CONFIG
        Import treatpolicy and load the config as every CLI subcommand does,
        then print time.monotonic() on stdout: the moment a stage could start.

    python3 child.py run CONFIG RESULT [--trace]
        Run the full pipeline and write timings (and, with --trace, spans and
        counters) to the RESULT JSON file.  Untraced, it calls run_pipeline,
        as ``treatpolicy all`` does.  Traced, it drives run_stages one stage
        at a time in planned_stages order, each stage inside a span.

The parent runs this with PYTHONPATH pointing at the checkout's ``src`` and
the working directory set to the run's work directory.
"""

from __future__ import annotations

import sys
import time


def _setup(config_path):
    import treatpolicy.cli  # noqa: F401 - the import every subcommand pays
    from treatpolicy.config import load_config

    return load_config(config_path)


def _run(config_path: str, result_path: str, traced: bool) -> None:
    import json
    import platform
    import resource

    cfg = _setup(config_path)
    import numpy
    import treatpolicy
    from treatpolicy.pipeline import planned_stages, run_pipeline, run_stages

    tracer = None
    if traced:
        import layertrace

        tracer = layertrace.Tracer()
        layertrace.install(tracer)

    cpu0 = time.process_time()
    t0 = time.perf_counter()
    if tracer is None:
        run_pipeline(cfg)
    else:
        for stage in planned_stages(cfg):
            tracer.span("stage." + stage, run_stages, cfg, [stage])
    total = time.perf_counter() - t0
    cpu = time.process_time() - cpu0

    result = {
        "total_s": total,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "treatpolicy_file": treatpolicy.__file__,
    }
    if tracer is not None:
        for s in tracer.spans:
            s["start"] -= t0
            s["end"] -= t0
        result.update(
            spans=tracer.spans,
            counters=tracer.counters,
            unique_replicates=tracer.unique_replicates(),
            errors=tracer.errors,
        )
    with open(result_path, "w") as fh:
        json.dump(result, fh)


def main(argv) -> int:
    if len(argv) >= 2 and argv[0] == "setup":
        _setup(argv[1])
        print(repr(time.monotonic()))
        return 0
    if len(argv) >= 3 and argv[0] == "run":
        _run(argv[1], argv[2], traced="--trace" in argv[3:])
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
