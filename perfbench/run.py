"""Smol-Bench command line: run one workload and print its metrics.

    python3 perfbench/run.py --workload scan-thumb-png --seed 1 --seconds 10 --trace 0

Run from the repository root.  The program is imported from ``src/``; there
is nothing to build.  The command sets the program up five times and
reports the median set-up time, computes the serial oracle, measures the
workload untraced for ``--seconds`` and prints every end-to-end metric of
``BENCHMARK.json``.  With ``--trace 1`` it then measures again with timing
proxies and prints every per-layer metric instead.  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Environment variables that size the BLAS thread pool, set to one before
#: numpy loads: the program's own threads (engine producers, batcher,
#: replicas, the load generator) already keep both cores of the machine the
#: benchmark is sized for busy, and BLAS threads spinning beside them made
#: run-to-run figures swing.  The thread count is printed with each result.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")

#: End-to-end metrics whose traced/untraced ratio is reported.
OVERHEAD_METRICS = ("throughput_img_s", "latency_p50_ms", "latency_tail_ms")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _blas() -> tuple[str, str]:
    """BLAS library name/version and its thread count, as numpy sees them."""
    import ctypes

    import numpy as np

    try:
        info = np.__config__.CONFIG["Build Dependencies"]["blas"]
        name = f"{info['name']} {info.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        name = "unknown"
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return name, "unknown"
    for symbol in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        function = getattr(lib, symbol, None)
        if function is not None:
            function.restype = ctypes.c_int
            return name, str(function())
    return name, "unknown"


def _environment(seed: int) -> str:
    import numpy as np

    blas, threads = _blas()
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    return (f"env: nproc={cpus} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas} blas_threads={threads} "
            f"seed={seed}")


def _show(name: str, metric, alias: str = "") -> str:
    title = f"{alias} ({name})" if alias else name
    if metric.label == "absent":
        return f"  {title:<44} absent (layer not on this workload's path)"
    return (f"  {title:<44} {metric.value:>14.4f} {metric.unit:<6} "
            f"n={metric.count} [{metric.label}]")


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    from perfbench.spans import Recorder
    from perfbench.tails import median
    from perfbench.workloads import WORKLOADS, Metric

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print(f"smol-bench: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  why: {workload.why}")
    print(_environment(args.seed))

    workload.plan_inputs(args.seed, args.seconds)
    setup_times = []
    setup = None
    for _ in range(SETUP_REPEATS):
        if setup is not None:
            setup.close()
        began = time.perf_counter()
        setup = workload.setup(args.seed)
        setup_times.append(time.perf_counter() - began)
    try:
        for note in workload.prepare(setup):
            print(f"  {note}")
        untraced = workload.measure(setup, args.seconds)
        traced = (workload.measure(setup, args.seconds, Recorder())
                  if args.trace else None)
    finally:
        setup.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    runs = [untraced] + ([traced] if traced is not None else [])
    attempted = sum(p.sent for run in runs for p in run.phases)
    failed = sum(p.failed for run in runs for p in run.phases)
    for label, run in zip(("untraced", "traced"), runs):
        for phase in run.phases:
            print(f"phase {phase.name} ({label}): sent {phase.sent}, "
                  f"succeeded {phase.succeeded}, failed {phase.failed}")
        for note in run.notes:
            print(f"  {note}")
    print(f"failed_frac: {failed / attempted:.4f} "
          f"({failed} failed of {attempted} attempted)")

    e2e = {
        "setup_s": Metric(median(setup_times), "s", SETUP_REPEATS,
                          f"median of {SETUP_REPEATS} set-ups"),
        "peak_rss_mb": Metric(peak_rss_mb, "MB", 1, "ru_maxrss"),
        **untraced.e2e,
    }
    print("end-to-end (untraced):")
    for entry in spec["end_to_end"]:
        if entry["name"] in e2e:
            print(_show(entry["name"], e2e[entry["name"]],
                        workload.aliases.get(entry["name"], "")))
    if traced is None:
        chosen = {entry["name"]: e2e.get(entry["name"])
                  for entry in spec["end_to_end"]}
    else:
        layers = dict(traced.layers)
        for name in OVERHEAD_METRICS:
            if name in traced.e2e and name in untraced.e2e:
                layers[f"trace.overhead_frac.{name}"] = Metric(
                    traced.e2e[name].value / untraced.e2e[name].value - 1.0,
                    "frac", traced.e2e[name].count, "traced / untraced - 1")
        chosen = {}
        print("per layer (traced):")
        for entry in spec["per_layer"]:
            metric = layers.get(entry["name"]) or Metric(
                0.0, entry["unit"], 0, "absent")
            chosen[entry["name"]] = metric
            print(_show(entry["name"], metric))
    missing = sorted(name for name, metric in chosen.items() if metric is None)
    if missing:
        print(f"error: no measurement for {', '.join(missing)}",
              file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metric.value, "unit": metric.unit}
                    for name, metric in chosen.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    # As a script, sys.path[0] is this directory: import the benchmark as a
    # package from the repository root and the program from src/ instead.
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))
    sys.exit(main())
