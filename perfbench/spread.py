"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workloads serve-tenants --seeds 1 2 3 4 5

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time, and
prints for each end-to-end metric the median and the interquartile range as
a share of the median (``statistics.quantiles(values, n=4)``), beside a third
of the metric's bound from ``BENCHMARK.json``: a steady benchmark keeps every
spread but ``setup_s``'s under that third.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    """Interquartile range over the median."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    steady = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            if done.returncode != 0:
                print(done.stdout + done.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output")
                steady = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload} ({len(args.seeds)} seeds)")
        for entry in spec["end_to_end"]:
            series = values[entry["name"]]
            share = spread(series)
            limit = entry["bound"] / 3
            ok = entry["name"] == "setup_s" or share < limit
            steady &= ok
            print(f"  {entry['name']:<22} median {statistics.median(series):>12.4f}"
                  f"  spread {share:6.3f}  (bound/3 {limit:.3f})"
                  f"{'' if ok else '  TOO WIDE'}  "
                  + " ".join(f"{v:.4g}" for v in series))
        sys.stdout.flush()
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
