"""Repeat the benchmark over seeds and summarise the spread of each metric.

    python3 perfbench/baseline.py --seeds 1 2 3 4 5 6 7 8 9 10 \\
        --trace-seeds 1 2 --out perfbench/baseline.json

Runs ``run.py`` once per (workload, seed), one run at a time, with the
``BENCHMARK.json`` run length, then ``--trace 1`` once per trace seed. For
every end-to-end metric it reports the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median,
flagging spreads above a third of the metric's bound. The summary, with
nproc and the Python and numpy versions, is printed and optionally written
as JSON. ``selftest.py`` checks that traced counts repeat exactly.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.stderr.write(done.stdout)
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarise(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    summary = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}
    if bound is not None:
        summary["steady"] = spread < bound / 3
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--trace-seeds", nargs="*", type=int, default=[])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    import numpy

    summary = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
        "run_seconds": seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    steady = True
    for workload in workloads:
        runs = [run_once(workload, seed, seconds, 0) for seed in args.seeds]
        end_to_end = {}
        for name in runs[0]:
            stats = summarise([r[name] for r in runs], bounds.get(name))
            stats["unit"] = units[name]
            end_to_end[name] = stats
            flag = "" if stats.get("steady", True) else "  WIDE"
            steady &= bool(flag == "")
            print(f"{workload:<11} {name:<16} median {stats['median']:.6g} {units[name]:<5} "
                  f"spread {stats['spread']:.4f} (bound {bounds.get(name)}){flag}", flush=True)
        traced = {}
        for seed in args.trace_seeds:
            metrics = run_once(workload, seed, seconds, 1)
            traced[str(seed)] = {name: {"value": v, "unit": units[name]} for name, v in metrics.items()}
        summary["workloads"][workload] = {"end_to_end": end_to_end, "traced": traced}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print("all spreads below a third of their bounds" if steady else "some spreads are too wide")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
