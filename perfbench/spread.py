"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads NAME,...] --seeds 1-10 [--trace 1] [--out FILE]

For every workload and metric it prints the median over the runs, the
quartiles (statistics.quantiles with n=4), the spread (q3 - q1) / median
and, for end-to-end metrics, the bound from BENCHMARK.json.  A metric is
steady when its spread is below a third of its bound.  --out writes the
same numbers, every run's values and the machine line as JSON, which is
how a point of the performance trajectory is recorded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-", 1)
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="benchmark",
                    help="comma-separated names, or benchmark for those in BENCHMARK.json")
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="like 1-10 or 3,5,8")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    if args.workloads == "benchmark":
        names = tuple(w["name"] for w in spec["workloads"])
    else:
        names = tuple(args.workloads.split(","))
        unknown = set(names) - set(WORKLOADS)
        if unknown:
            ap.error(f"unknown workloads: {', '.join(sorted(unknown))}")

    report: dict = {"seeds": args.seeds, "seconds": spec["run_seconds"], "workloads": {}}
    for workload in names:
        runs, walls = [], []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                   str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            start = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            walls.append(time.monotonic() - start)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            report["machine"] = lines[0]
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: not correct\n{proc.stdout}", file=sys.stderr)
                return 1
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
        summary = {}
        print(f"== {workload}: {len(runs)} runs, {max(walls):.1f} s the longest")
        for metric in runs[0]:
            values = [r[metric] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            summary[metric] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                               "values": values}
            bound = bounds.get(metric) if not args.trace else None
            verdict = "" if bound is None else (
                f"bound {bound}  {'steady' if spread < bound / 3 else 'NOT steady'}")
            print(f"{metric:45s} median {median:<12.6g} spread {spread:7.2%}  {verdict}")
        summary["run_wall_s"] = walls
        report["workloads"][workload] = summary
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
