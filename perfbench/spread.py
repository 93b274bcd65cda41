"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload converge --runs 10 [--first-seed 100]

Runs the benchmark once per seed (first-seed, first-seed + 1, ...) with the
run length BENCHMARK.json fixes, then prints per metric the median and the
quartile spread (Q3 - Q1) / median; for a metric BENCHMARK.json gates, also
its bound and a third of it.  Ungated metrics come from the results records.
Exits 1 when a run fails or a gated spread other than setup_s passes its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from benchstats import median, quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        record = json.loads((HERE / "results" / f"{args.workload}-seed{seed}-trace0.json").read_text())
        for name, metric in record["end_to_end"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={values[k][-1]:.4g}" for k in bounds), flush=True)
    steady = True
    for name, series in values.items():
        if median(series) == 0:
            continue
        spread = quartile_spread(series)
        line = f"{args.workload} {name}: median {median(series):.6g}, spread {spread:.4f}"
        if name in bounds:
            line += f" (bound {bounds[name]}, a third {bounds[name] / 3:.4f})"
            steady &= name == "setup_s" or spread < bounds[name]
        print(line)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
