"""semlink benchmark: one workload, one seed, end-to-end or traced metrics.

    python3 perfbench/run.py --workload {ingest,converge,coherent} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  The inputs for (workload, seed) are generated
once and cached under ``perfbench/.cache``.  The workload then runs in fresh
child processes (``workloads.py``), one caller each with BLAS pinned to one
thread:

* SETUP_SAMPLES - 1 set-up-only children, plus the measuring child, give
  the set-up times; ``setup_s`` is their median, scaled to the nominal
  machine speed by the median of the reference samples they took
  (``benchstats``);
* the measuring child repeats passes over the workload for S seconds (at
  least one pass), with each operation's time scaled the same way, and
  checks every pass's outputs against the oracles;
* with ``--trace 1`` a further child runs one pass with every measured
  function wrapped in a span; the per-layer metrics come from it, and
  ``trace.overhead_s`` is its pass time minus the untraced median.

Every end-to-end metric is printed by name with its unit, the full record
(environment, workload properties, all metrics) goes to
``perfbench/results/``, and the last stdout line is the JSON result whose
metrics are those BENCHMARK.json lists.  The exit code is 0 only when every
operation ran and passed its oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0
SETUP_SAMPLES = 5
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",  # OpenBLAS would start one thread per core
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class ChildFailed(Exception):
    pass


def _child(args, inputs_dir: Path, work: Path, mode: str, deadline: float) -> dict:
    env = dict(os.environ, **CHILD_ENV)
    spawned = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "workloads.py"), args.workload, str(inputs_dir),
        str(work / mode), mode, str(args.seconds), repr(spawned),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} child passed the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _environment(run: dict) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=20,
        )
        commit = git.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "git_commit": commit,
        "child_env": CHILD_ENV,
        "child_threads": run["threads"],
    }


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "B" if metric.endswith(".bytes") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("ingest", "converge", "coherent"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "semlink" / "__init__.py").is_file():
        print("perfbench: no semlink sources under src/; nothing to measure", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    from benchstats import median, scale
    from inputs import ensure_inputs

    inputs_dir = ensure_inputs(args.workload, args.seed, HERE / ".cache")
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        setups = [_child(args, inputs_dir, work, "setup", deadline) for _ in range(SETUP_SAMPLES - 1)]
        run = _child(args, inputs_dir, work, "run", deadline)
        traced = _child(args, inputs_dir, work, "trace", deadline) if args.trace else None
    except ChildFailed as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = run["attempted"] + (traced["attempted"] if traced else 0)
    failed = run["failed"] + (traced["failed"] if traced else 0)
    problems = {**run["problems"], **(traced["problems"] if traced else {})}
    setups.append(run)
    # one speed estimate per run: the reference samples of all set-up children
    setup_wall_s = median([s["setup_wall_s"] for s in setups])
    setup_reference_s = median([s["setup_reference_s"] for s in setups])
    end_to_end = {
        "setup_s": (scale(setup_wall_s, setup_reference_s), "s"),
        "setup_wall_s": (setup_wall_s, "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "pass_s": (run["pass_s"], "s"),
        "pass_wall_s": (run["pass_wall_s"], "s"),
        "fail_rate": (failed / attempted, "1"),
        **{k: tuple(v) for k, v in run["metrics"].items()},
    }
    layers = {}
    if traced:
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["pass_s"] - run["pass_s"]

    for name, (value, unit) in end_to_end.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} passes = {len(run['passes'])}, operations = {attempted}, failed = {failed}")
    for name in sorted(layers):
        print(f"{args.workload} layer {name} = {layers[name]:.6g} {_unit(name)}")
    for op, problem in problems.items():
        print(f"{args.workload} FAILED {op}: {problem}", file=sys.stderr)

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": _environment(run),
        "workload_properties": json.loads((inputs_dir / "props.json").read_text()),
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "setup_wall_samples": [s["setup_wall_s"] for s in setups],
        "setup_reference_samples": [s["setup_reference_s"] for s in setups],
        "pass_samples": run["passes"],
        "per_layer": {k: {"value": v, "unit": _unit(k)} for k, v in sorted(layers.items())},
        "attempted": attempted, "failed": failed, "problems": problems,
    }
    out_file = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    if args.trace:
        metrics = {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": end_to_end[m["name"]][0], "unit": m["unit"]} for m in spec["end_to_end"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
