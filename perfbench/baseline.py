"""Record the benchmark's baseline: every workload over several seeds.

Usage (from the repository root)::

    python3 perfbench/baseline.py --seeds 10 --first-seed 101 [--workloads train ...]

Runs ``perfbench/run.py`` untraced once per seed and workload, then once
traced on the first seed, and writes ``perfbench/BASELINE.json``: the
median and quartiles of every end-to-end metric, its spread (quartile
distance over median), the traced run's per-layer metrics, the tracing
overhead per op kind (the traced run's mean op wall time over the median
of the untraced runs') and the machine it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
PATH = ROOT / "perfbench" / "BASELINE.json"


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed:\n{done.stdout}{done.stderr}")
    return json.loads(lines[-1]), wall


def _op_walls(workload: str, seed: int, trace: int) -> dict[str, float]:
    """Mean wall time per op kind from a run's records file."""
    records = json.loads((OUT / f"records-{workload}-{seed}-trace{trace}.json").read_text())
    kinds: dict[str, list[float]] = {}
    for record in records["records"]:
        kinds.setdefault(record["kind"], []).append(record["seconds"])
    return {kind: statistics.fmean(walls) for kind, walls in kinds.items()}


def _environment() -> dict:
    import numpy

    try:
        gcc = subprocess.run(["gcc", "--version"], capture_output=True, text=True, check=True)
        gcc_version = gcc.stdout.splitlines()[0]
    except (OSError, subprocess.CalledProcessError):
        gcc_version = None
    cpu = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gcc": gcc_version,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--workloads", nargs="*")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import streams

    rows = {r.name: r.num_rows for r in streams.database(seeds[0]).relations}
    baseline = {
        "environment": _environment(),
        "scale": streams.SCALE,
        "rows": rows,
        "run_seconds": seconds,
        # re-recording some workloads keeps the other workloads' entries
        "workloads": json.loads(PATH.read_text())["workloads"] if args.workloads else {},
    }
    for workload in workloads:
        values: dict[str, list[float]] = {}
        walls = []
        for seed in seeds:
            result, wall = _run(workload, seed, seconds, 0)
            walls.append(wall)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {wall:.0f}s", flush=True)
        traced, traced_wall = _run(workload, seeds[0], seconds, 1)
        # against the median over all untraced runs: single pairs of runs
        # differ by more than the wrappers cost (machine-state drift)
        per_seed = [_op_walls(workload, seed, 0) for seed in seeds]
        untraced_ops = {
            kind: statistics.median(walls[kind] for walls in per_seed if kind in walls)
            for kind in per_seed[0]
        }
        traced_ops = _op_walls(workload, seeds[0], 1)
        summary = {}
        for name, series in values.items():
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            summary[name] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median if median else None,
            }
            print(f"  {name:<14} median {median:12.3f}  spread {summary[name]['spread']:.3f}")
        baseline["workloads"][workload] = {
            "seeds": seeds,
            "end_to_end": summary,
            "run_wall_s": {"median": statistics.median(walls), "max": max(walls)},
            "traced_run_wall_s": traced_wall,
            "per_layer": {name: metric["value"] for name, metric in traced["metrics"].items()},
            "tracing_overhead_pct": {
                kind: 100.0 * (traced_ops[kind] / untraced_ops[kind] - 1.0)
                for kind in traced_ops
                if kind in untraced_ops
            },
        }
    PATH.write_text(json.dumps(baseline, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
