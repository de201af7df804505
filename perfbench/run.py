"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-read --seed 3 --seconds 8 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` re-runs the
same workload with per-layer spans and prints the per-layer metrics
(spans go to ``perfbench/out/``). Human-readable lines come first, with
the unit and sample count of every figure; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. The exit code is 0 only when every output check passed.
``--smoke`` runs the workload on a tiny database for a quick check (the
benchmark's own tests drive the command this way).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SMOKE_SCALE = 0.05

#: End-to-end metrics every workload reports: (name, unit). What each
#: ``op`` slot and ``cold`` measure per workload is in workloads.SLOTS.
END_TO_END = (
    ("setup_s", "s"),
    ("cold_mean_ms", "ms"),
    ("op1_mean_ms", "ms"),
    ("op2_mean_ms", "ms"),
    ("op3_mean_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def _prepare_environment() -> None:
    """Import the program from this checkout; keep temporary files in it.

    The C backend compiles through gcc in a temporary directory, which
    is pointed inside the checkout so a run writes nowhere else.
    """
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"error: {ROOT / 'src' / 'repro'} not found; run from a full checkout")
    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(outcome) -> tuple[dict[str, float], list[str]]:
    """The end-to-end metric values plus report lines with sample counts.

    Latency lines also give the median, and the p90 where at least 100
    samples were taken.
    """
    from perfbench.workloads import SLOTS

    slots = SLOTS[outcome.workload]
    samples = {"cold_mean_ms": ("cold", slots["cold"], outcome.cold_s)}
    for slot in ("op1", "op2", "op3"):
        label, select = slots[slot]
        seconds = [r.seconds for r in outcome.records if select(r) and not r.error]
        samples[f"{slot}_mean_ms"] = (slot, label, seconds)
    values = {
        "setup_s": statistics.median(outcome.setup_s),
        "ops_per_s": outcome.throughput,
        "peak_rss_mb": outcome.peak_rss_mb,
    }
    lines = [
        f"  {'setup_s':<14} {values['setup_s']:>12.3f} s     median of {len(outcome.setup_s)} set-ups",
    ]
    for name, (slot, label, seconds) in samples.items():
        values[name] = 1e3 * statistics.fmean(seconds) if seconds else 0.0
        line = f"  {name:<14} {values[name]:>12.3f} ms    n={len(seconds):<4} {label}"
        if seconds:
            line += f"; p50 {1e3 * statistics.median(seconds):.3f} ms"
        if len(seconds) >= 100:
            line += f", p90 {1e3 * _percentile(seconds, 0.9):.3f} ms"
        lines.append(line)
    lines.append(
        f"  {'ops_per_s':<14} {values['ops_per_s']:>12.3f} 1/s   "
        f"{outcome.throughput_ops} {slots['ops']} completed"
    )
    lines.append(f"  {'peak_rss_mb':<14} {values['peak_rss_mb']:>12.3f} MB    peak resident set size")
    return values, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "serve-read", "serve-write"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny database, for a quick check")
    args = parser.parse_args(argv)
    _prepare_environment()

    from perfbench import streams
    from perfbench.tracing import Tracer, per_layer_names
    from perfbench.workloads import WORKLOADS, Context

    tracer = Tracer() if args.trace else None
    ctx = Context(
        seed=args.seed,
        seconds=args.seconds,
        scale=SMOKE_SCALE if args.smoke else streams.SCALE,
        tracer=tracer,
    )
    if tracer:
        tracer.install()
    try:
        outcome = WORKLOADS[args.workload](ctx)
    finally:
        if tracer:
            tracer.uninstall()

    rows = outcome.info["rows"]
    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"scale {ctx.scale:g} ({rows['Sales']:,} Sales rows, {sum(rows.values()):,} in "
        f"{len(rows)} relations)"
    )
    records = [
        {"kind": r.kind, "seconds": r.seconds, "version": r.version,
         "request": getattr(r.request, "kind", None), "error": r.error}
        for r in outcome.records
    ]
    (OUT / f"records-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"phases": outcome.phase_s, "setup_s": outcome.setup_s,
                    "cold_s": outcome.cold_s, "records": records})
    )
    if tracer:
        path = OUT / f"trace-{args.workload}-{args.seed}.json"
        tracer.dump(path)
        layer = tracer.layer_metrics()
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in per_layer_names()}
        for name, unit in per_layer_names():
            print(f"  {name:<36} {layer[name]:>14.3f} {unit}")
        runs = tracer.overhead_runs
        print(
            f"  tracing overhead: replayed ops took {1e3 * runs[False]:.1f} ms untraced, "
            f"{1e3 * runs[True]:.1f} ms traced"
        )
        print(f"  spans written to {path.relative_to(ROOT)}")
    else:
        values, lines = end_to_end(outcome)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print("\n".join(lines))
    phases = "  ".join(f"{k} {v:.1f}s" for k, v in outcome.phase_s.items())
    print(f"  phases: {phases}")
    errors = [r.error for r in outcome.records if r.error] + outcome.failed_checks
    print(
        f"  error_rate     {outcome.failed}/{outcome.attempted} ops failed"
        f" ({outcome.failed / max(1, outcome.attempted):.4f})"
    )
    for error in errors[:5]:
        print(f"    failed: {error}")
    correct = outcome.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
