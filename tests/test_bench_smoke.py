"""Smoke-runs of the standalone benchmark scripts so they can't rot.

``benchmarks/bench_parallel.py``, ``benchmarks/bench_serving.py`` and
``benchmarks/bench_writes.py`` live
outside the package and are only exercised by CI's benchmark jobs
otherwise; these tiny runs keep their wiring (grids, built-in
bit-exactness assertions, report schemas) under the tier-1 suite. The
performance gates (≥5× numpy, ≥5× plan-cache hit) are size-gated inside
the scripts and only *recorded* at smoke scale — but every correctness
assertion (bit-exactness, zero torn reads) is hard at any scale.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

_BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load_bench(name: str):
    spec = importlib.util.spec_from_file_location(
        f"{name}_smoke", _BENCHMARKS / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_parallel_grid_smoke(tmp_path):
    bench = _load_bench("bench_parallel")
    out = tmp_path / "BENCH_parallel.json"
    assert bench.main(["--rows", "3000", "--repeats", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    backends = {point["backend"] for point in report["grid"]}
    assert {"python", "numpy"} <= backends  # c only where gcc exists
    assert all(
        point["bit_exact_vs_sequential_python"] for point in report["grid"]
    )
    assert report["numpy_over_python_sequential"] > 0
    assert "skipped" in report["numpy_speedup_assertion"]
    # numpy runs every group natively at every grid point — the scaling
    # batch and the carried-heavy batch alike (no silent fallbacks)
    for point in report["grid"] + report["carried_grid"]:
        if point["backend"] == "numpy":
            assert point["native_groups"] == point["num_groups"]
    # the carried leg covers the full workers × partitions grid, bit-exact
    assert len(report["carried_grid"]) == 4
    assert all(
        point["bit_exact_vs_sequential_python"]
        for point in report["carried_grid"]
    )
    assert report["numpy_over_python_sequential_carried"] > 0
    assert "skipped" in report["carried_numpy_speedup_assertion"]
    # the ordered top-k arm: every engine point reproduces the
    # sort-the-flat-join ranking as a sequence and records the finishing
    # kernel per ordered query; the >=3x gate is row-gated like the rest
    topk = report["topk_grid"]
    assert {"python", "numpy"} <= {point["backend"] for point in topk}
    assert any(
        (point["backend"], point["workers"], point["partitions"])
        == ("numpy", 4, 4)
        for point in topk
    )
    for point in topk:
        assert point["ordered_exact_vs_flat_baseline"]
        assert set(point["kernels"]) == {"t_top_keys_per_g", "t_top_h"}
        assert set(point["kernels"].values()) <= {"heap", "sort"}
    assert report["topk_flat_baseline_seconds"] > 0
    assert report["topk_factorised_over_flat_sort"] > 0
    assert "skipped" in report["topk_speedup_assertion"]


def test_bench_writes_smoke(tmp_path):
    """The CI smoke gate of the write-path acceptance criteria: grouped
    commits must be bit-exact vs the sequential oracle, snapshot GC must
    bound the live-version count, and the injected fault must leave the
    server serving on the last good version (all hard at any scale); the
    ≥100 writes/s gate is recorded at smoke write counts and asserted on
    full runs."""
    bench = _load_bench("bench_writes")
    out = tmp_path / "BENCH_writes.json"
    argv = ["--scale", "0.02", "--writes", "40", "--writers", "2",
            "--readers", "1", "--out", str(out)]
    assert bench.main(argv) == 0
    report = json.loads(out.read_text())
    result = report["group_commit"]
    assert result["bit_exact_vs_sequential_oracle"]
    assert result["writes_per_second"] > 0
    assert result["committed_groups"] <= result["writes"]
    assert result["max_live_snapshots"] <= result["live_snapshot_bound"]
    fault = result["fault_containment"]
    assert fault["served_last_good_version"]
    assert fault["flush_returned"]
    assert fault["committer_survived"]
    assert "skipped" in report["write_rate_assertion"]


def test_bench_serving_smoke(tmp_path):
    """The CI smoke gate of the serving acceptance criteria: the mixed
    run/maintain workload must be bit-exact vs the sequential oracle with
    zero torn reads (hard), while the ≥5× hit-latency gate is recorded
    at smoke request counts and asserted on full runs."""
    bench = _load_bench("bench_serving")
    out = tmp_path / "BENCH_serving.json"
    argv = ["--scale", "0.02", "--view-scale", "0.02", "--requests", "2",
            "--rounds", "3", "--out", str(out)]
    assert bench.main(argv) == 0
    report = json.loads(out.read_text())
    cache = report["plan_cache"]
    assert cache["bit_exact_vs_cold_compile"]
    assert cache["hit_speedup"] > 0
    assert cache["plan_cache"]["misses"] == 1  # one structure, compiled once
    views = report["view_cache"]
    assert views["bit_exact_vs_cache_off"]
    assert views["warm_speedup"] > 0
    # cross-fingerprint sharing: user 0's second pass plus both of every
    # later user's passes run seeded from the cache
    assert views["seeded_requests"] == 2 * views["users"] - 1
    assert views["view_cache"]["hits"] > 0
    assert 0 < views["view_cache"]["hit_rate"] <= 1
    mixed = report["mixed_workload"]
    assert mixed["bit_exact_vs_sequential_oracle"]
    assert mixed["torn_reads"] == 0
    assert mixed["concurrent_reads"] > 0
    assert "skipped" in report["hit_speedup_assertion"]
    assert "skipped" in report["view_cache_speedup_assertion"]
