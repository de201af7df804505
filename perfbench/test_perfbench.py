"""The benchmark's own tests: smoke runs at tiny scale, stream replay,
the oracle, the trace harness and the negative checks.

Run:  PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import EngineConfig, LMFAO, favorita_features
from perfbench import run, streams, tracing, verify, workloads

ROOT = Path(__file__).resolve().parent.parent
SMOKE = dict(seconds=0.3, scale=run.SMOKE_SCALE)


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def traced(request):
    """Each workload once at smoke scale, traced."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outcome = workloads.WORKLOADS[request.param](
            workloads.Context(seed=5, tracer=tracer, **SMOKE)
        )
    finally:
        tracer.uninstall()
    return outcome, tracer


def test_smoke_workload_is_correct_and_reports_every_metric(traced):
    outcome, tracer = traced
    assert outcome.attempted > 0
    assert outcome.failed == 0, [r.error for r in outcome.records if r.error]
    values, lines = run.end_to_end(outcome)
    assert set(values) == {name for name, _ in run.END_TO_END}
    assert all(value > 0 for value in values.values()), values
    layers = tracer.layer_metrics()
    assert set(layers) == {name for name, _ in tracing.per_layer_names()}
    assert tracer.overhead_runs[False] > 0 and tracer.overhead_runs[True] > 0
    kinds = {op.kind for op in tracer.ops}
    for kind in kinds:
        assert layers[f"{kind}.wall_ms"] > 0
        # coverage: the named layers account for part of every op kind
        assert layers[f"{kind}.other_ms"] < layers[f"{kind}.wall_ms"]


def test_traced_ops_match_their_workload(traced):
    outcome, tracer = traced
    expected = {
        "train": {"lr", "cart", "rkmeans"},
        "serve-read": {"cold", "read"},
        "serve-write": {"cold", "read", "raw", "write"},
    }[outcome.workload]
    assert {op.kind for op in tracer.ops} == expected
    layers = tracer.layer_metrics()
    if outcome.workload == "serve-write":
        assert layers["write.write.committed_groups"] == 1.0
        assert layers["write.incremental.delta_apply_ms"] > 0
        assert layers["write.write.queue_wait_ms"] > 0
        # sampled from the server after each write: hits of earlier reads
        assert 0 < layers["write.serve.plan_hit_ratio"] < 1
        assert layers["read.serve.view_bytes"] > 0
    if outcome.workload == "train":
        assert layers["lr.core.compile_ms"] > 0
        assert layers["cart.ml.solve_ms"] > 0
    if outcome.workload == "serve-read":
        assert layers["read.serve.plan_hit_ratio"] == 1.0
        assert layers["read.serve.fingerprint_ms"] > 0


def test_corrupted_result_raises_error_rate():
    outcome = workloads.run_serve_read(workloads.Context(seed=6, corrupt=True, **SMOKE))
    assert outcome.failed >= 1
    assert any("wrong answer" in (r.error or "") for r in outcome.records)


def test_model_digest_checks_catch_a_changed_model():
    db = streams.database(4, run.SMOKE_SCALE)
    apps = workloads._apps(
        db, favorita_features(db), verify.REFERENCE_CONFIG, verify.REFERENCE_RKMEANS_CONFIG
    )
    for kind, fit in apps:
        digest = fit()[0]
        assert verify.compare_digest(kind, digest, digest, exact=True) is None
        if kind == "lr":
            changed = dict(digest, theta=digest["theta"] * (1 + 1e-6))
        elif kind == "cart":
            changed = dict(digest, nodes=digest["nodes"] + 1)
        else:
            changed = dict(digest, coreset=digest["coreset"] * 2)
            moved = dict(digest, centroids=digest["centroids"] * (1 + 1e-6))
            assert "centroids" in verify.compare_digest(kind, moved, digest, exact=False)
        assert verify.compare_digest(kind, changed, digest, exact=False)
        assert verify.compare_digest(kind, changed, digest, exact=True)
    # an engine emitting the grid in another order passes the centroid check
    emitted = digest["coreset"][::-1]
    reversed_engine = dict(
        digest,
        order=np.arange(len(emitted))[::-1],
        centroids=verify.weighted_kmeans(emitted[:, :-1], emitted[:, -1], k=digest["k"]).centroids,
    )
    assert verify.compare_digest("rkmeans", reversed_engine, digest, exact=False) is None


def test_same_seed_replays_the_same_op_sequence():
    def ops(seed: int):
        db = streams.database(seed, run.SMOKE_SCALE)
        pools = streams.constant_pools(db)
        deltas = streams.delta_stream(seed, db)
        return (
            [streams.client_stream(seed, c, pools) for c in (0, 1)],
            streams.cold_requests(seed, pools),
            streams.hot_set(pools),
            [(d.kind, d.batch, d.rows.columns()) for d in deltas],
        )

    def same(a, b) -> bool:
        if isinstance(a, dict):
            return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)
        if isinstance(a, (list, tuple)):
            return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
        return a == b

    assert same(ops(9), ops(9))
    assert not same(ops(9), ops(10))


def test_delta_stream_deletes_the_oldest_live_insert():
    db = streams.database(1, run.SMOKE_SCALE)
    deltas = streams.delta_stream(1, db, count=12)
    assert [d.kind for d in deltas[:4]] == ["insert"] * 3 + ["delete"]
    live = []
    for delta in deltas:
        if delta.kind == "insert":
            live.append(delta.batch)
        else:
            assert delta.batch == live.pop(0)


def test_join_oracle_matches_a_fresh_engine():
    db = streams.database(3, 0.1)
    spec = favorita_features(db)
    pools = streams.constant_pools(db)
    oracle = verify.JoinOracle(db)
    engine = LMFAO(db, EngineConfig(backend="numpy"))
    requests = streams.cold_requests(3, pools) + streams.client_stream(3, 0, pools, 12)
    for request in requests:
        batch = streams.build_batch(request, spec)
        got = verify.groups_of(engine.run(batch))
        assert verify.compare_results(batch, got, oracle.answer(batch)) is None, request


def test_compare_results_flags_count_and_rank_differences():
    batch = streams.build_batch(streams.Request("topk", 0, (1.0,)), None)
    want = verify.JoinOracle(streams.database(2, run.SMOKE_SCALE)).answer(batch)
    assert verify.compare_results(batch, want, want) is None
    reordered = {name: dict(reversed(list(groups.items()))) for name, groups in want.items()}
    assert "rank order" in verify.compare_results(batch, reordered, want)


def test_missing_wrapped_name_fails_loudly():
    with pytest.raises(tracing.TraceError):
        tracing._resolve(tracing.Target("repro.core.engine", "LMFAO.no_such_layer", "x"))
    with pytest.raises(tracing.TraceError):
        tracing._resolve(tracing.Target("repro.core.runtime", "no_such_function", "x"))


def test_tracer_uninstall_restores_the_program():
    from repro.core import engine, runtime

    originals = (engine.LMFAO.compile, runtime.partition_tries, engine.partition_tries)
    tracer = tracing.Tracer()
    tracer.install()
    assert engine.LMFAO.compile is not originals[0]
    assert engine.partition_tries is not originals[2]
    tracer.uninstall()
    assert (engine.LMFAO.compile, runtime.partition_tries, engine.partition_tries) == originals


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload,trace", [("serve-read", 0), ("serve-write", 1)])
def test_command_prints_the_result_line(workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "2",
         "--seconds", "0.3", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = tracing.per_layer_names() if trace else run.END_TO_END
    assert {n: m["unit"] for n, m in result["metrics"].items()} == dict(names)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
