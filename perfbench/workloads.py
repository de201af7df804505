"""The three workloads: paper-app training, warm serving, read-after-write.

Every workload is a closed loop — each client waits for its reply before
sending its next request — driven from one process by at most two busy
client threads. All of them run ``backend="auto"``, so the engine's cost
model picks C, NumPy or Python per group. A workload returns an
:class:`Outcome`: set-up times, one :class:`Record` per client op and the
output checks, which all run after the timed window.

Why these three (see README.md for the layer map):

* ``train`` — the paper's demo: ridge regression, CART and Rk-means on
  fresh engines. Mostly cold work (compile and gcc, trie builds,
  big-batch kernels) and the only workload on the threaded
  domain-parallel executor; it never touches the serving or write path.
* ``serve-read`` — one server, no writes: fingerprint/bind, plan-cache
  hits, the view cache (its working set exceeds the 32 MiB default),
  kernels over warm tries and top-k finishing.
* ``serve-write`` — the same server with a maintained covariance batch
  and a writer: write queue, delta apply, successor snapshots, handle
  propagation, view-cache refresh, and the trie rebuild the first read
  after each write pays.
"""

from __future__ import annotations

import gc
import resource
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro import (
    AggregateServer,
    CartConfig,
    EngineConfig,
    LMFAO,
    RegressionTree,
    favorita_features,
    rk_means,
    train_linear_regression,
)
from repro.incremental.delta import normalize_deltas
from repro.ml import cart_node_batch, covariance_batch
from repro.paper import FAVORITA_TREE

from perfbench import streams, verify

#: Serving engine: sequential per request (the two clients fill both cores).
SERVE_CONFIG = EngineConfig(backend="auto", join_tree_edges=FAVORITA_TREE)
#: Training engines: the threaded domain-parallel executor.
TRAIN_CONFIG = EngineConfig(
    backend="auto", workers=2, partitions=2, join_tree_edges=FAVORITA_TREE
)
#: Rk-means adds grid relations that FAVORITA_TREE does not name, so it
#: runs on the engine's own join tree.
RKMEANS_CONFIG = EngineConfig(backend="auto", workers=2, partitions=2)
RKMEANS_DIMENSIONS = ("units", "txns", "price", "store", "family")
CART = CartConfig(max_depth=3, min_samples=30)
#: Set-ups per run whose median is reported (serve-write's set-up includes
#: the maintained covariance batch and runs once).
SETUP_REPEATS = 3
#: A request that takes longer than this counts as failed.
OP_TIMEOUT_S = 120.0
#: Traced runs only: ops replayed untraced and traced after the window,
#: whose gap is the tracing overhead (see Tracer.measure_overhead).
OVERHEAD_OPS = 2

def _reads_of(request_kind: str | None):
    def select(record) -> bool:
        return record.kind == "read" and (
            request_kind is None or record.request.kind == request_kind
        )

    return select


def _kind(kind: str):
    return lambda record: record.kind == kind


#: For each workload: the ops behind the end-to-end metrics ``op1_mean_ms``
#: .. ``op3_mean_ms`` (label, record selector), what ``ops_per_s`` counts
#: and what ``cold_mean_ms`` averages. Means, not medians: several slots
#: mix op shapes (cache hits and misses, reads before and after a trie
#: rebuild), and over a few dozen samples a median of such a mixture
#: jumps between modes from run to run; medians and p90s are printed.
SLOTS = {
    "train": {
        "op1": ("ridge linear regression fit", _kind("lr")),
        "op2": ("CART fit", _kind("cart")),
        "op3": ("Rk-means fit", _kind("rkmeans")),
        "ops": "fits",
        "cold": "cold batch of a fit (program-reported)",
    },
    "serve-read": {
        "op1": ("CART node batch read", _reads_of("cart")),
        "op2": ("top-k leaderboard read", _reads_of("topk")),
        "op3": ("any steady read", _reads_of(None)),
        "ops": "reads",
        "cold": "first request of a batch structure",
    },
    "serve-write": {
        "op1": ("write (apply, sync)", _kind("write")),
        "op2": ("writer's read right after its commit", _kind("raw")),
        "op3": ("reader client's read", _kind("read")),
        "ops": "writes",
        "cold": "first request of a hot-set batch",
    },
}


@dataclass
class Context:
    seed: int
    seconds: float
    scale: float = streams.SCALE
    tracer: object | None = None
    #: test hook: falsify one observed read result before the checks run.
    corrupt: bool = False


@dataclass
class Record:
    """One client op as the client saw it."""

    kind: str  # cold, read, raw, write, lr, cart, rkmeans
    seconds: float
    error: str | None = None
    version: int = 0
    request: object | None = None
    output: object | None = None


@dataclass
class Outcome:
    workload: str
    setup_s: list[float]
    records: list[Record]
    cold_s: list[float]
    throughput: float
    throughput_ops: int
    peak_rss_mb: float
    #: checks of outputs that belong to no single op (the maintained
    #: handle), and the ones of them that failed.
    extra_checks: int = 0
    failed_checks: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)
    #: wall time of each phase of the run (set-up, cold, measured, checks).
    phase_s: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.records) + self.extra_checks

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r.error) + len(self.failed_checks)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _op(ctx: Context, kind: str, client: int, fn):
    """Run one client op; returns (result, seconds, error, traced op)."""
    op = ctx.tracer.begin(kind, client) if ctx.tracer else None
    start = time.perf_counter()
    try:
        result, error = fn(), None
    except Exception as exc:  # noqa: BLE001 — every failure is a failed op
        result, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if op is not None:
        ctx.tracer.end(op)
    return result, seconds, error, op


def _lap(phases: dict, name: str, since: float) -> float:
    """Record the phase that began at ``since``; returns now."""
    now = time.perf_counter()
    phases[name] = now - since
    return now


def _info(db) -> dict:
    return {"rows": {r.name: r.num_rows for r in db.relations}}


def _corrupt(records: list[Record]) -> None:
    """Perturb the first observed read result (the negative-test hook)."""
    for record in records:
        for groups in (record.output or {}).values():
            for key, values in groups.items():
                groups[key] = (values[0] + 1.0, *values[1:])
                return


# ---------------------------------------------------------------------- train


def _apps(db, spec, config: EngineConfig, rk_config: EngineConfig):
    """(op kind, fit) per app; a fit returns (digest, mean cold batch s).

    The cold batch time is what the apps report themselves (the batches'
    ``RunResult`` laps), so the untraced run wraps nothing.
    """

    def lr():
        model = train_linear_regression(LMFAO(db, config), spec)
        return verify.lr_digest(model), model.aggregate_seconds

    def cart():
        tree = RegressionTree(spec, CART).fit(LMFAO(db, config))
        return verify.cart_digest(tree), tree.aggregate_seconds / max(1, tree.num_nodes)

    def rkmeans():
        result = rk_means(
            db,
            RKMEANS_DIMENSIONS,
            k=5,
            engine_factory=lambda database: LMFAO(database, rk_config),
        )
        steps = result.step_seconds
        batches = (steps["step1_histograms"] + steps["step3_grid"]) / 2
        return verify.rk_digest(result), batches

    return (("lr", lr), ("cart", cart), ("rkmeans", rkmeans))


def run_train(ctx: Context) -> Outcome:
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        db = streams.database(ctx.seed, ctx.scale)
        spec = favorita_features(db)
        setups.append(time.perf_counter() - start)

    records: list[Record] = []
    cold: list[float] = []
    phases = {"setup": sum(setups)}
    start = time.perf_counter()
    while not records or time.perf_counter() - start < ctx.seconds:
        for kind, fit in _apps(db, spec, TRAIN_CONFIG, RKMEANS_CONFIG):
            # an engine holds reference cycles: without a collection the
            # previous fit's tries stay resident for as long as the cyclic
            # collector happens to wait, and peak RSS moves with its timing
            gc.collect()
            result, seconds, error, _ = _op(ctx, kind, 0, fit)
            record = Record(kind, seconds, error)
            if result is not None:
                record.output, batch_seconds = result
                cold.append(batch_seconds)
            records.append(record)
    window = time.perf_counter() - start
    outcome = Outcome(
        "train", setups, records, cold, len(records) / window, len(records),
        _peak_rss_mb(), info=_info(db), phase_s=phases,
    )
    since = _lap(phases, "measured", start)
    if ctx.tracer:
        # the fits' engines are gone: replay a CART root batch, compiled
        # once, on a fresh training engine
        engine = LMFAO(db, TRAIN_CONFIG)
        compiled = engine.compile(cart_node_batch(spec, ()))
        ctx.tracer.measure_overhead([lambda: engine.execute(compiled)])
        since = _lap(phases, "overhead", since)

    # first cycle against a sequential NumPy engine, later cycles bit-exact
    # (the three reference fits share both cores; NumPy releases the GIL
    # in its large array operations)
    apps = _apps(db, spec, verify.REFERENCE_CONFIG, verify.REFERENCE_RKMEANS_CONFIG)
    with ThreadPoolExecutor(2) as pool:
        fits = {kind: pool.submit(fit) for kind, fit in apps}
        reference = {kind: future.result()[0] for kind, future in fits.items()}
    first: dict[str, dict] = {}
    for record in records:
        if record.error:
            continue
        if record.kind in first:
            problem = verify.compare_digest(record.kind, record.output, first[record.kind], True)
        else:
            first[record.kind] = record.output
            problem = verify.compare_digest(record.kind, record.output, reference[record.kind], False)
        if problem:
            record.error = "wrong answer: " + problem
    _lap(phases, "checks", since)
    return outcome


# ----------------------------------------------------------------- serve-read


def _read(server, spec, request, submit: bool):
    batch = streams.build_batch(request, spec)
    if submit:
        return lambda: server.submit(batch).result(timeout=OP_TIMEOUT_S)
    return lambda: server.run(batch)


def _read_gauges(op, result, server) -> None:
    if op is not None and result is not None:
        op.gauges.update(_server_gauges(server))
        op.gauges["serve.groups_skipped"] = len(result.skipped_groups)


def _hit_ratio(stats) -> float:
    lookups = stats.hits + stats.misses
    return stats.hits / lookups if lookups else 0.0


def _server_gauges(server) -> dict:
    """Cache and snapshot gauges, sampled right after a traced op.

    Read from the caches and the snapshot store directly: ``server.stats()``
    waits for an in-flight group commit, so a reader sampling through it
    would stall behind every write.
    """
    plan, view = server.plan_cache.stats(), server.view_cache.stats()
    return {
        "serve.plan_hit_ratio": _hit_ratio(plan),
        "serve.view_hit_ratio": _hit_ratio(view),
        "serve.view_bytes": view.weight,
        "serve.live_snapshots": len(server.engine._snapshots.retained_versions()),
    }


def _read_record(kind, request, result, seconds, error) -> Record:
    record = Record(kind, seconds, error, request=request)
    if result is not None:
        record.version = result.snapshot_version
        record.output = verify.groups_of(result)
    return record


def run_serve_read(ctx: Context) -> Outcome:
    setups = []
    server = None
    for _ in range(SETUP_REPEATS):
        if server is not None:
            server.close()
        start = time.perf_counter()
        db = streams.database(ctx.seed, ctx.scale)
        server = AggregateServer(db, SERVE_CONFIG)
        setups.append(time.perf_counter() - start)
    try:
        return _serve_read(ctx, db, server, setups)
    finally:
        server.close()


def _serve_read(ctx, db, server, setups) -> Outcome:
    spec = favorita_features(db)
    pools = streams.constant_pools(db)
    client_streams = [streams.client_stream(ctx.seed, c, pools) for c in (0, 1)]
    if ctx.tracer:
        ctx.tracer.route("lmfao-serve", 1)

    records: list[Record] = []
    cold: list[float] = []
    phases = {"setup": sum(setups)}
    since = time.perf_counter()
    for request in streams.cold_requests(ctx.seed, pools):
        result, seconds, error, op = _op(ctx, "cold", 0, _read(server, spec, request, False))
        records.append(_read_record("cold", request, result, seconds, error))
        cold.append(seconds)

    stop = threading.Event()
    steady: list[list[Record]] = [[], []]

    def client(c: int) -> None:
        for request in client_streams[c]:
            if stop.is_set():
                return
            fn = _read(server, spec, request, submit=c == 1)
            result, seconds, error, op = _op(ctx, "read", c, fn)
            _read_gauges(op, result, server)
            steady[c].append(_read_record("read", request, result, seconds, error))

    since = _lap(phases, "cold", since)
    window = _run_clients([client, client], stop, ctx.seconds)
    since = _lap(phases, "measured", since)
    if ctx.tracer:
        replay = client_streams[0][:OVERHEAD_OPS]
        ctx.tracer.measure_overhead([_read(server, spec, r, False) for r in replay])
        since = _lap(phases, "overhead", since)
    reads = steady[0] + steady[1]
    records.extend(reads)
    outcome = Outcome(
        "serve-read", setups, records, cold, len(reads) / window, len(reads),
        _peak_rss_mb(), info=_info(db), phase_s=phases,
    )
    if ctx.corrupt:
        _corrupt(reads)

    _check_reads(verify.JoinOracle(db), spec, records)
    _lap(phases, "checks", since)
    return outcome


def _run_clients(clients, stop: threading.Event, seconds: float | None = None) -> float:
    """Run ``clients[i](i)`` on their own threads until ``stop`` is set.

    With ``seconds`` the deadline sets ``stop``; without, a client does
    (serve-write's writer ends on a write-cycle boundary). Each client
    finishes its in-flight op. Returns the window until the last one did.
    """
    start = time.perf_counter()
    threads = [
        threading.Thread(target=fn, args=(i,), name=f"bench-client-{i}", daemon=True)
        for i, fn in enumerate(clients)
    ]
    for thread in threads:
        thread.start()
    stop.wait(seconds)
    stop.set()
    for thread in threads:
        thread.join(timeout=OP_TIMEOUT_S + 30)
        if thread.is_alive():
            raise TimeoutError(f"{thread.name} did not finish its last op")
    return time.perf_counter() - start


# ---------------------------------------------------------------- serve-write


def run_serve_write(ctx: Context) -> Outcome:
    start = time.perf_counter()
    db = streams.database(ctx.seed, ctx.scale)
    server = AggregateServer(db, SERVE_CONFIG)
    try:
        spec = favorita_features(db)
        handle = server.maintain(covariance_batch(spec))
        setups = [time.perf_counter() - start]
        return _serve_write(ctx, db, server, spec, handle, setups)
    finally:
        server.close()


def _serve_write(ctx, db, server, spec, handle, setups) -> Outcome:
    pools = streams.constant_pools(db)
    hot = streams.hot_set(pools)
    deltas = streams.delta_stream(ctx.seed, db)
    if ctx.tracer:
        ctx.tracer.route("lmfao-commit", 0)

    records: list[Record] = []
    cold: list[float] = []
    phases = {"setup": sum(setups)}
    since = time.perf_counter()
    for request in hot:
        result, seconds, error, op = _op(ctx, "cold", 0, _read(server, spec, request, False))
        records.append(_read_record("cold", request, result, seconds, error))
        cold.append(seconds)

    stop = threading.Event()
    writer_records: list[Record] = []
    reader_records: list[Record] = []
    loop = {"writes": 0, "seconds": 0.0}

    def writer(_c: int) -> None:
        began = time.perf_counter()
        try:
            for i, delta in enumerate(deltas):
                before = server.stats().writes.committed_groups if ctx.tracer else 0
                result, seconds, error, op = _op(
                    ctx, "write", 0, lambda: handle.apply(**delta.apply_kwargs())
                )
                record = Record("write", seconds, error)
                if result is not None:
                    record.version = result.version
                    record.output = i + 1  # deltas applied so far
                writer_records.append(record)
                if op is not None and result is not None:
                    op.gauges.update(_server_gauges(server))
                    op.gauges["serve.groups_skipped"] = result.groups_skipped
                    op.gauges["write.committed_groups"] = (
                        server.stats().writes.committed_groups - before
                    )
                request = hot[i % len(hot)]
                result, seconds, error, _ = _op(ctx, "raw", 0, _read(server, spec, request, False))
                writer_records.append(_read_record("raw", request, result, seconds, error))
                loop["writes"] = i + 1
                loop["seconds"] = time.perf_counter() - began
                if (i + 1) % 4 == 0 and loop["seconds"] >= ctx.seconds:
                    break
        finally:
            stop.set()

    def reader(_c: int) -> None:
        i = 0
        while not stop.is_set():
            request = hot[i % len(hot)]
            result, seconds, error, op = _op(ctx, "read", 1, _read(server, spec, request, False))
            _read_gauges(op, result, server)
            reader_records.append(_read_record("read", request, result, seconds, error))
            i += 1

    since = _lap(phases, "cold", since)
    _run_clients([writer, reader], stop)
    since = _lap(phases, "measured", since)
    if ctx.tracer:
        replay = hot[:OVERHEAD_OPS]
        ctx.tracer.measure_overhead([_read(server, spec, r, False) for r in replay])
        since = _lap(phases, "overhead", since)
    records.extend(writer_records + reader_records)
    outcome = Outcome(
        "serve-write", setups, records, cold, loop["writes"] / loop["seconds"],
        loop["writes"], _peak_rss_mb(), extra_checks=1, info=_info(db),
        phase_s=phases,
    )
    if ctx.corrupt:
        _corrupt(reader_records)

    for record in writer_records:
        if record.kind == "write" and not record.error and record.version != record.output:
            record.error = f"wrong answer: version {record.version} after {record.output} writes"
    # the from-scratch recompute (mostly gcc and native kernels, which
    # release the GIL) overlaps the oracle's per-version read checks
    with ThreadPoolExecutor(1) as pool:
        recompute = pool.submit(handle.recompute)
        _check_reads_by_version(db, spec, deltas, records)
        recomputed = verify.groups_of(recompute.result())
    problem = verify.compare_results(handle.compiled.batch, verify.groups_of(handle), recomputed)
    if problem:
        outcome.failed_checks.append("maintained handle vs recompute: " + problem)
    _lap(phases, "checks", since)
    return outcome


def _check_reads(oracle, spec, records: list[Record]) -> None:
    """Compare each read with the oracle's answer to the same request."""
    answers: dict[tuple, tuple] = {}
    for record in records:
        if record.error:
            continue
        key = record.request.key
        if key not in answers:
            batch = streams.build_batch(record.request, spec)
            answers[key] = (batch, oracle.answer(batch))
        batch, want = answers[key]
        problem = verify.compare_results(batch, record.output, want)
        if problem:
            record.error = f"wrong answer at version {record.version}: {problem}"


def _check_reads_by_version(db, spec, deltas, records: list[Record]) -> None:
    """Check every read against the oracle at its snapshot version.

    Version ``v`` is rebuilt by replaying the writer's first ``v`` deltas
    onto the initial database.
    """
    by_version: dict[int, list[Record]] = defaultdict(list)
    for record in records:
        if record.request is not None:
            by_version[record.version].append(record)
    current = db
    for version in range(max(by_version, default=-1) + 1):
        if version:
            changes = normalize_deltas(current, **deltas[version - 1].apply_kwargs())
            for name, change in changes.items():
                current = current.with_relation(change.apply_to(current.relation(name)))
        if version in by_version:
            _check_reads(verify.JoinOracle(current), spec, by_version[version])


WORKLOADS = {
    "train": run_train,
    "serve-read": run_serve_read,
    "serve-write": run_serve_write,
}
