"""Per-layer spans recorded from outside the program.

:class:`Tracer` wraps the public functions listed in :data:`TARGETS` for
the duration of a traced run and restores them afterwards; the untraced
run never installs anything. Each wrapper records a span (layer, start,
end, self time) on the calling thread and attributes it to the client
operation that caused it:

* a span on a client thread belongs to that client's current op;
* a span on a thread whose name starts with a routed prefix belongs to
  the routed client's current op — the server's request pool
  (``lmfao-serve``) serves the ``submit`` client, and the committer
  (``lmfao-commit``) runs the single writer's in-flight ``apply``;
* a span on any other thread (the engine's worker pool) belongs to the
  only op in flight, if exactly one is.

A layer's time is the self time of its spans: the span's duration minus
the time its child spans on the same thread cover. ``core.compile`` is
the one inclusive layer (compile with its children). Spans stay in memory
until :meth:`Tracer.dump` writes them out at the end of the run.
:meth:`Tracer.measure_overhead` times replayed ops with the wrappers
removed and installed; the gap is the tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path


class TraceError(RuntimeError):
    """A wrapped name no longer exists: a layer would silently go unmeasured."""


# ---------------------------------------------------------------- observers
# Each observer sees one call and adds counts to its op (under the
# tracer's lock).


def _count_trie(tracer, counts, args, kwargs, result):
    counts["data.trie_builds"] += 1
    counts["data.trie_rows"] += args[1].num_rows


def _rows_of_trie(tracer, counts, args, kwargs, result):
    counts["core.rows_scanned"] += args[1].num_rows


def _rows_of_env(tracer, counts, args, kwargs, result):
    counts["core.rows_scanned"] += args[1].nrows


def _plan_lookup(tracer, counts, args, kwargs, result):
    counts["plan_lookups"] += 1
    counts["plan_hits"] += result is not None


def _view_lookup(tracer, counts, args, kwargs, result):
    counts["view_lookups"] += 1
    counts["view_hits"] += result is not None


def _collect_lap(tracer, counts, args, kwargs, result):
    counts["collect_s"] += result.timings.get("collect", 0.0)


def _view_put(tracer, counts, args, kwargs, result):
    # evictions only happen inside puts: the counter's growth since the
    # previous put is what this put evicted.
    cache = args[0]
    evictions = cache.stats().evictions
    counts["view_evictions"] += evictions - tracer.seen.get(id(cache), 0)
    tracer.seen[id(cache)] = evictions


def _presorted(args, kwargs) -> bool:
    # partition slices re-index an already sorted relation; that work is
    # part of core.partition, not a trie build.
    return bool(kwargs.get("presorted"))


@dataclass(frozen=True)
class Target:
    module: str
    name: str  # "function" or "Class.method"
    layer: str | None  # None: count only, no span
    observe: object = None
    skip: object = None


#: Every wrapped name, its layer, and what it counts. Layers starting with
#: ``struct.`` frame other spans (a whole engine run, a group commit) and
#: are not layers of their own.
TARGETS: tuple[Target, ...] = (
    Target("repro.serve.fingerprint", "batch_fingerprint", "serve.fingerprint"),
    Target("repro.serve.fingerprint", "bind_batch", "serve.fingerprint"),
    Target("repro.serve.fingerprint", "view_identities", "serve.view_lookup"),
    Target("repro.serve.viewcache", "ViewCache.get", "serve.view_lookup", _view_lookup),
    Target("repro.serve.viewcache", "ViewCache.put", "serve.view_publish", _view_put),
    Target("repro.serve.plancache", "PlanCache.get", None, _plan_lookup),
    Target("repro.core.engine", "LMFAO.compile", "core.compile"),
    Target("repro.core.viewgen", "ViewGenerator.generate", "core.viewgen"),
    Target("repro.core.groups", "build_groups", "core.groups"),
    Target("repro.core.orders", "order_group", "core.groups"),
    Target("repro.core.decompose", "decompose_group", "core.decompose"),
    Target("repro.core.codegen", "generate_group", "core.codegen"),
    Target("repro.core.npbackend", "compile_numpy_groups", "core.np_lower"),
    Target("repro.core.cbackend", "compile_c_groups", "core.c_compile"),
    Target("repro.data.trie", "TrieIndex.__init__", "data.trie_build", _count_trie, _presorted),
    Target("repro.data.relation", "Relation.sorted_by", "data.sort"),
    Target("repro.core.runtime", "partition_tries", "core.partition"),
    Target("repro.data.trie", "TrieIndex.partitions", "core.partition"),
    Target("repro.core.runtime", "merge_partial_outputs", "core.merge"),
    Target("repro.core.npbackend", "NumpyCompiledGroup.prepare_bindings", "core.marshal"),
    Target("repro.core.cbackend", "CCompiledGroup.prepare_bindings", "core.marshal"),
    Target("repro.core.runtime", "prepare_python_bindings", "core.marshal"),
    Target("repro.core.npbackend", "NumpyCompiledGroup.execute", "core.kernel", _rows_of_trie),
    Target("repro.core.cbackend", "CCompiledGroup.execute", "core.kernel", _rows_of_trie),
    Target("repro.core.codegen", "CompiledGroup.__call__", "core.kernel", _rows_of_env),
    # the Python backend's per-call set-up (level lists, prefix sums)
    Target("repro.core.runtime", "GroupEnvironment.__init__", "core.kernel"),
    Target("repro.core.costmodel", "group_decision", "core.costmodel"),
    Target("repro.core.topk", "finish_ordered", "core.topk"),
    Target("repro.incremental.delta", "normalize_deltas", "incremental.normalize"),
    Target("repro.incremental.delta", "RelationDelta.apply_to", "incremental.delta_apply"),
    Target("repro.core.snapshot", "Snapshot.with_relations", "core.snapshot"),
    Target("repro.core.snapshot", "SnapshotStore.install", "core.snapshot"),
    Target("repro.core.engine", "LMFAO.run", "struct.run"),
    Target("repro.core.engine", "LMFAO.execute", "struct.execute", _collect_lap),
    Target("repro.serve.server", "AggregateServer._commit_group", "struct.commit"),
)

OPS = ("cold", "read", "raw", "write", "lr", "cart", "rkmeans")
_READS = ("cold", "read", "raw")
_APPS = ("lr", "cart", "rkmeans")
_ALL = OPS

#: Reported per-layer metrics: (name, unit, op kinds it is reported for).
LAYER_METRICS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("serve.fingerprint_ms", "ms", _READS),
    ("serve.view_lookup_ms", "ms", ("read", "raw")),
    ("serve.view_publish_ms", "ms", ("read", "raw")),
    ("serve.plan_hit_ratio", "ratio", ("read", "write")),
    ("serve.view_hit_ratio", "ratio", ("read", "write")),
    ("serve.view_evictions", "count", ("read", "write")),
    ("serve.view_bytes", "bytes", ("read", "write")),
    ("serve.groups_skipped", "count", ("read", "write")),
    ("serve.live_snapshots", "count", ("read", "write")),
    ("core.compile_ms", "ms", ("cold",) + _APPS),
    ("core.viewgen_ms", "ms", ("cold",) + _APPS),
    ("core.groups_ms", "ms", ("cold",) + _APPS),
    ("core.decompose_ms", "ms", ("cold",) + _APPS),
    ("core.codegen_ms", "ms", ("cold",) + _APPS),
    ("core.np_lower_ms", "ms", ("cold",) + _APPS),
    ("core.c_compile_ms", "ms", ("cold",) + _APPS),
    ("data.trie_build_ms", "ms", ("cold", "raw", "write") + _APPS),
    ("data.sort_ms", "ms", ("cold", "raw", "write") + _APPS),
    ("data.trie_builds", "count", ("cold", "raw", "write") + _APPS),
    ("data.trie_rows", "count", ("cold", "raw", "write") + _APPS),
    ("core.partition_ms", "ms", _APPS),
    ("core.merge_ms", "ms", _APPS),
    ("core.marshal_ms", "ms", _ALL),
    ("core.kernel_ms", "ms", _ALL),
    ("core.rows_scanned", "count", _ALL),
    ("core.costmodel_ms", "ms", ("read",)),
    ("core.topk_ms", "ms", ("read",)),
    ("core.collect_ms", "ms", ("read",)),
    ("incremental.normalize_ms", "ms", ("write",)),
    ("incremental.delta_apply_ms", "ms", ("write",)),
    ("core.snapshot_ms", "ms", ("write",)),
    ("write.queue_wait_ms", "ms", ("write",)),
    ("write.committed_groups", "count", ("write",)),
    ("ml.solve_ms", "ms", _APPS),
    ("other_ms", "ms", _ALL),
    ("wall_ms", "ms", _ALL),
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every reported per-layer metric as ``(name, unit)``, in report order."""
    names = [
        (f"{kind}.{metric}", unit)
        for metric, unit, kinds in LAYER_METRICS
        for kind in kinds
    ]
    names.append(("trace.overhead_pct", "%"))
    return names


# -------------------------------------------------------------------- tracing


@dataclass(eq=False)
class Op:
    """One client operation: its kind, interval, spans and counts."""

    kind: str
    client: int
    start: float
    end: float = 0.0
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(float))
    #: gauges sampled when the op ends (view bytes, live snapshots, ...).
    gauges: dict = field(default_factory=dict)


def _resolve(target: Target):
    """``(owner, attribute, original, is_method)`` of one target."""
    try:
        module = importlib.import_module(target.module)
    except ImportError as exc:
        raise TraceError(f"cannot import {target.module} to trace {target.name}") from exc
    owner_name, _, attr = target.name.rpartition(".")
    owner = module
    if owner_name:
        owner = getattr(module, owner_name, None)
        if owner is None:
            raise TraceError(f"{target.module}.{owner_name} is gone; cannot trace {target.name}")
    original = owner.__dict__.get(attr) if owner_name else getattr(owner, attr, None)
    if original is None:
        raise TraceError(f"{target.module}.{target.name} is gone; its layer would go unmeasured")
    return owner, attr, original, bool(owner_name)


class Tracer:
    """Installs the wrappers, attributes spans to ops, computes layer metrics."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._routes: list[tuple[str, int]] = []
        self._client_ops: dict[int, Op | None] = {}
        self._active: list[Op] = []
        self._patches: list[tuple[object, str, object]] = []
        self.ops: list[Op] = []
        self.unattributed = 0
        #: untraced/traced gap of :meth:`measure_overhead` (%), and the
        #: seconds of its untraced (False) and traced (True) runs.
        self.overhead_pct = 0.0
        self.overhead_runs: dict[bool, float] = {}
        #: per-object counter readings observers compare against.
        self.seen: dict[int, int] = {}

    # ------------------------------------------------------------ op context
    def route(self, thread_prefix: str, client: int) -> None:
        """Attribute spans on threads named ``thread_prefix*`` to ``client``."""
        self._routes.append((thread_prefix, client))

    def begin(self, kind: str, client: int) -> Op:
        op = Op(kind, client, time.perf_counter())
        self._local.op = op
        with self._lock:
            self._client_ops[client] = op
            self._active.append(op)
        return op

    def end(self, op: Op) -> None:
        op.end = time.perf_counter()
        self._local.op = None
        with self._lock:
            self._client_ops[op.client] = None
            self._active.remove(op)
            self.ops.append(op)

    def _current(self) -> Op | None:
        op = getattr(self._local, "op", None)
        if op is not None:
            return op
        name = threading.current_thread().name
        for prefix, client in self._routes:
            if name.startswith(prefix):
                return self._client_ops.get(client)
        active = self._active
        return active[0] if len(active) == 1 else None

    # --------------------------------------------------------------- install
    def install(self) -> None:
        """Wrap every target; raises :class:`TraceError` if one is missing."""
        resolved = [(t, *_resolve(t)) for t in TARGETS]
        try:
            for target, owner, attr, original, is_method in resolved:
                wrapper = self._wrap(original, target)
                if is_method:
                    self._patch(owner, attr, wrapper)
                    continue
                # functions are rebound in every repro module holding them
                for module in list(sys.modules.values()):
                    if getattr(module, "__name__", "").startswith("repro") and (
                        module.__dict__.get(attr) is original
                    ):
                        self._patch(module, attr, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, target: Target):
        tracer = self
        layer, observe, skip = target.layer, target.observe, target.skip
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if skip is not None and skip(args, kwargs):
                return fn(*args, **kwargs)
            if layer is None:
                result = fn(*args, **kwargs)
                tracer._observe(observe, args, kwargs, result)
                return result
            stack = tracer._stack()
            frame = [0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                op = tracer._current()
                if op is None:
                    tracer.unattributed += 1
                else:
                    op.spans.append((layer, start, end, duration - frame[0], duration))
            if observe is not None:
                tracer._observe(observe, args, kwargs, result)
            return result

        return wrapper

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _observe(self, observe, args, kwargs, result) -> None:
        op = self._current()
        if op is None:
            return
        with self._lock:
            observe(self, op.counts, args, kwargs, result)

    def measure_overhead(self, ops, pairs: int = 8) -> None:
        """Measure what tracing costs: untraced vs traced runs of the same ops.

        ``pairs`` times an op of ``ops`` (zero-argument callables; each
        consecutive two pairs share one, cycling) is timed once with the
        wrappers removed and once with them installed, alternating which
        goes first so that drift cancels.
        Each timed run follows an untimed one in the same state, which
        warms the caches and re-specializes call sites after the swap. The
        gap between the two totals is :attr:`overhead_pct`. Called after
        the timed window, from one thread: its spans belong to no op.
        """
        seconds = {False: 0.0, True: 0.0}
        for i in range(pairs):
            op = ops[i // 2 % len(ops)]
            for traced in (False, True) if i % 2 == 0 else (True, False):
                if not traced:
                    self.uninstall()
                try:
                    op()
                    start = time.perf_counter()
                    op()
                    seconds[traced] += time.perf_counter() - start
                finally:
                    if not traced:
                        self.install()
        self.overhead_pct = 100.0 * (seconds[True] / seconds[False] - 1.0)
        self.overhead_runs = seconds

    # ---------------------------------------------------------------- output
    def dump(self, path: Path) -> None:
        """Write every op and its spans as JSON (called once, at the end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((op.start for op in self.ops), default=0.0)
        payload = [
            {
                "kind": op.kind,
                "client": op.client,
                "start_ms": (op.start - origin) * 1e3,
                "wall_ms": (op.end - op.start) * 1e3,
                "counts": dict(op.counts),
                "gauges": op.gauges,
                "spans": [
                    [layer, (s - origin) * 1e3, (e - origin) * 1e3, self_t * 1e3]
                    for layer, s, e, self_t, _ in op.spans
                ],
            }
            for op in self.ops
        ]
        path.write_text(
            json.dumps(
                {
                    "unattributed_spans": self.unattributed,
                    "overhead_pct": self.overhead_pct,
                    "overhead_runs_s": {
                        "untraced": self.overhead_runs.get(False, 0.0),
                        "traced": self.overhead_runs.get(True, 0.0),
                    },
                    "ops": payload,
                }
            )
        )

    def layer_metrics(self) -> dict[str, float]:
        """Every :func:`per_layer_names` metric; op kinds not run report 0."""
        by_kind: dict[str, list[Op]] = defaultdict(list)
        for op in self.ops:
            by_kind[op.kind].append(op)
        metrics: dict[str, float] = {}
        for kind in OPS:
            metrics.update(_kind_metrics(kind, by_kind.get(kind, [])))
        metrics["trace.overhead_pct"] = self.overhead_pct
        wanted = {name for name, _ in per_layer_names()}
        return {name: value for name, value in metrics.items() if name in wanted}


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def _op_breakdown(op: Op) -> dict[str, float]:
    """One op's layer times (ms), counts, coverage and derived layers."""
    out: dict[str, float] = defaultdict(float)
    covered: list[tuple[float, float]] = []
    runs: list[tuple[float, float]] = []
    commit = 0.0
    for layer, start, end, self_time, duration in op.spans:
        if layer == "struct.run":
            runs.append((start, end))
        elif layer == "struct.commit":
            commit += duration
        elif not layer.startswith("struct."):
            out[layer + "_ms"] += 1e3 * (duration if layer == "core.compile" else self_time)
            covered.append((max(start, op.start), min(end, op.end)))
    wall = op.end - op.start
    collect = max(0.0, op.counts.get("collect_s", 0.0) - out["core.topk_ms"] / 1e3)
    out["core.collect_ms"] = 1e3 * collect
    queue_wait = wall - commit if commit else 0.0
    out["write.queue_wait_ms"] = 1e3 * queue_wait
    solve = wall - _union_length(runs) if runs else 0.0
    out["ml.solve_ms"] = 1e3 * solve
    other = wall - _union_length(covered) - collect - queue_wait - solve
    out["other_ms"] = 1e3 * max(0.0, other)
    out["wall_ms"] = 1e3 * wall
    for name in ("data.trie_builds", "data.trie_rows", "core.rows_scanned"):
        out[name] = op.counts.get(name, 0.0)
    out["serve.view_evictions"] = op.counts.get("view_evictions", 0.0)
    for name, value in op.gauges.items():
        out[name] = value
    return out


def _kind_metrics(kind: str, ops: list[Op]) -> dict[str, float]:
    """Per-op means of every layer metric over the ops of one kind."""
    names = [metric for metric, _unit, kinds in LAYER_METRICS if kind in kinds]
    result = {f"{kind}.{name}": 0.0 for name in names}
    if not ops:
        return result
    totals: dict[str, float] = defaultdict(float)
    for op in ops:
        for name, value in _op_breakdown(op).items():
            totals[name] += value
    for name in names:
        result[f"{kind}.{name}"] = totals[name] / len(ops)
    if kind == "read":
        # a read's own cache lookups; write ops look nothing up and report
        # the server's cumulative ratios, sampled after the op as gauges
        for cache in ("plan", "view"):
            hits, lookups = (
                sum(op.counts.get(f"{cache}_{k}", 0.0) for op in ops) for k in ("hits", "lookups")
            )
            result[f"read.serve.{cache}_hit_ratio"] = hits / lookups if lookups else 0.0
    return result
