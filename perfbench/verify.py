"""Output checks, all run after the timed window.

Serving reads are compared against :class:`JoinOracle` — a brute-force
evaluation over the materialized join at the read's snapshot version,
which shares no code with the engine's planner, caches or kernels;
maintained handles against ``handle.recompute()``; trained models against
the same apps on a sequential NumPy engine (Rk-means centroids: step 4
re-run on the reference's coreset in the engine's grid order). Counts (``SUM(1)`` slots)
must match exactly, other aggregates within a relative tolerance of
:data:`REL_TOL`, and ordered (top-k) results in the same rank order.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro import EngineConfig, weighted_kmeans
from repro.paper import FAVORITA_TREE

REL_TOL = 1e-9

#: The training reference: one thread, NumPy kernels (Rk-means on the
#: engine's own join tree, as in training).
REFERENCE_CONFIG = EngineConfig(backend="numpy", join_tree_edges=FAVORITA_TREE)
REFERENCE_RKMEANS_CONFIG = EngineConfig(backend="numpy")


class JoinOracle:
    """Answers aggregate batches by brute force over the natural join.

    The join is rebuilt by key lookup: starting from the fact relation,
    every other relation joins on the attributes already present (its keys
    must be unique, which the Favorita dimensions are). A query is a
    bincount over the joined rows with the engine's WHERE semantics —
    predicates are 0/1 indicators, so every join group appears, zeroed
    where the predicate fails — and ordered queries follow the tie-break
    contract of ``repro.query.OrderSpec``: partitions ascending, rows by
    the ordering aggregate, ties by the remaining key ascending.
    """

    def __init__(self, db, fact: str = "Sales") -> None:
        base = db.relation(fact)
        columns = {name: base.column(name) for name in base.attribute_names}
        codes: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        keep = np.ones(base.num_rows, dtype=bool)
        for relation in db.relations:
            if relation.name == fact:
                continue
            keys = [a for a in relation.attribute_names if a in columns]
            position, found = _lookup(relation, keys, columns)
            keep &= found
            for name in relation.attribute_names:
                if name not in columns:
                    # group codes come from the small relation, gathered per row
                    unique, inverse = np.unique(relation.column(name), return_inverse=True)
                    columns[name] = unique[inverse[position]]
                    codes[name] = (unique, inverse[position])
        self.columns = {name: column[keep] for name, column in columns.items()}
        self._codes = {name: (u, inverse[keep]) for name, (u, inverse) in codes.items()}
        self.num_rows = int(keep.sum())
        self._groupings: dict[tuple, tuple] = {}

    def answer(self, batch) -> dict[str, dict]:
        weights: dict = {}  # one weighted column per (WHERE, aggregate) of the batch
        return {query.name: self._query(query, weights) for query in batch}

    def _code(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        if name not in self._codes:
            self._codes[name] = np.unique(self.columns[name], return_inverse=True)
        return self._codes[name]

    def _weighted(self, where, aggregate, memo: dict) -> np.ndarray:
        key = (tuple(p.signature for p in where), aggregate)
        if key not in memo:
            product = np.ones(self.num_rows)
            for predicate in where:
                product = product * predicate.evaluate(self.columns[predicate.attribute])
            for factor in aggregate.factors:
                product = product * factor.function(self.columns[factor.attribute])
            memo[key] = product
        return memo[key]

    def _query(self, query, memo: dict) -> dict:
        values = [self._weighted(query.where, agg, memo) for agg in query.aggregates]
        if not query.group_by:
            return {(): tuple(float(v.sum()) for v in values)} if self.num_rows else {}
        ids, size, present, keys = self._grouping(query.group_by)
        sums = [np.bincount(ids, weights=v, minlength=size)[present].tolist() for v in values]
        groups = dict(zip(keys, zip(*sums)))
        return groups if query.order_by is None else _ranked(query, groups)

    def _grouping(self, group_by: tuple[str, ...]):
        """Row group ids, their range, the ids present and their key tuples."""
        if group_by not in self._groupings:
            ids = np.zeros(self.num_rows, dtype=np.int64)
            uniques = []
            for name in group_by:
                unique, inverse = self._code(name)
                ids = ids * len(unique) + inverse
                uniques.append(unique)
            size = int(np.prod([len(u) for u in uniques]))
            present = np.flatnonzero(np.bincount(ids, minlength=size))
            digits = []
            rest = present
            for unique in reversed(uniques):
                digits.append(unique[rest % len(unique)].tolist())
                rest = rest // len(unique)
            keys = list(zip(*reversed(digits)))
            self._groupings[group_by] = (ids, size, present, keys)
        return self._groupings[group_by]


def _lookup(relation, keys: list[str], columns: dict) -> tuple[np.ndarray, np.ndarray]:
    """Row of ``relation`` matching each fact row on ``keys``, and a found mask."""
    n = len(next(iter(columns.values())))
    fact_code = np.zeros(n, dtype=np.int64)
    dim_code = np.zeros(relation.num_rows, dtype=np.int64)
    found = np.ones(n, dtype=bool)
    for name in keys:
        unique = np.unique(relation.column(name))
        rank = np.searchsorted(unique, columns[name])
        clipped = np.minimum(rank, len(unique) - 1)
        found &= unique[clipped] == columns[name]
        fact_code = fact_code * len(unique) + clipped
        dim_code = dim_code * len(unique) + np.searchsorted(unique, relation.column(name))
    order = np.argsort(dim_code, kind="stable")
    sorted_code = dim_code[order]
    if len(sorted_code) > 1 and not np.all(sorted_code[1:] != sorted_code[:-1]):
        raise ValueError(f"{relation.name} is not keyed by {keys}")
    slot = np.minimum(np.searchsorted(sorted_code, fact_code), len(sorted_code) - 1)
    found &= sorted_code[slot] == fact_code
    return order[slot], found


def _ranked(query, groups: dict) -> dict:
    spec = query.order_by
    part = [query.group_by.index(a) for a in spec.partition_by]
    residual = [i for i in range(len(query.group_by)) if i not in part]
    partitions: dict[tuple, list] = defaultdict(list)
    for key, values in groups.items():
        partitions[tuple(key[i] for i in part)].append((key, values))
    sign = -1.0 if spec.descending else 1.0
    ranked = {}
    for pkey in sorted(partitions):
        rows = sorted(
            partitions[pkey],
            key=lambda kv: (sign * kv[1][spec.agg_index], tuple(kv[0][i] for i in residual)),
        )
        ranked.update(rows[: query.limit] if query.limit is not None else rows)
    return ranked


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


def groups_of(result) -> dict[str, dict]:
    """``query name -> groups`` of a RunResult, ApplyResult or handle."""
    return {name: qr.groups for name, qr in result.results.items()}


def compare_results(batch, got: dict[str, dict], want: dict[str, dict]) -> str | None:
    """None when ``got`` matches ``want`` for every query of ``batch``.

    Otherwise a one-line description of the first mismatch.
    """
    for query in batch:
        name = query.name
        if name not in got or name not in want:
            return f"{name}: missing from {'result' if name not in got else 'oracle'}"
        g, w = got[name], want[name]
        if set(g) != set(w):
            return f"{name}: {len(set(g) ^ set(w))} group keys differ"
        if query.order_by is not None and list(g) != list(w):
            return f"{name}: rank order differs"
        exact = [not agg.factors for agg in query.aggregates]
        for key, values in w.items():
            for slot, (a, b) in enumerate(zip(g[key], values)):
                if (a != b) if exact[slot] else not close(a, b):
                    return f"{name}[{key}] slot {slot}: {a!r} != {b!r}"
    return None


# ----------------------------------------------------------------- ml models


def lr_digest(model) -> dict:
    return {"theta": np.asarray(model.theta, dtype=np.float64), "objective": model.objective}


def _tree(node) -> list:
    if node is None:
        return []
    head = [
        node.feature,
        node.threshold,
        node.categorical,
        node.depth,
        node.count,
        node.prediction,
        node.variance,
    ]
    return [head, _tree(node.left), _tree(node.right)]


def cart_digest(tree) -> dict:
    return {"tree": _tree(tree.root), "nodes": tree.num_nodes}


def rk_digest(result) -> dict:
    # the grid's iteration order follows the engine's emission order, which
    # differs by backend; the coreset is compared as a sorted set of rows,
    # and ``order`` (engine row -> sorted position) restores the engine's.
    rows = np.column_stack([result.grid_points, result.grid_weights])
    order = np.lexsort(rows.T[::-1])
    return {
        "k": result.k,
        "centroids": np.asarray(result.centroids, dtype=np.float64),
        "coreset": rows[order],
        "order": order,
    }


def _close_arrays(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool(
        np.all(np.abs(a - b) <= REL_TOL * np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0))
    )


def _compare_tree(got: list, want: list, path: str = "root") -> str | None:
    if bool(got) != bool(want):
        return f"{path}: node present in only one tree"
    if not got:
        return None
    (g, gl, gr), (w, wl, wr) = got, want
    # split choice and counts exact; float statistics within tolerance
    if g[:5] != w[:5]:
        return f"{path}: split/count {g[:5]} != {w[:5]}"
    if not (close(g[5], w[5]) and close(g[6], w[6])):
        return f"{path}: prediction/variance {g[5:]} != {w[5:]}"
    return _compare_tree(gl, wl, path + ".L") or _compare_tree(gr, wr, path + ".R")


def compare_digest(app: str, got: dict, want: dict, exact: bool) -> str | None:
    """Compare two model digests: bit-identical when ``exact``, else by tolerance."""
    if exact:
        same = all(
            np.array_equal(got[k], want[k]) if isinstance(want[k], np.ndarray) else got[k] == want[k]
            for k in want
        )
        return None if same else f"{app}: not bit-identical to the first cycle"
    if app == "lr":
        if not _close_arrays(got["theta"], want["theta"]):
            return "lr: theta differs from the reference"
        return None if close(got["objective"], want["objective"]) else "lr: objective differs"
    if app == "cart":
        if got["nodes"] != want["nodes"]:
            return f"cart: {got['nodes']} nodes vs {want['nodes']}"
        return _compare_tree(got["tree"], want["tree"])
    got_rows, want_rows = got["coreset"], want["coreset"]
    if got_rows.shape != want_rows.shape or not np.array_equal(got_rows[:, -1], want_rows[:, -1]):
        return "rkmeans: coreset weights (counts) differ"
    if not _close_arrays(got_rows, want_rows):
        return "rkmeans: coreset points differ"
    # Step 4's k-means is seeded by position in the grid, which follows the
    # engine's emission order, so the reference's centroids are not
    # comparable: re-run step 4 on the reference's coreset in the engine's
    # order (rk_means' defaults: seed 0).
    rows = np.empty_like(want_rows)
    rows[got["order"]] = want_rows
    centroids = weighted_kmeans(rows[:, :-1], rows[:, -1], k=got["k"]).centroids
    return None if _close_arrays(got["centroids"], centroids) else "rkmeans: centroids differ"
