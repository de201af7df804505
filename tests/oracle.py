"""The ordered differential oracle: independent ranking over the join.

The engine's ordered path (:mod:`repro.core.topk`) ranks with composite
sort keys (one ``sorted``/``heapq``/``lexsort`` pass over
``(partition, ±value, residual key)``). The oracle here deliberately
uses a *different* algorithm over a *different* evaluation: the full
grouped result comes from brute-force evaluation over the materialised
join (:func:`tests.helpers.oracle`), and the ranking is a two-pass
stable sort per partition — residual key ascending first, then a stable
sort on the order value with ``reverse=descending``. Agreement between
the two is therefore evidence, not tautology.

``assert_ordered_equal`` is the comparison contract of every ordered
grid: key *sequences* (including tie order) must be identical, values
numerically equal within float tolerance. When pandas is importable the
oracle additionally cross-checks its own ranking against a
``DataFrame.sort_values`` implementation; the environment here ships
without pandas, so that arm is skipped silently rather than stubbed.
"""

from __future__ import annotations

import math

from repro.data.catalog import Database
from repro.data.relation import Relation
from repro.query.query import Query, QueryResult

from tests.helpers import oracle

try:  # optional cross-check only — never a hard dependency
    import pandas as _pd
except ImportError:  # pragma: no cover - absent in the shipped image
    _pd = None


def rank_reference(query: Query, full: QueryResult) -> QueryResult:
    """Rank + truncate ``full`` per the query's order spec (reference).

    Two-pass stable sort per partition: rows are first ordered by the
    residual group-by key ascending, then stably by the order aggregate
    (``reverse`` for descending specs) — ties keep the residual order,
    realising the same total order as the engine's composite keys by a
    different route. Partitions are emitted in ascending key order.
    """
    spec = query.order_by
    if spec is None:
        raise ValueError(f"{query.name} is not an ordered query")
    partition = tuple(query.group_by.index(a) for a in spec.partition_by)
    in_partition = set(partition)
    residual = tuple(
        i for i in range(len(query.group_by)) if i not in in_partition
    )

    buckets: dict[tuple, list] = {}
    for key, values in full.groups.items():
        key = key if isinstance(key, tuple) else (key,)
        part = tuple(key[i] for i in partition)
        buckets.setdefault(part, []).append(
            (key, tuple(float(v) for v in values))
        )

    groups: dict[tuple, tuple[float, ...]] = {}
    for part in sorted(buckets):
        rows = sorted(
            buckets[part], key=lambda row: tuple(row[0][i] for i in residual)
        )
        rows.sort(key=lambda row: row[1][spec.agg_index], reverse=spec.descending)
        if query.limit is not None:
            rows = rows[: query.limit]
        for key, values in rows:
            groups[key] = values
    result = QueryResult(query=query, groups=groups)
    if _pd is not None:
        _pandas_cross_check(query, full, result)
    return result


def ordered_oracle(db_or_join: Database | Relation, query: Query) -> QueryResult:
    """Ground truth for an ordered query: brute-force join + reference rank."""
    return rank_reference(query, oracle(db_or_join, query))


def assert_ordered_equal(
    actual: QueryResult,
    expected: QueryResult,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-9,
) -> None:
    """Sequence equality of ordered results: same keys, same *order*.

    Tie order is part of the contract — two results that contain the
    same rows but interleave ties differently fail here, which is what
    makes the cross-backend / parallel / incremental grids assert
    bit-exact determinism rather than mere set agreement.
    """
    actual_keys = list(actual.groups)
    expected_keys = list(expected.groups)
    assert actual_keys == expected_keys, (
        f"{actual.query.name}: ordered key sequences differ;\n"
        f"  actual[:8]   = {actual_keys[:8]}\n"
        f"  expected[:8] = {expected_keys[:8]}"
    )
    for key, want in expected.groups.items():
        got = actual.groups[key]
        assert len(got) == len(want), f"width mismatch at {key}"
        for g, w in zip(got, want):
            assert math.isclose(g, w, rel_tol=rel_tol, abs_tol=abs_tol), (
                f"{actual.query.name}[{key}]: {g} != {w}"
            )


def _pandas_cross_check(
    query: Query, full: QueryResult, reference: QueryResult
) -> None:  # pragma: no cover - pandas absent in the shipped image
    """Third opinion via ``DataFrame.sort_values`` (runs only with pandas)."""
    spec = query.order_by
    rows = []
    for key, values in full.groups.items():
        key = key if isinstance(key, tuple) else (key,)
        rows.append(dict(zip(query.group_by, key)) | {"__v": values[spec.agg_index]})
    if not rows:
        assert reference.groups == {}
        return
    frame = _pd.DataFrame(rows)
    residual = [a for a in query.group_by if a not in spec.partition_by]
    frame = frame.sort_values(
        list(spec.partition_by) + ["__v"] + residual,
        ascending=[True] * len(spec.partition_by)
        + [not spec.descending]
        + [True] * len(residual),
        kind="stable",
    )
    if query.limit is not None:
        if spec.partition_by:
            frame = frame.groupby(list(spec.partition_by), sort=False).head(
                query.limit
            )
        else:
            frame = frame.head(query.limit)
    keys = [
        tuple(row) for row in frame[list(query.group_by)].itertuples(index=False)
    ]
    assert keys == list(reference.groups), "pandas cross-check diverged"
