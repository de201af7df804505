"""Per-view delta rules: the static dirty-path structure of a compiled DAG.

A compiled batch is a DAG of view groups (paper Figure 2, right). For
incremental maintenance the relevant structure is coarser and static:

* each group runs at one join-tree **node** — a base-relation change
  dirties exactly the groups at that node;
* each group **consumes** the views its plans probe and **produces** views
  and query outputs — a changed view dirties its consumer groups;
* therefore an update to relation ``R`` can only affect the views on the
  paths from ``R``'s node towards each query root (Bakibayev et al.,
  "Aggregation and Ordering in Factorised Databases"): every other group's
  inputs are bit-identical and its cached outputs remain valid.

:class:`DeltaRules` precomputes these maps once per compiled batch. The
runtime scheduler in :mod:`repro.incremental.maintain` walks the execution
order and consults them, additionally *cutting off* propagation when a
refreshed view turns out unchanged (delta cutoff).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import topk
from repro.core.engine import _to_query_result
from repro.core.runtime import debug_checks_enabled


def refresh_unordered(query, old_groups, new_raw, dirty_keys):
    """Finish one unordered query after a merge touched only ``dirty_keys``.

    Copies the previous finished groups and re-converts just the raw keys
    the merge added or updated. ``dirty_keys`` is in merge order, and the
    merge appends new keys to the raw store in that same order while an
    updated key keeps its place — so the copy has exactly the dict order
    (and values) of a full :func:`repro.core.engine._to_query_result`
    over ``new_raw`` (asserted under ``LMFAO_DEBUG``).
    """
    groups = dict(old_groups)
    for key in dirty_keys:
        values = new_raw[key]
        groups[key if isinstance(key, tuple) else (key,)] = tuple(
            float(v) for v in values
        )
    if debug_checks_enabled():
        full = _to_query_result(query, new_raw)[0].groups
        assert list(groups.items()) == list(full.items()), (
            f"refresh_unordered({query.name}) diverged from the full finish"
        )
    return groups


def refresh_ordered(query, old_result, new_raw, dirty_keys):
    """Targeted re-rank of one ordered query after an apply round.

    The maintainer keeps the **full** raw group store for ordered queries
    (see :mod:`repro.core.topk`), so this never has to reconstruct
    evicted keys — it only re-ranks. ``dirty_keys`` is the set of raw
    group keys whose values this round added, changed or removed
    (collected by the numeric merge, or by diffing old vs new raw on a
    rescan); only the *partitions* containing a dirty key are re-ranked
    — inserts re-select via the bounded-heap kernel
    (:func:`repro.core.topk.rank_partition_items`), deletes re-rank the
    same way over the already-rescanned partition — while every clean
    partition's finished rows are reused verbatim from ``old_result``.
    The rebuilt dict walks all partitions in ascending order, so the
    result is bit-identical to a from-scratch finish over ``new_raw``
    (asserted under ``LMFAO_DEBUG``).

    ``dirty_keys=None`` means "unknown" and falls back to the full
    finish, as does any inconsistency between the old finished result
    and the new raw store.
    """
    if old_result is None or dirty_keys is None or query.limit == 0:
        return topk.finish_ordered(query, new_raw)[0]
    partition, residual = topk.order_positions(query)

    def part_of(key):
        key = key if isinstance(key, tuple) else (key,)
        return tuple(key[i] for i in partition)

    dirty_parts = {part_of(key) for key in dirty_keys}
    parts: set[tuple] = set()
    dirty_items: dict[tuple, list] = {}
    for key, values in new_raw.items():
        key = key if isinstance(key, tuple) else (key,)
        part = tuple(key[i] for i in partition)
        parts.add(part)
        if part in dirty_parts:
            dirty_items.setdefault(part, []).append(
                (key, tuple(float(v) for v in values))
            )
    clean: dict[tuple, list] = {}
    for key, values in old_result.groups.items():
        part = tuple(key[i] for i in partition)
        if part not in dirty_parts:
            clean.setdefault(part, []).append((key, values))
    if any(part not in clean for part in parts - dirty_parts):
        # a partition the dirty keys did not cover is missing from the
        # old finished result — tracking went inconsistent; stay exact.
        return topk.finish_ordered(query, new_raw)[0]

    out: dict[tuple, tuple[float, ...]] = {}
    for part in sorted(parts):
        if part in dirty_parts:
            ranked = topk.rank_partition_items(
                dirty_items.get(part, []), query, residual
            )
            for key, values in ranked:
                out[key] = values
        else:
            for key, values in clean[part]:
                out[key] = values
    if debug_checks_enabled():
        full = topk.finish_ordered(query, new_raw)[0]
        assert list(out.items()) == list(full.items()), (
            f"refresh_ordered({query.name}) diverged from the full finish"
        )
    return out


@dataclass(frozen=True)
class DeltaRules:
    """Static scheduling maps derived from one compiled batch."""

    #: join-tree node → indices of groups scanning that node's relation.
    groups_by_node: dict[str, tuple[int, ...]]
    #: group index → names of incoming views the group probes.
    group_consumes: dict[int, tuple[str, ...]]
    #: group index → names of views the group emits.
    group_produces_views: dict[int, tuple[str, ...]]
    #: group index → names of query outputs the group emits.
    group_produces_queries: dict[int, tuple[str, ...]]
    #: view name → index of the group that emits it.
    producer_of_view: dict[str, int]
    #: view name → the join-tree node the view is computed at.
    view_source: dict[str, str]
    #: view name → names of the child views its aggregates reference.
    view_children: dict[str, tuple[str, ...]]
    #: topological execution order of the group DAG (shared with execute()).
    execution_order: tuple[int, ...]

    @classmethod
    def from_compiled(cls, compiled) -> "DeltaRules":
        groups_by_node: dict[str, list[int]] = {}
        group_consumes: dict[int, tuple[str, ...]] = {}
        group_produces_views: dict[int, tuple[str, ...]] = {}
        group_produces_queries: dict[int, tuple[str, ...]] = {}
        producer_of_view: dict[str, int] = {}
        for index, plan in enumerate(compiled.plans):
            groups_by_node.setdefault(plan.node, []).append(index)
            group_consumes[index] = plan.consumed_views
            group_produces_views[index] = plan.produced_views
            group_produces_queries[index] = plan.produced_queries
            for view in plan.produced_views:
                producer_of_view[view] = index
        views = compiled.view_plan.views
        return cls(
            groups_by_node={n: tuple(g) for n, g in groups_by_node.items()},
            group_consumes=group_consumes,
            group_produces_views=group_produces_views,
            group_produces_queries=group_produces_queries,
            producer_of_view=producer_of_view,
            view_source={name: view.source for name, view in views.items()},
            view_children={
                name: view.referenced_views for name, view in views.items()
            },
            execution_order=tuple(compiled.execution_order),
        )

    # ------------------------------------------------------------ delta rules
    def affected_views(self, relation: str) -> tuple[str, ...]:
        """The per-view delta rule, solved for one relation.

        ``ΔR`` can change view ``V`` only when ``V`` is computed at ``R``'s
        node or (transitively) references such a view — i.e. the views on
        the path from ``R`` towards each root. Everything else has delta
        zero by construction.
        """
        affected = {
            name for name, source in self.view_source.items() if source == relation
        }
        changed = True
        while changed:
            changed = False
            for name, children in self.view_children.items():
                if name not in affected and any(c in affected for c in children):
                    affected.add(name)
                    changed = True
        return tuple(name for name in self.view_source if name in affected)

    def dirty_groups(self, relations: set[str] | frozenset[str]) -> tuple[int, ...]:
        """Static upper bound on the groups an update must re-visit.

        In execution order: groups at a changed node plus groups consuming
        an affected view. The runtime scheduler may skip more of these via
        delta cutoff (a refreshed view that compares equal stops
        propagating).
        """
        affected: set[str] = set()
        for relation in relations:
            affected.update(self.affected_views(relation))
        node_groups = {g for r in relations for g in self.groups_by_node.get(r, ())}
        dirty = []
        for index in self.execution_order:
            if index in node_groups or any(
                v in affected for v in self.group_consumes[index]
            ):
                dirty.append(index)
        return tuple(dirty)

    @property
    def num_groups(self) -> int:
        return len(self.execution_order)
