"""The maintained-batch handle: compile once, apply deltas many times.

:class:`MaintainedBatch` keeps a compiled batch's entire intermediate state
alive — every view's contents, every query's raw groups, and the trie
indexes of every join-tree node — and refreshes exactly the affected slice
of it per update round:

1. **base update** — each delta is applied to its relation (append /
   tombstone), and only that node's tries are invalidated (partitioned
   rebuild; see :meth:`repro.data.trie.TrieIndex.rebuilt`);
2. **dirty-path walk** — groups run in the compiled execution order, but a
   group runs at all only when its node's relation changed or one of its
   incoming views changed this round; everything off the path keeps its
   cached outputs;
3. **per-group maintenance** — a dirty group is refreshed by one of:

   * the **numeric** delta step at the changed node (insert-only change at
     its own node, inputs clean): execute the same compiled group code
     over a trie of just the inserted tuples and add the emitted deltas
     in — exact because every slot is a sum over the node's rows, hence
     linear in the row multiset, and key sets only grow under inserts;
   * **Δ propagation** downstream (own node clean, every dirty input
     carrying an insert-only Δ emitted this round): execute over the
     node's unchanged cached trie with each dirty view bound to its Δ and
     merge only the artifacts that read a dirty view — exact because each
     slot is linear in each single view it reads, under the structural
     conditions of :meth:`MaintainedBatch._propagation_applicable` (one
     producer and one probe key for all dirty inputs, no artifact reading
     two of them, no new probe key for an artifact that reads none);
   * a **rescan** otherwise — deletes, a node delta together with a dirty
     input, an input refreshed by a rescan, or a failed condition:
     re-execute over the node's full trie with refreshed inputs,
     bit-identical to a from-scratch run.

   An insert therefore costs O(|Δ|) marshalling and merging along its
   whole dirty path: clean incoming views keep their backend-prepared
   binding across rounds (:class:`~repro.core.runtime.BindingMemo`), and
   unordered results re-finish only the keys a merge touched;
4. **delta cutoff** — a refreshed view that compares equal to its previous
   contents stops dirtying its consumers.

No re-planning, no code generation, and no scans of untouched nodes happen
after construction. ``EngineConfig.incremental_mode`` selects the strategy:
``"auto"`` (numeric where exact, rescan otherwise), ``"rescan"`` (always
rescan; the maintained state stays bit-for-bit equal to recomputation), or
``"numeric"`` (strict: like auto, but a delta containing deletes raises
*before any state is touched* rather than silently falling back — for
tests and benchmarks that must not lose the O(|Δ|) path; the structural
propagation fallbacks above stay allowed).

**Snapshot isolation.** Every apply round builds a complete *successor
version* off to the side — a new :class:`~repro.core.snapshot.Snapshot`
(structurally sharing unchanged relations and tries) plus copy-on-write
view/query stores (untouched artifacts are carried by reference, numeric
merges copy only the dicts and value lists they update) — and publishes it
in two atomic reference swaps: the snapshot is installed into the owning
engine's :class:`~repro.core.snapshot.SnapshotStore` (so subsequent
:meth:`~repro.core.engine.LMFAO.run` calls see the new data, while
in-flight runs keep the version they pinned), then the handle's own state
pointer flips. Readers of :attr:`results` / :meth:`view_contents` therefore
always observe one complete version — never a half-applied delta — and an
apply that fails anywhere leaves both the handle and the engine exactly as
they were. One maintenance lineage per engine: a second concurrent writer
(another handle, or a direct
:meth:`~repro.core.snapshot.SnapshotStore.install`) surfaces as a
version-conflict :class:`~repro.util.errors.PlanError` instead of a lost
update. The full contract is in ``docs/serving.md``.

**Server-routed handles.** A handle built by
:meth:`repro.serve.AggregateServer.maintain` is *bound* to the server's
group-committed write queue: its ``apply`` does not install directly but
enqueues the delta and blocks for the :class:`ApplyResult` of the group
commit that covered it (several queued writes may land in one snapshot
transition — the handle is refreshed once, over the composed delta). The
refresh machinery is shared either way: the direct path and the server's
committer both advance handle state through :meth:`_advance_state` /
:meth:`_commit_state`, so routed results stay bit-exact vs applying each
delta sequentially.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping

from repro.core.engine import CompiledBatch, LMFAO, RunResult, _to_query_result
from repro.core.runtime import (
    ArrayViewData,
    BindingMemo,
    apply_predicates,
    debug_checks_enabled,
    execute_plan_partitioned,
    local_predicates,
    node_trie,
)
from repro.core.snapshot import Snapshot
from repro.data.catalog import Database
from repro.data.trie import TrieIndex
from repro.incremental.delta import RelationDelta, stage_deltas
from repro.incremental.rules import (
    DeltaRules,
    refresh_ordered,
    refresh_unordered,
)
from repro.query.query import QueryResult
from repro.util.errors import PlanError

_MODES = ("auto", "numeric", "rescan")


def check_numeric_deletes(mode: str, deltas: Mapping[str, RelationDelta]) -> None:
    """Enforce ``incremental_mode='numeric'``'s no-deletes contract, pre-commit.

    Shared by the direct handle path and the server's write path so a
    delete is refused with the same error *before* it is staged or
    enqueued, wherever it enters.
    """
    if mode != "numeric":
        return
    for name, delta in deltas.items():
        if not delta.insert_only:
            raise PlanError(
                f"incremental_mode='numeric' cannot maintain deletes "
                f"(delta for {name}); use 'auto' or 'rescan'"
            )


@dataclass
class ApplyResult:
    """Outcome of one apply round: refreshed results plus maintenance stats."""

    #: all query results of the *new* version (what the handle now serves).
    results: dict[str, QueryResult]
    #: queries whose groups actually changed this round.
    refreshed_queries: tuple[str, ...]
    #: views whose contents actually changed this round.
    refreshed_views: tuple[str, ...]
    relations_changed: tuple[str, ...]
    #: groups maintained numerically: over a trie of the inserted tuples
    #: at the changed node, or downstream by Δ propagation (Δ-bound dirty
    #: inputs, merging only the artifacts that read them).
    groups_numeric: int
    #: groups re-executed over their full (cached) trie with full inputs
    #: (deletes, and the propagation fallbacks).
    groups_rescanned: int
    #: groups skipped entirely — off the dirty path or cut off.
    groups_skipped: int
    seconds: float
    #: the snapshot version this round installed (unchanged on empty deltas).
    version: int = 0

    def __getitem__(self, query_name: str) -> QueryResult:
        return self.results[query_name]


@dataclass(frozen=True)
class _MaintainedVersion:
    """One immutable version of a handle's full maintained state.

    The snapshot carries the relations and trie memo; the stores carry
    every view's contents and every query's raw groups over exactly that
    snapshot. Versions share untouched artifacts structurally — an apply
    copies only what it refreshes.
    """

    snapshot: Snapshot
    view_data: dict[str, dict] = field(repr=False)
    query_raw: dict[str, dict] = field(repr=False)
    results: dict[str, QueryResult] = field(repr=False)


class MaintainedBatch:
    """A compiled batch plus its maintained state. Built by :meth:`LMFAO.maintain`."""

    def __init__(self, engine: LMFAO, compiled: CompiledBatch) -> None:
        if engine.config.incremental_mode not in _MODES:
            raise PlanError(
                f"EngineConfig.incremental_mode must be one of "
                f"{', '.join(repr(m) for m in _MODES)}, "
                f"got {engine.config.incremental_mode!r}"
            )
        self.compiled = compiled
        self.config = engine.config
        self.rules = DeltaRules.from_compiled(compiled)
        self.applies = 0
        self._engine = engine
        self._router = None  # set by AggregateServer.maintain (write queue)
        self._view_group_by = {
            name: view.group_by for name, view in compiled.view_plan.views.items()
        }
        # ordered queries get targeted partition re-ranks on apply; their
        # raw changed-key sets are tracked per round for exactly this.
        self._ordered_queries = frozenset(
            query.name for query in compiled.batch if query.order_by is not None
        )
        # group index → artifact → the incoming views its slots read (the
        # propagation step merges exactly the artifacts reading a dirty one)
        self._emission_views = {
            index: {e.artifact: plan.emission_views(e) for e in plan.emissions}
            for index, plan in enumerate(compiled.plans)
        }
        # group index → its BindingMemo forms (prepared clean bindings)
        self._binding_forms: dict[int, dict] = {}
        # Pin the engine's current snapshot. Its trie memo is *shared* (the
        # memo only gains immutable entries, so warming it here warms the
        # engine's runs too); successor versions built by apply() share
        # every unchanged node's tries structurally.
        snapshot = engine.snapshot()
        view_data: dict[str, dict] = {}
        query_raw: dict[str, dict] = {}
        for index in compiled.execution_order:
            self._adopt_outputs(
                index, self._run_full(index, snapshot, view_data),
                view_data, query_raw,
            )
        results = {
            query.name: _to_query_result(query, query_raw[query.name])[0]
            for query in compiled.batch
        }
        self._state = _MaintainedVersion(snapshot, view_data, query_raw, results)
        self._debug_check_stores()

    # ---------------------------------------------------------------- accessors
    @property
    def results(self) -> dict[str, QueryResult]:
        """Current (maintained) results, keyed by query name.

        Reading this property pins one complete version: the returned dict
        belongs to the latest installed :class:`_MaintainedVersion` and is
        never mutated by later applies (they install fresh dicts).
        """
        return self._state.results

    def result(self, query_name: str) -> QueryResult:
        return self._state.results[query_name]

    def __getitem__(self, query_name: str) -> QueryResult:
        return self._state.results[query_name]

    @property
    def database(self) -> Database:
        """The current database version (original plus all applied deltas)."""
        return self._state.snapshot.db

    @property
    def db(self) -> Database:
        """Alias of :attr:`database` (parity with ``LMFAO.db``)."""
        return self._state.snapshot.db

    @property
    def version(self) -> int:
        """The snapshot version the handle currently serves."""
        return self._state.snapshot.version

    def view_contents(self, view_name: str) -> dict:
        """Maintained contents of one internal view (inspection/testing)."""
        return self._state.view_data[view_name]

    def view_store(self) -> dict[str, dict]:
        """The handle's maintained view store, ``name → ViewData``.

        **Read-only contract**: the returned mapping and its contents are
        the handle's live state for its current version — callers must
        never mutate either. The serving layer republishes refreshed
        views from here into the cross-request view cache after each
        group commit (see ``AggregateServer._commit_group``), which is
        safe precisely because every maintainer merge is copy-on-write.
        """
        return self._state.view_data

    def recompute(self) -> "RunResult":
        """From-scratch run over the current database — the oracle baseline.

        Builds a fresh engine (cold tries, recompilation) so the comparison
        in benchmarks and differential tests is honest.
        """
        fresh = LMFAO(self._state.snapshot.db, self.config)
        return fresh.run(self.compiled.batch)

    # -------------------------------------------------------------------- apply
    def apply(self, inserts=None, deletes=None) -> ApplyResult:
        """Update base relations and propagate deltas through affected views.

        ``inserts`` / ``deletes`` map relation names to tuples to add /
        remove — each value a :class:`Relation`, a row sequence, a column
        mapping, or (deletes only) a boolean mask over the current
        instance. A server-bound handle routes the delta through its
        server's group-committed write queue and blocks for the result
        (see the module docstring); a direct handle builds the successor
        version off to the side and installs it atomically (into the
        owning engine first, then the handle). Either way the returned
        :class:`ApplyResult` carries the new version's results plus
        per-round stats.
        """
        if self._router is not None:
            return self._router._route_handle_apply(self, inserts, deletes)
        start = time.perf_counter()
        state = self._state
        # stage_deltas normalises and stages every relation update before
        # this method commits anything: a delta that fails to apply (e.g.
        # deleting an absent tuple) must leave the handle's state —
        # database, tries, views — completely untouched. The numeric-mode
        # check runs on the normalised deltas, likewise pre-commit.
        deltas, staged = stage_deltas(state.snapshot.db, inserts, deletes)
        check_numeric_deletes(self.config.incremental_mode, deltas)
        if not deltas:
            return self._empty_apply_result(start=start)

        snapshot = state.snapshot.with_relations(staged)
        new_state, result = self._advance_state(deltas, snapshot, start=start)

        # ---- publish: engine first (version conflicts abort the whole
        # apply with the handle untouched), then the handle's own pointer
        self._engine._snapshots.install(snapshot)
        self._commit_state(new_state)
        return result

    def _bind_router(self, router) -> None:
        """Route future ``apply`` calls through a server's write queue."""
        self._router = router

    def _empty_apply_result(self, start: float | None = None) -> ApplyResult:
        """The no-op round: nothing staged, nothing enqueued, version kept."""
        state = self._state
        self.applies += 1
        return ApplyResult(
            results=state.results,
            refreshed_queries=(),
            refreshed_views=(),
            relations_changed=(),
            groups_numeric=0,
            groups_rescanned=0,
            groups_skipped=0,
            seconds=0.0 if start is None else time.perf_counter() - start,
            version=state.snapshot.version,
        )

    def _advance_state(
        self,
        deltas: Mapping[str, RelationDelta],
        snapshot: Snapshot,
        start: float | None = None,
    ) -> tuple[_MaintainedVersion, ApplyResult]:
        """Compute the successor maintained state, entirely off to the side.

        ``snapshot`` is the (not yet installed) direct successor carrying
        ``deltas``'s staged relations. Nothing is published: the caller
        installs the snapshot and then flips the handle via
        :meth:`_commit_state`, so a failure anywhere in here leaves both
        the handle and the engine exactly as they were — the committer's
        crash-containment contract. The dirty-path walk, numeric/rescan
        choice and copy-on-write merge discipline are identical for
        single deltas and for group-composed ones.
        """
        start = time.perf_counter() if start is None else start
        state = self._state
        if snapshot.version != state.snapshot.version + 1:
            raise PlanError(
                f"maintained handle at version {state.snapshot.version} "
                f"cannot advance to non-successor version {snapshot.version}"
            )
        changed: dict[str, RelationDelta] = dict(deltas)

        # ---- build the successor version off to the side (copy-on-write)
        view_data = dict(state.view_data)
        query_raw = dict(state.query_raw)

        numeric = rescanned = skipped = 0
        changed_views: set[str] = set()
        refreshed_views: set[str] = set()
        dirty_queries: set[str] = set()
        # per query, the raw keys this round's merges touched, in merge
        # order (a dict used as an ordered set); None = unknown (a rescan)
        dirty_keys: dict[str, dict | None] = {}
        # per view, the insert-only Δ a numeric or propagated group
        # emitted this round — what its dirty consumers bind next
        view_deltas: dict[str, dict] = {}
        for index in self.compiled.execution_order:
            plan = self.compiled.plans[index]
            node_delta = changed.get(plan.node)
            dirty = tuple(v for v in plan.consumed_views if v in changed_views)
            if node_delta is None and not dirty:
                skipped += 1
                continue
            adopt = None
            if self._numeric_applicable(node_delta, dirty):
                outputs = self._run_delta(index, node_delta, view_data)
                merge = self._merge_delta_outputs
                numeric += 1
            elif node_delta is None and self._propagation_applicable(
                index, dirty, view_deltas, state.view_data
            ):
                bound = dict(view_data)
                bound.update((view, view_deltas[view]) for view in dirty)
                outputs = self._run_full(index, snapshot, bound, transient=dirty)
                merge = self._merge_delta_outputs
                adopt = {
                    name
                    for name, reads in self._emission_views[index].items()
                    if not reads.isdisjoint(dirty)
                }
                numeric += 1
            else:
                outputs = self._run_full(index, snapshot, view_data)
                merge = None
                rescanned += 1
            self._adopt_outputs(
                index,
                outputs,
                view_data,
                query_raw,
                merge=merge,
                adopt=adopt,
                changed_views=changed_views,
                refreshed_views=refreshed_views,
                dirty_queries=dirty_queries,
                dirty_keys=dirty_keys,
                view_deltas=view_deltas,
            )
            if adopt is not None and debug_checks_enabled():
                self._debug_check_propagated(index, snapshot, view_data, query_raw)
        results = dict(state.results)
        for query in self.compiled.batch:
            if query.name not in dirty_queries:
                continue
            old = state.results.get(query.name)
            raw = query_raw[query.name]
            keys = dirty_keys.get(query.name)
            if query.order_by is not None:
                groups = refresh_ordered(query, old, raw, keys)
            elif old is None or keys is None:
                groups = _to_query_result(query, raw)[0].groups
            else:
                groups = refresh_unordered(query, old.groups, raw, keys)
            results[query.name] = QueryResult(query=query, groups=groups)
        new_state = _MaintainedVersion(snapshot, view_data, query_raw, results)
        result = ApplyResult(
            results=results,
            refreshed_queries=tuple(sorted(dirty_queries)),
            refreshed_views=tuple(sorted(refreshed_views)),
            relations_changed=tuple(sorted(changed)),
            groups_numeric=numeric,
            groups_rescanned=rescanned,
            groups_skipped=skipped,
            seconds=time.perf_counter() - start,
            version=snapshot.version,
        )
        return new_state, result

    def _commit_state(self, new_state: _MaintainedVersion) -> None:
        """Flip the handle to an already-installed successor state."""
        self._state = new_state
        self.applies += 1
        self._debug_check_stores()

    # ----------------------------------------------------------- group execution
    def _numeric_applicable(
        self, node_delta: RelationDelta | None, dirty: tuple[str, ...]
    ) -> bool:
        if self.config.incremental_mode == "rescan":
            return False
        return node_delta is not None and node_delta.insert_only and not dirty

    def _propagation_applicable(
        self,
        index: int,
        dirty: tuple[str, ...],
        view_deltas: Mapping[str, dict],
        previous: Mapping[str, dict],
    ) -> bool:
        """Whether a group with clean node and dirty inputs can run on Δs.

        The group runs over its unchanged trie with each dirty view bound
        to its Δ; an emission reading exactly one dirty view receives
        exactly its own delta, because its slots are linear in that view
        and, under inserts, its key set only grows by the keys the Δ
        supports. Three structural conditions keep that exact:

        * every dirty input carries an insert-only Δ from this round (a
          view refreshed by a rescan — deletes — has none);
        * all dirty inputs come from one producer group and are probed on
          the same key: every binding gates the whole loop nest, and views
          from one scan share their key set on that probe key both before
          and in the Δ, so binding all of them to Δs gates each emission
          exactly like its own dirty view does;
        * no emission reads two dirty views (the product of two changed
          factors is not linear), and an emission reading none stays valid
          only when the Δ adds no new probe key (its gate is unchanged).
        """
        if self.config.incremental_mode == "rescan":
            return False
        if any(view not in view_deltas for view in dirty):
            return False
        plan = self.compiled.plans[index]
        producers = {self.rules.producer_of_view.get(view) for view in dirty}
        keys = {plan.binding(view).key for view in dirty}
        if len(producers) != 1 or len(keys) != 1:
            return False
        reads = [
            len(views.intersection(dirty))
            for views in self._emission_views[index].values()
        ]
        if any(count > 1 for count in reads):
            return False
        if 0 in reads:
            old = previous[dirty[0]]
            if any(key not in old for key in view_deltas[dirty[0]]):
                return False
        return True

    def _run_full(
        self,
        index: int,
        snapshot: Snapshot,
        view_data: Mapping[str, dict],
        transient: tuple[str, ...] = (),
    ) -> dict[str, dict]:
        """Execute one group over the full (cached) trie of its node.

        ``transient`` names views of ``view_data`` bound to this round's
        Δs (the propagation step), which the binding memo must not keep.
        """
        plan = self.compiled.plans[index]
        trie = node_trie(
            snapshot.db, plan.node, plan.order,
            self.compiled.shared_predicates, snapshot.tries,
        )
        return self._execute(index, trie, view_data, transient=transient)

    def _run_delta(
        self, index: int, delta: RelationDelta, view_data: dict
    ) -> dict[str, dict]:
        """The numeric step: the same compiled code over the inserted tuples.

        Every emitted slot is ``Σ over node rows`` of a product that does
        not otherwise depend on the node's row multiset, so the outputs
        over ``ΔR`` *are* the per-view deltas. Key sets are exact too: under
        inserts a key exists in the updated view iff it existed before or
        some inserted tuple supports it — exactly the keys the delta run
        emits.
        """
        plan = self.compiled.plans[index]
        relation = self._filter_shared(delta.inserts)
        trie = TrieIndex(relation, plan.order)
        return self._execute(index, trie, view_data)

    def _execute(
        self,
        index: int,
        trie: TrieIndex,
        view_data: Mapping[str, dict],
        transient: tuple[str, ...] = (),
    ) -> dict[str, dict]:
        """Run one group over ``trie`` through the engine's preparation step.

        :meth:`LMFAO._prepare_group` picks the backend from ``trie``'s row
        count and splits it exactly like the batch executor (same cut
        points, same partition order, same merge association), so a
        rescan stays bit-identical to a from-scratch run with the same
        :class:`EngineConfig`. ``view_data`` is the successor version's
        store being built: a downstream group reads its upstream views
        refreshed-this-round. Bindings go through a :class:`BindingMemo`
        over the group's kept forms, so a view left untouched since the
        group's last run is not marshalled again.
        """
        compiled = self.compiled
        native, _backend, tries = self._engine._prepare_group(compiled, index, trie)
        return execute_plan_partitioned(
            compiled.code[index],
            native,
            compiled.plans[index],
            tries,
            view_data,
            self._view_group_by,
            compiled.functions,
            BindingMemo(self._binding_forms.setdefault(index, {}), transient),
        )

    def _adopt_outputs(
        self,
        index: int,
        outputs: dict[str, dict],
        view_data: dict[str, dict],
        query_raw: dict[str, dict],
        merge=None,
        adopt: set[str] | None = None,
        changed_views: set[str] | None = None,
        refreshed_views: set[str] | None = None,
        dirty_queries: set[str] | None = None,
        dirty_keys: dict[str, dict | None] | None = None,
        view_deltas: dict[str, dict] | None = None,
    ) -> None:
        """Adopt (rescan) or add (numeric) one group's outputs; track diffs.

        Writes only into the successor version's stores (``view_data`` /
        ``query_raw``); the previous version's dicts and value lists are
        never touched — numeric merges go through the copy-on-write
        :meth:`_merge_delta_outputs`. ``adopt`` restricts a merge to the
        named emissions (a propagated group's other outputs are unchanged
        and stay carried by reference); a merged view's Δ is recorded in
        ``view_deltas`` for its consumers.

        Per query, the raw keys a merge touched are collected into
        ``dirty_keys`` in merge order, so the result refresh re-finishes
        only those (:func:`repro.incremental.rules.refresh_unordered`,
        :func:`~repro.incremental.rules.refresh_ordered`). A rescan diffs
        old vs new raw for ordered queries (their re-rank is per
        partition, so order does not matter) and marks unordered ones
        unknown (``None``: full finish).
        """
        cutoff = self.config.incremental_cutoff
        for emission in self.compiled.plans[index].emissions:
            name = emission.artifact
            if adopt is not None and name not in adopt:
                continue
            is_view = emission.kind == "view"
            store = view_data if is_view else query_raw
            track: dict | None = None
            if dirty_keys is not None and not is_view:
                track = dirty_keys.setdefault(name, {})
            if merge is not None:
                merged, artifact_changed = merge(
                    store[name], outputs[name], track
                )
                store[name] = merged
                if is_view and view_deltas is not None:
                    view_deltas[name] = outputs[name]
            else:
                old = store.get(name)
                new = outputs[name]
                store[name] = new
                artifact_changed = old is None or old != new
                if track is not None and artifact_changed:
                    if old is None or name not in self._ordered_queries:
                        dirty_keys[name] = None  # unknown: full finish
                    else:
                        for key in old.keys() | new.keys():
                            if old.get(key) != new.get(key):
                                track[key] = None
            if changed_views is None:
                continue
            if is_view:
                if artifact_changed:
                    refreshed_views.add(name)
                if artifact_changed or not cutoff:
                    changed_views.add(name)
            elif artifact_changed:
                dirty_queries.add(name)

    @staticmethod
    def _merge_delta_outputs(
        target: dict, delta: dict, changed_keys: dict | None = None
    ) -> tuple[dict, bool]:
        """A merged copy ``target + delta`` per key and slot (copy-on-write).

        Returns ``(merged, changed)``; when ``changed_keys`` is given,
        every key the merge added or updated is also recorded into it, in
        merge order (the result refresh re-finishes only those keys, and
        the ordered-query refresh re-ranks only the dirtied partitions).
        ``target`` — the *previous*
        version's artifact — is never mutated, and neither are its stored
        value lists: the merge shallow-copies the key table and copies a
        value list the first time a slot of it changes, so readers holding
        the previous version keep a coherent artifact (including any
        columnar :class:`ArrayViewData` state, which stays valid precisely
        because nothing writes through it). The merged result is a plain
        dict — whatever columnar mirror the old version carried does not
        describe the new contents.

        A new key is a change even with all-zero values: the inserted rows
        give it join support, so a from-scratch run would emit it too.
        """
        merged: dict = dict(target)
        changed = False
        for key, values in delta.items():
            current = merged.get(key)
            if current is None:
                merged[key] = list(values)
                changed = True
                if changed_keys is not None:
                    changed_keys[key] = None
                continue
            updated = None
            for slot, value in enumerate(values):
                if value != 0.0:
                    if updated is None:
                        updated = list(current)
                    updated[slot] += value
                    changed = True
            if updated is not None:
                merged[key] = updated
                if changed_keys is not None:
                    changed_keys[key] = None
        if debug_checks_enabled():
            # the merge must leave both sources unscathed
            for source in (target, delta):
                if isinstance(source, ArrayViewData):
                    source.check_consistent()
        return merged, changed

    def _debug_check_propagated(
        self, index: int, snapshot: Snapshot, view_data: dict, query_raw: dict
    ) -> None:
        """Under ``LMFAO_DEBUG``: a Δ-propagated group equals its rescan.

        Re-runs the group over its full trie against the successor's
        (already refreshed) inputs and compares every artifact it emits —
        merged and carried alike — key set and values: exactly where both
        values are integers below 2**53 (integer data sums without
        rounding, so any difference there is a real error), within 1e-9
        relative otherwise (float data sums in another order).
        """
        rescan = self._run_full(index, snapshot, view_data)
        for emission in self.compiled.plans[index].emissions:
            name = emission.artifact
            store = view_data if emission.kind == "view" else query_raw
            got, want = store[name], rescan[name]
            assert got.keys() == want.keys(), (
                f"propagated {name} key set diverged from its rescan"
            )
            for key, values in want.items():
                for a, b in zip(got[key], values):
                    if a == b:
                        continue
                    integral = (
                        float(a).is_integer()
                        and float(b).is_integer()
                        and abs(b) < 2.0**53
                    )
                    assert not integral and abs(a - b) <= 1e-9 * max(
                        abs(a), abs(b), 1.0
                    ), f"propagated {name}[{key!r}] = {a!r}, rescan {b!r}"

    def _debug_check_stores(self) -> None:
        """Under ``LMFAO_DEBUG``: no maintained dict may carry stale arrays.

        Walks every stored view and raw query output after a round and
        asserts columnar state (if any) still mirrors the dict contents —
        the incremental path's end-to-end guard against a mutation that
        slipped past the copy-on-write discipline of
        :meth:`_merge_delta_outputs`.
        """
        if not debug_checks_enabled():
            return
        state = self._state
        for store in (state.view_data, state.query_raw):
            for data in store.values():
                if isinstance(data, ArrayViewData):
                    data.check_consistent()

    # ------------------------------------------------------------------- helpers
    def _filter_shared(self, relation):
        """Apply node-local pushed-down predicates to a delta relation."""
        return apply_predicates(
            relation,
            local_predicates(
                relation.attribute_names, self.compiled.shared_predicates
            ),
        )

    def __repr__(self) -> str:
        return (
            f"MaintainedBatch(queries={len(self.compiled.batch)}, "
            f"views={self.compiled.num_views}, groups={self.compiled.num_groups}, "
            f"applies={self.applies}, version={self.version})"
        )
