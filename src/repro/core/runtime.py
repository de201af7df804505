"""Runtime preparation shared by the code generator and the interpreter.

Given a :class:`MultiOutputPlan`, a :class:`TrieIndex` over the group's
node relation and the already-computed incoming view contents, this module
builds the *environment* the plan executes against:

* trie level arrays as Python lists;
* per-level factor value arrays (``f`` applied to distinct level values);
* prefix-sum registers for row-factor products;
* incoming view bindings reshaped to the consumer's key layout
  (scalar views: ``key → [aggs]``; carried views:
  ``key → [(carried_values, [aggs]), ...]``).

View contents are dictionaries ``group_by_key → list_of_aggregate_values``
where the key is a scalar for single-attribute group-bys and a tuple (in the
view's canonical group-by order) otherwise.

This module also hosts the **domain-parallel** execution mode: a group may
run once per level-0 trie partition (:func:`partition_tries`) with its
partial outputs merged by :func:`merge_partial_outputs` — per-key summation
for accumulating emissions, disjoint concatenation for aligned ones.
"""

from __future__ import annotations

import os
from operator import itemgetter
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core import costmodel
from repro.core.plan import MultiOutputPlan, ViewBinding
from repro.data.relation import Relation
from repro.data.trie import TrieIndex
from repro.query.functions import Function
from repro.util.errors import PlanError

ViewData = dict


def debug_checks_enabled() -> bool:
    """Whether ``LMFAO_DEBUG`` asks for (expensive) invariant assertions.

    Consumers of columnar view state call
    :meth:`ArrayViewData.check_consistent` under this flag before trusting
    the arrays, so a dict/array desync fails loudly at the point of use
    instead of silently corrupting downstream aggregates.
    """
    return bool(os.environ.get("LMFAO_DEBUG"))


class ArrayViewData(dict):
    """View contents ``key → [aggregates]`` plus optional columnar arrays.

    The NumPy backend emits these: the dict contents are what every
    consumer sees (compatible with the Python backend's plain dicts), and
    the parallel ``key_columns`` / ``value_matrix`` arrays let columnar
    consumers — the NumPy backend's binding preparation and the aligned
    partition merge — skip per-entry dict iteration. ``key_columns`` are in
    the producer's canonical group-by order.

    Every mutating dict operation (``__setitem__``, ``update``, ``pop``,
    …) **auto-drops** the columnar arrays, so merge paths that grow or
    rewrite entries can never serve stale arrays to a columnar consumer.
    The one mutation the class cannot see is writing *through* a stored
    aggregate list (``data[key][slot] += x``); paths that do that — the
    incremental maintainer's numeric merge — must call
    :meth:`drop_columnar` themselves, and :meth:`check_consistent` (run
    by consumers under ``LMFAO_DEBUG``) catches any path that forgot.
    """

    __slots__ = ("key_columns", "value_matrix")

    def __init__(self, *args, **kwargs) -> None:
        # dict.__init__ bulk-inserts without dispatching to __setitem__,
        # so construction does not count as a (drop-triggering) mutation.
        super().__init__(*args, **kwargs)
        self.key_columns: list[np.ndarray] | None = None
        self.value_matrix: np.ndarray | None = None

    @property
    def has_columns(self) -> bool:
        return self.value_matrix is not None

    def drop_columnar(self) -> None:
        """Forget the columnar arrays (keep the dict contents)."""
        self.key_columns = None
        self.value_matrix = None

    # -- mutating dict operations invalidate the columnar mirror ------------
    def __setitem__(self, key, value) -> None:
        self.drop_columnar()
        super().__setitem__(key, value)

    def __delitem__(self, key) -> None:
        self.drop_columnar()
        super().__delitem__(key)

    def update(self, *args, **kwargs) -> None:
        self.drop_columnar()
        super().update(*args, **kwargs)

    def __ior__(self, other):
        # dict.__ior__ bulk-inserts at the C level without dispatching to
        # update/__setitem__, so it needs its own interception.
        self.drop_columnar()
        return super().__ior__(other)

    def setdefault(self, key, default=None):
        if key not in self:
            self.drop_columnar()
        return super().setdefault(key, default)

    def pop(self, *args):
        self.drop_columnar()
        return super().pop(*args)

    def popitem(self):
        self.drop_columnar()
        return super().popitem()

    def clear(self) -> None:
        self.drop_columnar()
        super().clear()

    def check_consistent(self) -> None:
        """Assert the columnar arrays mirror the dict contents exactly.

        No-op without columns. O(n) — called by columnar consumers under
        ``LMFAO_DEBUG`` (see :func:`debug_checks_enabled`) and by tests.
        """
        if not self.has_columns:
            return
        if len(self.key_columns) == 1:
            keys = self.key_columns[0].tolist()
        else:
            keys = list(zip(*(column.tolist() for column in self.key_columns)))
        mirror = dict(zip(keys, np.asarray(self.value_matrix).tolist()))
        assert mirror == dict(self), (
            "ArrayViewData columnar state desynchronised from dict contents "
            "(a mutation bypassed drop_columnar)"
        )

    @classmethod
    def from_arrays(
        cls, key_columns: list[np.ndarray], value_matrix: np.ndarray
    ) -> "ArrayViewData":
        """Materialise dict contents from parallel key/value arrays."""
        if len(key_columns) == 1:
            keys = key_columns[0].tolist()
        else:
            keys = list(zip(*(column.tolist() for column in key_columns)))
        data = cls(zip(keys, value_matrix.tolist()))
        data.key_columns = list(key_columns)
        data.value_matrix = value_matrix
        return data


def _product_signature(
    product: tuple[tuple[str, str], ...], functions: Mapping[str, Function]
) -> str:
    """Trie-cache signature of a row-factor product, by *bound* function.

    Plans reference functions by slot name; the functions mapping resolves
    each slot to the runtime :class:`Function` actually executing. The
    cache signature must use the **resolved** function's name: under a
    plan-cache hit with re-bound predicate constants (see
    :class:`repro.core.engine.PlanBinding`), the slot name carries the
    *compiled* batch's constant while the bound function carries the
    request's — and trie-attached caches are shared across requests, so
    keying on the slot name would serve one request's indicator arrays to
    another. Function names are unique per behaviour (the registry
    contract), which makes the resolved name a sound cache key.
    """
    return "*".join(f"{functions[func].name}({attr})" for attr, func in product)


def _product_column(
    product: tuple[tuple[str, str], ...], functions: Mapping[str, Function]
) -> Callable[[Relation], np.ndarray]:
    def compute(relation: Relation) -> np.ndarray:
        result: np.ndarray | None = None
        for attr, func_name in product:
            col = functions[func_name](relation.column(attr))
            result = col if result is None else result * col
        assert result is not None
        return result

    return compute


def reshape_binding(binding: ViewBinding, view_group_by: tuple[str, ...], data: ViewData) -> dict:
    """Re-key view contents for one consumer binding.

    ``data`` is keyed by the producer's canonical group-by. Scalar bindings
    whose key order equals the producer's group-by are returned as-is;
    carried bindings are grouped into entry lists per local key.
    """
    if not binding.is_carried:
        if binding.key == view_group_by:
            return data
        # Same attribute set, different order (cannot happen while both are
        # name-sorted, but stay correct if conventions diverge).
        positions = [view_group_by.index(a) for a in binding.key]
        reshaped: dict = {}
        for key, aggs in data.items():
            full = key if isinstance(key, tuple) else (key,)
            new_key = tuple(full[p] for p in positions)
            reshaped[new_key[0] if len(new_key) == 1 else new_key] = aggs
        return reshaped

    # A carried view's group-by holds its key and its carried attributes,
    # so its keys are always tuples. itemgetter yields the local key in the
    # binding convention (a scalar for one attribute, else a tuple); the
    # carried values are always a tuple.
    local_of = itemgetter(*(view_group_by.index(a) for a in binding.key))
    carried_positions = [view_group_by.index(a) for a in binding.carried]
    if len(carried_positions) == 1:
        carried_of = itemgetter(slice(carried_positions[0], carried_positions[0] + 1))
    else:
        carried_of = itemgetter(*carried_positions)
    grouped: dict = {}
    for key, aggs in data.items():
        entry = (carried_of(key), aggs)
        entries = grouped.get(local_of(key))
        if entries is None:
            grouped[local_of(key)] = [entry]
        else:
            entries.append(entry)
    return grouped


class BindingMemo:
    """Backend-prepared incoming-view bindings of one group, across runs.

    A maintained handle re-runs the same groups round after round while
    most of their incoming views stay untouched. Marshalling such a view
    (the Python backend's reshaped dict, the C backend's entry arrays, the
    NumPy backend's probe table) is pure work on the view's contents, so
    ``forms`` — a dict the handle keeps per group and hands to every run
    of that group — maps ``(backend, view)`` to the prepared form together
    with the view object it was prepared from. A form is handed out again
    only while the run binds **that very object** (an identity check —
    never ``id()``: the entry holds its source alive, so a match cannot be
    a recycled address). Every maintainer artifact is copy-on-write, so an
    unchanged object means unchanged contents.

    Views listed as ``transient`` (bound to a freshly computed Δ in this
    run) are prepared every time and never stored. Only forms of the
    object a view is bound to now are kept: a transient view drops its
    entries (its contents are being replaced), and a fresh preparation
    drops the view's entries for other backends made from an older
    object — so a superseded view is released by its consumer's next run.
    """

    __slots__ = ("_forms", "_transient")

    def __init__(self, forms: dict, transient=frozenset()) -> None:
        self._forms = forms
        self._transient = frozenset(transient)

    def prepared(self, backend: str, view: str, data, prepare: Callable[[], object]):
        """The prepared form of ``data`` for ``backend``: memoized or fresh."""
        if view not in self._transient:
            hit = self._forms.get((backend, view))
            if hit is not None and hit[0] is data:
                return hit[1]
        for key, (source, _) in list(self._forms.items()):
            if key[1] == view and source is not data:
                self._forms.pop(key, None)
        form = prepare()
        if view not in self._transient:
            self._forms[(backend, view)] = (data, form)
        return form


def prepared_binding(
    memo: BindingMemo | None,
    backend: str,
    view: str,
    data,
    prepare: Callable[[], object],
):
    """``prepare()`` for one binding — through ``memo`` when one is given."""
    if memo is None:
        return prepare()
    return memo.prepared(backend, view, data, prepare)


def prepare_python_bindings(
    plan: MultiOutputPlan,
    view_data: Mapping[str, ViewData],
    view_group_by: Mapping[str, tuple[str, ...]],
    memo: BindingMemo | None = None,
) -> dict[str, dict]:
    """Reshape all incoming-view bindings of one plan (consumer keying).

    Binding contents depend only on the incoming view data, never on the
    trie, so partitioned execution prepares them **once** per group and
    shares the (read-only) result across all partitions instead of
    re-reshaping per partition. ``memo`` reuses forms prepared by earlier
    runs of the same group (see :class:`BindingMemo`).
    """
    bindings: dict[str, dict] = {}
    for binding in plan.bindings:
        data = view_data.get(binding.view)
        if data is None:
            raise PlanError(f"missing incoming view data for {binding.view}")
        group_by = view_group_by[binding.view]
        bindings[binding.view] = prepared_binding(
            memo, "python", binding.view, data,
            lambda b=binding, g=group_by, d=data: reshape_binding(b, g, d),
        )
    return bindings


class GroupEnvironment:
    """The fully prepared inputs for executing one group plan."""

    def __init__(
        self,
        plan: MultiOutputPlan,
        trie: TrieIndex,
        view_data: Mapping[str, ViewData],
        view_group_by: Mapping[str, tuple[str, ...]],
        functions: Mapping[str, Function],
        bindings: dict[str, dict] | None = None,
    ) -> None:
        if trie.order != plan.order:
            raise PlanError(
                f"trie order {trie.order} does not match plan order {plan.order}"
            )
        self.plan = plan
        self.nrows = trie.num_rows
        self.levels = [trie.level_lists(k) for k in range(len(plan.relation_levels))]
        self.farrs: dict[tuple[int, str, str], list] = {}
        for level, attr, func_name in plan.level_functions:
            func = functions.get(func_name)
            if func is None:
                raise PlanError(f"no runtime function registered for {func_name!r}")
            # cache signature by the *bound* function's name, not the plan
            # slot name — see _product_signature for why (constant rebinding)
            self.farrs[(level, attr, func_name)] = trie.level_function_values(
                level, f"{func.name}({attr})", func
            )
        self.psums: dict[tuple, list] = {}
        for product in plan.row_products:
            self.psums[product] = trie.prefix_sum_list(
                _product_signature(product, functions),
                _product_column(product, functions),
            )
        if bindings is None:
            bindings = prepare_python_bindings(plan, view_data, view_group_by)
        self.bindings: dict[str, dict] = bindings


def local_predicates(relation_attrs, predicates) -> tuple:
    """The pushed-down predicates applicable to one relation."""
    return tuple(p for p in predicates if p.attribute in relation_attrs)


def apply_predicates(relation: Relation, predicates) -> Relation:
    """Physically filter a relation by a predicate conjunction."""
    if not predicates:
        return relation
    mask = np.ones(relation.num_rows, dtype=bool)
    for pred in predicates:
        mask &= pred.evaluate(relation.column(pred.attribute))
    return relation.filter(mask)


def node_trie(db, node: str, order: tuple[str, ...], shared, cache: dict) -> TrieIndex:
    """The cached trie index for one node under pushed-down predicates.

    The cache key is ``(node, order, local predicate signatures)``, shared
    by the engine's per-snapshot memo and the incremental maintainer
    (whose successor snapshots carry unchanged nodes' entries forward).
    """
    local = local_predicates(db.schema.relation(node).attribute_names, shared)
    key = (node, order, tuple(p.signature for p in local))
    trie = cache.get(key)
    if trie is None:
        trie = TrieIndex(apply_predicates(db.relation(node), local), order)
        cache[key] = trie
    return trie


def execute_plan(
    code,
    native,
    plan: MultiOutputPlan,
    trie: TrieIndex,
    view_data: Mapping[str, ViewData],
    view_group_by: Mapping[str, tuple[str, ...]],
    functions: Mapping[str, Function],
    prepared_bindings: dict | None = None,
) -> dict[str, dict]:
    """Run one compiled group over a trie and incoming view contents.

    ``native`` is the group's C implementation (or None for the Python
    backend); ``code`` the generated-Python :class:`CompiledGroup`. Both the
    batch executor and the incremental maintainer call this — the
    maintainer additionally passes *delta* tries (an index over just the
    inserted tuples) to obtain per-view deltas from the very same compiled
    code, since every emitted slot is a sum over the node's rows and
    therefore linear in the row multiset.

    ``prepared_bindings`` (from :func:`prepare_bindings`) lets partitioned
    execution marshal the incoming views once and share them, read-only,
    across concurrent per-partition calls.
    """
    if native is not None:
        return native.execute(
            trie, view_data, view_group_by, functions, bind_entries=prepared_bindings
        )
    env = GroupEnvironment(
        plan=plan,
        trie=trie,
        view_data=view_data,
        view_group_by=view_group_by,
        functions=functions,
        bindings=prepared_bindings,
    )
    return code(env)


# ------------------------------------------------------------ domain parallelism


def prepare_bindings(
    native,
    plan: MultiOutputPlan,
    view_data: Mapping[str, ViewData],
    view_group_by: Mapping[str, tuple[str, ...]],
    memo: BindingMemo | None = None,
):
    """Marshal one group's incoming-view bindings for its backend, once.

    The returned object is backend-specific (reshaped dicts for Python,
    flattened entry arrays for C, sorted key-code tables for NumPy) and is
    treated as immutable by every per-partition execution, so it is safe
    to share across threads. ``memo`` (a :class:`BindingMemo`) reuses the
    forms of views that are still the objects an earlier run prepared.
    """
    if native is not None:
        return native.prepare_bindings(view_data, view_group_by, memo)
    return prepare_python_bindings(plan, view_data, view_group_by, memo)


def partition_tries(
    plan: MultiOutputPlan,
    trie: TrieIndex,
    partitions: int,
    threshold: int,
    concurrency: int | None = None,
) -> list[TrieIndex]:
    """The trie partitions one group should execute over (possibly just one).

    ``partitions`` is an advisory upper bound. Fan-out happens only when
    the configuration asks for it (``partitions > 1``), the plan's merge
    is provably safe (:attr:`MultiOutputPlan.partition_safe`), and the
    trie actually splits (≥ 2 level-0 runs). ``threshold`` is the minimum
    number of rows *per partition*: a 10k-row trie at the default 8192
    threshold now runs with one partition instead of splitting into four
    ~2.5k-row slices whose per-partition overhead exceeds their work
    (``threshold == 0`` forces the full fan-out — the differential test
    grids pin it to exercise partitioned paths on any input size).
    ``concurrency``, when given, further caps the fan-out at the number
    of threads that can actually run the partitions concurrently
    (:func:`repro.core.costmodel.effective_concurrency`).
    """
    k = costmodel.effective_partitions(
        trie.num_rows, partitions, threshold, concurrency
    )
    if k <= 1 or not plan.partition_safe:
        return [trie]
    return trie.partitions(k)


def merge_partial_outputs(
    plan: MultiOutputPlan, partial: Sequence[dict[str, dict]]
) -> dict[str, dict]:
    """Merge per-partition outputs of one group into the full outputs.

    Merge semantics per emission (see docs/architecture.md §Parallel):

    * **aligned** emissions (group-by = attribute-order prefix) are keyed by
      the level-0 attribute first, and level-0 values are disjoint across
      partitions — so the partial dicts concatenate (disjoint union). When
      every partial is an :class:`ArrayViewData` (the NumPy backend), the
      key columns and value matrices concatenate vectorised as well, so the
      merged view keeps columnar access for downstream NumPy consumers;
    * **accumulating** emissions (hash / scalar) sum per key and slot, in
      partition order. A key exists in the full output iff some partition
      emitted it: key support is itself a sum over rows, so it is positive
      on the whole relation iff positive on some partition.

    Partition order is fixed (level-0 run order), which makes the merged
    result deterministic — independent of worker count and scheduling.

    The merge never mutates its inputs: accumulating emissions copy the
    first-seen value list per key before summing into it, and aligned
    merges build a fresh container. If a partial is an
    :class:`ArrayViewData`, any future mutating path through dict methods
    would auto-drop its columnar state; under ``LMFAO_DEBUG`` the
    columnar partials are additionally asserted consistent before use.
    """
    if len(partial) == 1:
        return partial[0]
    debug = debug_checks_enabled()
    merged: dict[str, dict] = {}
    for emission in plan.emissions:
        name = emission.artifact
        if emission.aligned and emission.group_by:
            pieces = [outputs[name] for outputs in partial]
            if all(
                isinstance(p, ArrayViewData) and p.has_columns for p in pieces
            ):
                if debug:
                    for piece in pieces:
                        piece.check_consistent()
                num_parts = len(pieces[0].key_columns)
                out: dict = ArrayViewData.from_arrays(
                    [
                        np.concatenate([p.key_columns[i] for p in pieces])
                        for i in range(num_parts)
                    ],
                    np.concatenate([p.value_matrix for p in pieces]),
                )
            else:
                out = {}
                for outputs in partial:
                    out.update(outputs[name])
        else:
            out = {}
            for outputs in partial:
                source = outputs[name]
                if debug and isinstance(source, ArrayViewData):
                    source.check_consistent()
                for key, values in source.items():
                    current = out.get(key)
                    if current is None:
                        out[key] = list(values)
                    else:
                        for slot, value in enumerate(values):
                            current[slot] += value
        merged[name] = out
    return merged


def execute_plan_partitioned(
    code,
    native,
    plan: MultiOutputPlan,
    tries: Sequence[TrieIndex],
    view_data: Mapping[str, ViewData],
    view_group_by: Mapping[str, tuple[str, ...]],
    functions: Mapping[str, Function],
    memo: BindingMemo | None = None,
) -> dict[str, dict]:
    """Run one compiled group over trie partitions (serially) and merge.

    The engine's sequential loop, the incremental maintainer and the
    server's view-cache refresh run every group through this path over
    the tries :meth:`repro.core.engine.LMFAO._prepare_group` cut, so a
    partitioned configuration produces bit-identical state no matter
    which of them ran the group. The engine's thread scheduler fans the
    same per-partition calls out across its worker pool and merges with
    :func:`merge_partial_outputs` itself. ``memo`` (the maintainer's)
    reuses prepared bindings across runs.
    """
    if len(tries) == 1 and memo is None:
        return execute_plan(
            code, native, plan, tries[0], view_data, view_group_by, functions
        )
    prepared = prepare_bindings(native, plan, view_data, view_group_by, memo)
    partial = [
        execute_plan(
            code,
            native,
            plan,
            trie,
            view_data,
            view_group_by,
            functions,
            prepared_bindings=prepared,
        )
        for trie in tries
    ]
    return merge_partial_outputs(plan, partial)


def estimate_view_bytes(data: Mapping) -> int:
    """A cheap, deterministic size estimate of one materialized view.

    The view cache's byte accounting (:mod:`repro.serve.viewcache`) needs
    a weight per entry without walking every key of a large view. Columnar
    :class:`ArrayViewData` reports its arrays' true ``nbytes``; plain dict
    views are estimated as ``entries × (per-key + per-aggregate cost)``
    from one sampled entry. Estimates are stable for a given view, which
    is all LRU weight accounting needs (the bound is approximate by
    design — see ``docs/serving.md`` §View cache).
    """
    entries = len(data)
    if entries == 0:
        return 64
    if isinstance(data, ArrayViewData) and data.has_columns:
        return int(
            sum(column.nbytes for column in data.key_columns)
            + np.asarray(data.value_matrix).nbytes
            + 64 * entries  # dict-mirror overhead per entry
        )
    key, values = next(iter(data.items()))
    key_width = len(key) if isinstance(key, tuple) else 1
    per_entry = 64 + 28 * key_width + 32 * len(values)
    return 64 + entries * per_entry
