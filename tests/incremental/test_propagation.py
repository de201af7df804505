"""Δ propagation along the dirty path (the insert-only numeric step).

An insert-only change at one node reaches every downstream group as a
delta: a group whose own node is clean runs over its unchanged trie with
each dirty incoming view bound to the Δ its producer emitted this round,
and merges only the artifacts that read a dirty view. These tests pin the
fast path's reach (no rescans where it applies), its fallbacks (deletes,
two changed relations in one commit) and its exactness against
from-scratch recomputation on every backend.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import EngineConfig, LMFAO
from repro.core.cbackend import gcc_available
from repro.core.engine import _to_query_result
from repro.incremental import MaintainedBatch
from repro.ml import favorita_features
from repro.ml.covariance import covariance_batch
from repro.paper import FAVORITA_TREE, example_queries
from repro.query import Aggregate, Query, QueryBatch

from tests.helpers import assert_results_equal

BACKENDS = ["python", "numpy"] + (["c"] if gcc_available() else [])


def _engine(db, **config) -> LMFAO:
    return LMFAO(db, EngineConfig(join_tree_edges=FAVORITA_TREE, **config))


def _assert_close(handle: MaintainedBatch, fresh=None) -> None:
    fresh = handle.recompute() if fresh is None else fresh
    for name, result in handle.results.items():
        assert_results_equal(result, fresh.results[name])


def _interpreted_run(handle: MaintainedBatch):
    """A from-scratch run on the Python backend (no gcc per check)."""
    config = replace(handle.config, backend="python")
    return LMFAO(handle.database, config).run(handle.compiled.batch)


def _sample(rng, relation, count: int):
    size = min(count, relation.num_rows)
    picks = rng.choice(relation.num_rows, size=size, replace=False)
    return relation.take(np.sort(picks))


def _fresh_sales(rng, sales, count: int):
    """Sampled Sales rows with their stores shuffled: new (date, store) keys."""
    rows = _sample(rng, sales, count)
    return rows.replace_columns(store=rng.permutation(rows.column("store")))


def _random_delta(rng, db) -> dict:
    """One random write: inserts (some with new keys, some into two
    relations whose paths meet downstream), or Sales deletes."""
    roll = rng.random()
    count = int(rng.integers(1, 8))
    if roll < 0.3:
        return {"inserts": {"Sales": _sample(rng, db.relation("Sales"), count)}}
    if roll < 0.5:
        return {"inserts": {"Sales": _fresh_sales(rng, db.relation("Sales"), count)}}
    if roll < 0.6:
        return {"inserts": {"Oil": _sample(rng, db.relation("Oil"), count)}}
    if roll < 0.7:
        return {"inserts": {"Items": _sample(rng, db.relation("Items"), count)}}
    if roll < 0.8:
        return {
            "inserts": {
                name: _sample(rng, db.relation(name), count)
                for name in ("Oil", "Items")
            }
        }
    return {"deletes": {"Sales": _sample(rng, db.relation("Sales"), count)}}


@pytest.mark.parametrize("backend", BACKENDS)
def test_random_writes_match_recompute(favorita_db, backend):
    """Random insert/delete sequences, every backend, both batches."""
    spec = favorita_features(favorita_db)
    for seed, batch in ((3, covariance_batch(spec)), (4, example_queries())):
        handle = _engine(favorita_db, backend=backend).maintain(batch)
        rng = np.random.default_rng(seed)
        numeric = 0
        for _ in range(8):
            outcome = handle.apply(**_random_delta(rng, handle.database))
            numeric += outcome.groups_numeric
            _assert_close(handle, _interpreted_run(handle))
        _assert_close(handle)  # and against recompute() on the same backend
        assert numeric > 0  # the fast path engaged


@pytest.mark.parametrize("relation", ["Sales", "Oil"])
def test_single_relation_inserts_never_rescan(favorita_db, relation):
    """Sales and Oil sit where every downstream group's node is clean."""
    spec = favorita_features(favorita_db)
    handle = _engine(favorita_db).maintain(covariance_batch(spec))
    rng = np.random.default_rng(8)
    for make in (_sample, _fresh_sales if relation == "Sales" else _sample):
        rows = make(rng, handle.database.relation(relation), 5)
        outcome = handle.apply(inserts={relation: rows})
        assert outcome.groups_rescanned == 0
        assert outcome.groups_numeric > len(handle.rules.groups_by_node[relation])
        _assert_close(handle)


def test_two_relation_commit_falls_back_to_rescan(favorita_db):
    """A node with its own delta and a dirty input is rescanned, exactly."""
    spec = favorita_features(favorita_db)
    handle = _engine(favorita_db).maintain(covariance_batch(spec))
    rng = np.random.default_rng(9)
    db = handle.database
    outcome = handle.apply(
        inserts={
            "Sales": _sample(rng, db.relation("Sales"), 4),
            "Transactions": _sample(rng, db.relation("Transactions"), 3),
        }
    )
    assert outcome.groups_rescanned > 0
    assert outcome.groups_numeric > 0  # upstream of where the paths meet
    _assert_close(handle)


def test_dirty_inputs_from_two_producers_fall_back(favorita_db):
    """Views from two changed sides gate each other: no Δ propagation.

    With these two queries the Sales group emits only views, each reading
    one of the two dirty inputs (Transactions' view, dirty through Oil, and
    Items' view). Every binding still gates the whole loop nest, so binding
    both to their Δs would drop rows that join an old key on one side and
    a new one on the other; the group must rescan.
    """
    batch = QueryBatch(
        [
            Query("by_family", group_by=("family",),
                  aggregates=(Aggregate.count(), Aggregate.sum("units"))),
            Query("by_city", group_by=("city",),
                  aggregates=(Aggregate.count(), Aggregate.sum("price"))),
        ]
    )
    handle = _engine(favorita_db).maintain(batch)
    rng = np.random.default_rng(6)
    for _ in range(3):
        db = handle.database
        outcome = handle.apply(
            inserts={
                name: _sample(rng, db.relation(name), 3) for name in ("Oil", "Items")
            }
        )
        assert outcome.groups_rescanned > 0
        _assert_close(handle)


def test_new_probe_key_refreshes_views_that_only_see_it_as_a_gate(favorita_db):
    """An Oil date that comes back is a new key of the Transactions views.

    The Sales group binds those views but emits views towards Transactions
    that do not read them: such an emission is gated by the new key (more
    Sales rows pass), so it cannot be carried over — the group rescans.
    Re-inserting a date that is already present adds no key, and there the
    Δ path applies.
    """
    spec = favorita_features(favorita_db)
    handle = _engine(favorita_db).maintain(covariance_batch(spec))
    oil = handle.database.relation("Oil")
    row = oil.take(np.arange(1))
    handle.apply(deletes={"Oil": row})
    outcome = handle.apply(inserts={"Oil": row})
    assert outcome.groups_rescanned > 0
    _assert_close(handle)
    outcome = handle.apply(inserts={"Oil": oil.take(np.arange(1, 3))})
    assert outcome.groups_rescanned == 0
    _assert_close(handle)


def test_deletes_after_propagation_stay_exact_under_rescan_mode(favorita_db):
    """``incremental_mode='rescan'`` never propagates and stays bit-exact."""
    spec = favorita_features(favorita_db)
    handle = _engine(favorita_db, incremental_mode="rescan").maintain(
        covariance_batch(spec)
    )
    rng = np.random.default_rng(12)
    for _ in range(4):
        outcome = handle.apply(**_random_delta(rng, handle.database))
        assert outcome.groups_numeric == 0
        fresh = handle.recompute()
        for name, result in handle.results.items():
            assert result.groups == fresh.results[name].groups, name


def test_refreshed_results_keep_full_finish_order(favorita_db):
    """Re-finishing only the merged keys reproduces the full finish, in order."""
    spec = favorita_features(favorita_db)
    batch = covariance_batch(spec)
    handle = _engine(favorita_db).maintain(batch)
    rng = np.random.default_rng(21)
    for _ in range(3):
        sales = handle.database.relation("Sales")
        handle.apply(inserts={"Sales": _fresh_sales(rng, sales, 6)})
        raw = handle._state.query_raw
        for query in batch:
            full = _to_query_result(query, raw[query.name])[0].groups
            assert list(handle.results[query.name].groups.items()) == list(full.items())


def test_clean_views_are_not_marshalled_again(favorita_db, monkeypatch):
    """The binding memo: a second insert re-prepares only Δ-bound views."""
    from repro.core import runtime

    spec = favorita_features(favorita_db)
    handle = _engine(favorita_db, backend="python").maintain(covariance_batch(spec))
    rng = np.random.default_rng(2)
    sales = handle.database.relation("Sales")
    handle.apply(inserts={"Sales": _sample(rng, sales, 3)})

    stored: list = []
    reshape = runtime.reshape_binding

    def spy(binding, group_by, data):
        stored.append(any(data is view for view in handle.view_store().values()))
        return reshape(binding, group_by, data)

    monkeypatch.setattr(runtime, "reshape_binding", spy)
    handle.apply(inserts={"Sales": _sample(rng, sales, 3)})
    assert stored and not any(stored)  # only fresh Δs were reshaped
    _assert_close(handle)


def test_debug_guard_tolerates_float_reassociation(monkeypatch):
    """On float data a merge may differ from the rescan in the last bit.

    Here a propagated covariance entry over Oil prices sums to an integer
    on the rescan and lands one ulp off it through the merge; the guard
    compares exactly only where both values are integers (integer data),
    and within 1e-9 relative otherwise.
    """
    from repro.data import favorita

    db = favorita(scale=0.05, seed=3)
    spec = favorita_features(db)
    handle = _engine(db, backend="numpy").maintain(covariance_batch(spec))
    monkeypatch.setenv("LMFAO_DEBUG", "1")
    handle.apply(inserts={"Holidays": [(d, 0, 0, 0) for d in (4, 5, 8, 14, 15)]})
    handle.apply(inserts={"StoRes": [(1, 1, 1, 1, 11), (3, 2, 1, 5, 14)]})
    outcome = handle.apply(
        inserts={
            "Sales": [
                (5, 3, 5, 34.0, 0), (6, 1, 2, 4.0, 0), (10, 3, 14, 33.0, 0),
                (14, 1, 8, 11.0, 1), (17, 2, 1, 23.0, 0),
            ]
        }
    )
    assert outcome.groups_numeric > 0
    _assert_close(handle)


def test_debug_guard_catches_a_wrong_propagated_merge(favorita_db, monkeypatch):
    """Under LMFAO_DEBUG a propagated group is checked against its rescan."""
    handle = _engine(favorita_db).maintain(example_queries())
    run_full = MaintainedBatch._run_full

    def doubled(self, index, snapshot, view_data, transient=()):
        outputs = run_full(self, index, snapshot, view_data, transient)
        if not transient:
            return outputs
        return {
            name: {key: [2 * v for v in values] for key, values in data.items()}
            for name, data in outputs.items()
        }

    monkeypatch.setattr(MaintainedBatch, "_run_full", doubled)
    monkeypatch.setenv("LMFAO_DEBUG", "1")
    sales = handle.database.relation("Sales")
    with pytest.raises(AssertionError, match="propagated"):
        handle.apply(inserts={"Sales": sales.take(np.arange(3))})
