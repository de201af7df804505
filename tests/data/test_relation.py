"""Relation operators: construction, sort, select, project, equality."""

import numpy as np
import pytest

from repro.data import Attribute, Relation, RelationSchema
from repro.util.errors import SchemaError

C = Attribute.categorical
F = Attribute.continuous


@pytest.fixture()
def rel():
    schema = RelationSchema("R", (C("k"), F("x")))
    return Relation(schema, {"k": [2, 1, 2, 3], "x": [1.0, 2.0, 3.0, 4.0]})


def test_construction_checks_columns(rel):
    schema = rel.schema
    with pytest.raises(SchemaError):
        Relation(schema, {"k": [1, 2]})  # missing column
    with pytest.raises(SchemaError):
        Relation(schema, {"k": [1], "x": [1.0, 2.0]})  # ragged
    with pytest.raises(SchemaError):
        Relation(schema, {"k": [1], "x": [1.0], "extra": [0]})


def test_columns_are_read_only(rel):
    with pytest.raises(ValueError):
        rel.column("k")[0] = 99


def test_categorical_coercion_rejects_fractions():
    schema = RelationSchema("R", (C("k"),))
    with pytest.raises(TypeError):
        Relation(schema, {"k": [1.5]})


def test_from_rows_and_iter_rows(rel):
    clone = Relation.from_rows(rel.schema, list(rel.iter_rows()))
    assert clone == rel
    assert clone.row(0) == (2, 1.0)


def test_from_rows_empty():
    schema = RelationSchema("R", (C("k"), F("x")))
    empty = Relation.from_rows(schema, [])
    assert empty.num_rows == 0


def test_from_rows_width_mismatch(rel):
    with pytest.raises(SchemaError):
        Relation.from_rows(rel.schema, [(1,)])


def test_sorted_by_is_lexicographic():
    schema = RelationSchema("R", (C("a"), C("b")))
    r = Relation(schema, {"a": [2, 1, 2, 1], "b": [1, 2, 0, 1]})
    s = r.sorted_by(("a", "b"))
    assert list(s.column("a")) == [1, 1, 2, 2]
    assert list(s.column("b")) == [1, 2, 0, 1]


def test_filter_and_select(rel):
    picked = rel.filter(np.array([True, False, True, False]))
    assert picked.num_rows == 2
    assert list(picked.column("k")) == [2, 2]
    selected = rel.select(lambda cols: cols["x"] > 2.0)
    assert selected.num_rows == 2
    with pytest.raises(ValueError):
        rel.filter(np.array([True]))


def test_project_bag_and_distinct(rel):
    bag = rel.project(("k",))
    assert bag.num_rows == 4
    distinct = rel.project(("k",), distinct=True)
    assert sorted(distinct.column("k")) == [1, 2, 3]


def test_project_distinct_multi_column():
    schema = RelationSchema("R", (C("a"), C("b")))
    r = Relation(schema, {"a": [1, 1, 1, 2], "b": [1, 1, 2, 1]})
    d = r.project(("a", "b"), distinct=True)
    assert d.num_rows == 3


def test_bag_equality_ignores_order(rel):
    shuffled = rel.take(np.array([3, 1, 0, 2]))
    assert shuffled == rel
    other = rel.replace_columns(x=[9.0, 2.0, 3.0, 4.0])
    assert other != rel


def test_rename(rel):
    named = rel.rename("S")
    assert named.name == "S"
    assert named == rel.rename("S")


def test_distinct_count(rel):
    assert rel.distinct_count("k") == 3


# ------------------------------------------------------- packed-key trie sort
def _with_row_ids(columns: dict) -> Relation:
    """A relation over ``columns`` plus a ``rid`` column naming each row."""
    n = len(next(iter(columns.values())))
    attrs = [
        F(name) if np.asarray(values).dtype.kind == "f" else C(name)
        for name, values in columns.items()
    ]
    schema = RelationSchema("R", (*attrs, F("rid")))
    return Relation(schema, {**columns, "rid": np.arange(n, dtype=np.float64)})


def _sort_permutation(relation: Relation, names) -> np.ndarray:
    return relation.sorted_by(names).column("rid").astype(np.int64)


def _lexsort_permutation(relation: Relation, names) -> np.ndarray:
    return np.lexsort([relation.column(n) for n in reversed(list(names))])


@pytest.mark.parametrize(
    "columns, packed",
    [
        # negative integers with ties (ties must keep row order)
        ({"a": [3, -2, -2, 7, -9, 3, 0], "b": [1, 5, -4, 1, 1, 1, -4]}, True),
        # a float key column takes the lexsort fallback
        ({"a": [2, 1, 2, 1], "x": [0.5, -1.5, 0.5, 2.0]}, False),
        # radix space × n past int64 takes the lexsort fallback
        ({"a": [0, 2**40, 5, 2**40], "b": [2**40, 0, 7, 2**40]}, False),
        ({"a": [], "b": []}, True),
        ({"a": [-5], "b": [9]}, True),
    ],
    ids=["negative-ints", "float-fallback", "overflow-fallback", "empty", "single-row"],
)
def test_packed_sort_matches_lexsort(columns, packed):
    from repro.data.relation import _packed_order

    relation = _with_row_ids(columns)
    names = tuple(columns)
    if relation.num_rows:
        used = _packed_order([relation.column(n) for n in names])
        assert (used is not None) == packed
    np.testing.assert_array_equal(
        _sort_permutation(relation, names), _lexsort_permutation(relation, names)
    )


def test_packed_order_bool_and_random_ints_match_lexsort():
    from repro.data.relation import _packed_order

    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 400))
        columns = [
            rng.integers(0, 2, n).astype(bool),
            rng.integers(-50, 50, n),
            rng.integers(-(10**6), 10**6, n),
        ]
        rng.shuffle(columns)
        order = _packed_order(columns)
        assert order is not None
        np.testing.assert_array_equal(order, np.lexsort(columns[::-1]))


# ---------------------------------------------------------------- remove_rows
def _reference_remove_rows(relation: Relation, other: Relation) -> Relation:
    """The full structured-argsort multiset difference (the earlier code)."""
    names = list(relation.attribute_names)
    mine = np.rec.fromarrays([relation.column(n) for n in names], names=names)
    gone = np.sort(np.rec.fromarrays([other.column(n) for n in names], names=names))
    order = np.argsort(mine, kind="stable")
    sorted_mine = mine[order]
    starts = np.flatnonzero(np.concatenate(([True], gone[1:] != gone[:-1])))
    ends = np.append(starts[1:], len(gone))
    keep = np.ones(relation.num_rows, dtype=bool)
    for start, end in zip(starts, ends):
        lo = np.searchsorted(sorted_mine, gone[start], side="left")
        hi = np.searchsorted(sorted_mine, gone[start], side="right")
        assert hi - lo >= end - start
        keep[order[lo : lo + (end - start)]] = False
    return relation.filter(keep)


def test_remove_rows_matches_full_sort_reference():
    """Duplicates and float columns: same rows removed, lowest index first."""
    rng = np.random.default_rng(11)
    schema = RelationSchema("R", (C("k"), F("x"), C("j"), F("rid")))
    for _ in range(30):
        n = int(rng.integers(5, 200))
        relation = Relation(
            schema,
            {
                "k": rng.integers(-3, 4, n),
                "x": rng.choice([0.5, -1.25, 2.0, 1e-3], n),
                "j": rng.integers(0, 3, n),
                # rid repeats, so equal tuples exist and must go lowest-first
                "rid": rng.integers(0, 2, n).astype(np.float64),
            },
        )
        picks = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
        delete = relation.take(np.sort(picks)[::-1])
        got = relation.remove_rows(delete)
        want = _reference_remove_rows(relation, delete)
        for name in relation.attribute_names:
            np.testing.assert_array_equal(got.column(name), want.column(name))


def test_remove_rows_missing_tuple_raises():
    schema = RelationSchema("R", (C("k"), F("x")))
    relation = Relation(schema, {"k": [1, 1, 2], "x": [0.5, 0.5, 1.0]})
    twice_too_many = Relation(schema, {"k": [1, 1, 1], "x": [0.5, 0.5, 0.5]})
    with pytest.raises(SchemaError, match="1 tuple"):
        relation.remove_rows(twice_too_many)
    absent = Relation(schema, {"k": [3], "x": [0.5]})
    with pytest.raises(SchemaError, match="not present"):
        relation.remove_rows(absent)
