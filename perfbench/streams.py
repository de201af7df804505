"""Seeded inputs: the database, the batches and every request/delta stream.

Everything a workload sends to the engine is generated here from the
``--seed`` before any timer starts, so the same seed yields the same
database and the same op sequence on every client (the interleaving of
two concurrent clients is the only thing left to the scheduler). The
program under test receives only these generated inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro import Aggregate, Predicate, Query, QueryBatch, favorita
from repro.ml import cart_node_batch
from repro.query import OrderSpec
from repro.query.predicates import Op

#: Favorita at scale 2: 1,095,000 Sales rows over 6 relations.
SCALE = 2.0
#: Constant pools hold this many values per attribute.
POOL_SIZE = 16
#: Zipf exponent of constant draws (rank 1 = the pool's first value).
ZIPF_A = 1.5
#: CART path attributes and the comparison each one uses.
PATH_OPS = {"price": Op.LE, "txns": Op.GT, "promo": Op.EQ, "family": Op.NE}
#: CART paths of depth 0-2: (), one attribute, or a pair.
CART_PATHS: tuple[tuple[str, ...], ...] = (
    ((),)
    + tuple((a,) for a in PATH_OPS)
    + tuple(itertools.combinations(PATH_OPS, 2))
)
#: Requests each serving client pre-generates (more than a run consumes).
STREAM_LENGTH = 4096
#: Deltas the serve-write writer pre-generates (16 write cycles).
DELTA_COUNT = 64
#: Sales rows per inserted batch.
DELTA_ROWS = 100
TOPK = 5


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """An independent generator per (seed, stream id) pair."""
    return np.random.default_rng([seed, *stream])


def database(seed: int, scale: float = SCALE):
    return favorita(scale=scale, seed=seed)


def constant_pools(db) -> dict[str, list[float]]:
    """Per attribute, ``POOL_SIZE`` quantiles of its distinct values.

    Attributes with fewer distinct values (``promo``) repeat them; the
    pool order is ascending, so Zipf rank 1 is always the lowest value.
    """
    columns = {}
    for relation in db.relations:
        for name in relation.attribute_names:
            columns.setdefault(name, relation.column(name))
    pools = {}
    for attr in (*PATH_OPS, "date"):
        values = np.unique(columns[attr])
        picks = np.linspace(0, len(values) - 1, POOL_SIZE + 2)[1:-1]
        pool = [float(values[int(round(p))]) for p in picks]
        if len(values) <= POOL_SIZE:
            pool = [float(v) for v in itertools.islice(itertools.cycle(values), POOL_SIZE)]
        pools[attr] = pool
    return pools


@dataclass(frozen=True)
class Request:
    """One read: a batch structure plus the constants it binds.

    ``kind`` is ``"cart"``, ``"dash"`` or ``"topk"``; ``structure`` is the
    CART path index (0 for the other kinds); ``constants`` one value per
    predicate. Equal requests have equal keys, which the verifier uses to
    compute each distinct answer once.
    """

    kind: str
    structure: int
    constants: tuple[float, ...]

    @property
    def key(self) -> tuple:
        return (self.kind, self.structure, self.constants)


def _zipf_pick(rng: np.random.Generator, pool: list[float]) -> float:
    return pool[(int(rng.zipf(ZIPF_A)) - 1) % len(pool)]


def draw_request(rng: np.random.Generator, pools) -> Request:
    """50% CART node batches, 25% dashboards, 25% top-k leaderboards."""
    u = rng.random()
    if u < 0.5:
        structure = int(rng.integers(len(CART_PATHS)))
        constants = tuple(_zipf_pick(rng, pools[a]) for a in CART_PATHS[structure])
        return Request("cart", structure, constants)
    kind = "dash" if u < 0.75 else "topk"
    return Request(kind, 0, (_zipf_pick(rng, pools["date"]),))


def client_stream(seed: int, client: int, pools, length: int = STREAM_LENGTH) -> list[Request]:
    rng = rng_for(seed, 1, client)
    return [draw_request(rng, pools) for _ in range(length)]


def cold_requests(seed: int, pools) -> list[Request]:
    """The first request of each of the 13 batch structures."""
    rng = rng_for(seed, 0)
    requests = [
        Request("cart", i, tuple(_zipf_pick(rng, pools[a]) for a in path))
        for i, path in enumerate(CART_PATHS)
    ]
    requests.append(Request("dash", 0, (_zipf_pick(rng, pools["date"]),)))
    requests.append(Request("topk", 0, (_zipf_pick(rng, pools["date"]),)))
    return requests


def hot_set(pools) -> list[Request]:
    """serve-write's fixed 4-batch read set (pool medians as constants)."""
    mid = POOL_SIZE // 2
    return [
        Request("cart", 0, ()),
        Request("cart", 1, (pools["price"][mid],)),
        Request("dash", 0, (pools["date"][mid],)),
        Request("topk", 0, (pools["date"][mid],)),
    ]


def build_batch(request: Request, spec) -> QueryBatch:
    """The aggregate batch a request sends."""
    if request.kind == "cart":
        path = tuple(
            Predicate(attr, PATH_OPS[attr], value)
            for attr, value in zip(CART_PATHS[request.structure], request.constants)
        )
        return cart_node_batch(spec, path)
    since = (Predicate("date", Op.GE, request.constants[0]),)
    if request.kind == "dash":
        return QueryBatch(
            [
                Query(
                    "units_by_family",
                    group_by=("family",),
                    aggregates=(Aggregate.sum("units"), Aggregate.count()),
                    where=since,
                ),
                Query(
                    "units_by_store",
                    group_by=("store",),
                    aggregates=(Aggregate.sum("units"), Aggregate.count()),
                    where=since,
                ),
            ]
        )
    return QueryBatch(
        [
            Query(
                "top_items_per_store",
                group_by=("store", "item"),
                aggregates=(Aggregate.sum("units"),),
                where=since,
                order_by=OrderSpec(agg_index=0, descending=True, partition_by=("store",)),
                limit=TOPK,
            ),
            Query(
                "top_stores",
                group_by=("store",),
                aggregates=(Aggregate.sum("units"),),
                where=since,
                order_by=OrderSpec(agg_index=0, descending=True),
                limit=TOPK,
            ),
        ]
    )


@dataclass(frozen=True)
class Delta:
    """One write: ``kind`` is ``"insert"`` or ``"delete"`` of ``rows``."""

    kind: str
    rows: object  # a Sales Relation
    batch: int  # index of the inserted batch this delta adds or removes

    def apply_kwargs(self) -> dict:
        change = {"Sales": self.rows}
        if self.kind == "insert":
            return {"inserts": change, "deletes": None}
        return {"inserts": None, "deletes": change}


def delta_stream(seed: int, db, count: int = DELTA_COUNT, rows: int = DELTA_ROWS) -> list[Delta]:
    """Three inserts of sampled Sales rows, then delete the oldest batch left."""
    rng = rng_for(seed, 2)
    sales = db.relation("Sales")
    inserted: list[Delta] = []
    deltas: list[Delta] = []
    for i in range(count):
        if i % 4 == 3:
            oldest = inserted.pop(0)
            deltas.append(Delta("delete", oldest.rows, oldest.batch))
        else:
            delta = Delta("insert", sales.take(rng.integers(0, sales.num_rows, rows)), i)
            inserted.append(delta)
            deltas.append(delta)
    return deltas
