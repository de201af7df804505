"""Rk-means: relational clustering via a weighted grid coreset (paper §3).

The four steps, with LMFAO computing steps 1 and 3:

1. per-dimension histograms — ``SELECT Xj, SUM(1) FROM D GROUP BY Xj``,
   one query per clustering dimension (one shared LMFAO batch);
2. weighted 1-D k-means on every projection (``repro.ml.kmeans``);
3. the **grid coreset**: the database is extended with one cluster
   assignment relation ``A_j(Xj, c_Xj)`` per dimension and the single query
   ``SELECT c_X1..c_Xn, SUM(1) FROM D ⋈ A_1 ⋈ ... GROUP BY c_X1..c_Xn``
   computes every grid point's weight — ``n+1`` LMFAO queries in total,
   exactly as the paper counts;
4. weighted k-means on the grid coreset gives the final centroids.

The quality metrics of the demo's Figure 4(d) — relative intra-cluster
distance versus conventional Lloyd's (averaged over ten runs) and the
relative coreset size — are computed by :func:`evaluate_against_lloyds`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.engine import LMFAO
from repro.data.catalog import Database
from repro.data.relation import Relation
from repro.data.schema import Attribute, RelationSchema
from repro.data.types import AttributeKind
from repro.ml.kmeans import KMeansResult, weighted_inertia, weighted_kmeans
from repro.query.aggregates import Aggregate
from repro.query.batch import QueryBatch
from repro.query.query import Query
from repro.util.errors import QueryError


@dataclass
class RkMeansResult:
    """Centroids plus the bookkeeping the demo UI displays."""

    dimensions: tuple[str, ...]
    k: int
    centroids: np.ndarray  # (k, n_dims)
    grid_points: np.ndarray  # (m, n_dims), ascending by grid cell
    grid_weights: np.ndarray  # (m,)
    num_queries: int  # n + 1, as the paper counts
    #: wall time per step: aggregates1, kmeans_1d, grid_aggregate, kmeans_grid
    step_seconds: dict[str, float] = field(default_factory=dict)
    per_dimension_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def coreset_size(self) -> int:
        return len(self.grid_points)


def _assignment_relation(
    attr: str, kind: AttributeKind, values: np.ndarray, assignment: np.ndarray
) -> Relation:
    """The relation ``A_j(Xj, c_Xj)`` mapping values to cluster ids."""
    value_attr = Attribute(attr, kind)
    cluster_attr = Attribute.categorical(f"c_{attr}")
    schema = RelationSchema(f"A_{attr}", (value_attr, cluster_attr))
    return Relation(schema, {attr: values, f"c_{attr}": assignment})


def rk_means(
    db: Database,
    dimensions: tuple[str, ...],
    k: int,
    seed: int = 0,
    engine_factory=None,
) -> RkMeansResult:
    """Run the four Rk-means steps over ``db``.

    ``dimensions`` are the clustering attributes (projections of ``D``).
    ``engine_factory`` defaults to plain :class:`LMFAO` and exists so
    benchmarks can inject configured engines.
    """
    if not dimensions:
        raise QueryError("rk_means needs at least one dimension")
    make_engine = engine_factory or (lambda database: LMFAO(database))
    steps: dict[str, float] = {}
    per_dim: dict[str, float] = {}

    # ---- step 1: one shared batch of per-dimension histograms --------------
    start = time.perf_counter()
    engine = make_engine(db)
    histogram_batch = QueryBatch(
        [
            Query(f"proj_{attr}", group_by=(attr,), aggregates=(Aggregate.count(),))
            for attr in dimensions
        ]
    )
    run = engine.run(histogram_batch)
    steps["step1_histograms"] = time.perf_counter() - start

    # ---- step 2: weighted 1-D k-means per dimension -------------------------
    start = time.perf_counter()
    centroids_1d: dict[str, np.ndarray] = {}
    assignments: dict[str, Relation] = {}
    for attr in dimensions:
        t0 = time.perf_counter()
        groups = sorted(run.results[f"proj_{attr}"].groups.items())
        values = np.array([key[0] for key, _ in groups], dtype=np.float64)
        weights = np.array([stats[0] for _, stats in groups], dtype=np.float64)
        result = weighted_kmeans(values, weights, k=k, seed=seed)
        centroids_1d[attr] = result.centroids[:, 0]
        kind = db.schema.attribute_kind(attr)
        raw = np.array([key[0] for key, _ in groups])
        assignments[attr] = _assignment_relation(
            attr, kind, raw, result.assignments.astype(np.int64)
        )
        per_dim[attr] = time.perf_counter() - t0
    steps["step2_kmeans_1d"] = time.perf_counter() - start

    # ---- step 3: the grid coreset weights, one aggregate query --------------
    start = time.perf_counter()
    extended = Database(
        list(db.relations) + [assignments[attr] for attr in dimensions],
        name=f"{db.name}_rk",
    )
    grid_engine = make_engine(extended)
    cluster_attrs = tuple(f"c_{attr}" for attr in dimensions)
    grid_query = Query(
        "grid", group_by=cluster_attrs, aggregates=(Aggregate.count(),)
    )
    grid_run = grid_engine.run(QueryBatch([grid_query]))
    # ascending cluster-id order: step 4's k-means++ seeds by grid position,
    # and the engine's emission order differs between backends
    grid = sorted(grid_run.results["grid"].groups.items())
    steps["step3_grid"] = time.perf_counter() - start

    grid_points = np.array(
        [
            [centroids_1d[attr][int(key[j])] for j, attr in enumerate(dimensions)]
            for key, _ in grid
        ],
        dtype=np.float64,
    )
    grid_weights = np.array([stats[0] for _, stats in grid], dtype=np.float64)

    # ---- step 4: weighted k-means on the coreset -----------------------------
    start = time.perf_counter()
    final = weighted_kmeans(grid_points, grid_weights, k=k, seed=seed)
    steps["step4_kmeans_grid"] = time.perf_counter() - start

    return RkMeansResult(
        dimensions=dimensions,
        k=k,
        centroids=final.centroids,
        grid_points=grid_points,
        grid_weights=grid_weights,
        num_queries=len(dimensions) + 1,
        step_seconds=steps,
        per_dimension_seconds=per_dim,
    )


@dataclass
class RkMeansEvaluation:
    """The Figure 4(d) quality numbers."""

    rk_inertia: float
    lloyd_inertia_mean: float
    lloyd_runs: int
    relative_approximation: float  # (rk − lloyd) / lloyd
    coreset_ratio: float  # |G| / |D|
    lloyd_seconds: float
    closest_centroid: KMeansResult | None = None


def evaluate_against_lloyds(
    db: Database,
    result: RkMeansResult,
    lloyd_runs: int = 10,
    seed: int = 0,
) -> RkMeansEvaluation:
    """Compare Rk-means to conventional Lloyd's on the full dataset.

    Materialises ``D`` (this is an offline quality evaluation, exactly as
    the demo precomputes ten Lloyd's runs), computes the intra-cluster
    distance of the Rk-means centroids on the full data, and the mean
    intra-cluster distance across ``lloyd_runs`` seeded Lloyd's runs.
    """
    join = db.materialize_join()
    points = np.stack(
        [join.column(attr).astype(np.float64) for attr in result.dimensions], axis=1
    )
    rk_inertia = weighted_inertia(points, None, result.centroids)
    start = time.perf_counter()
    inertias = [
        weighted_kmeans(points, None, k=result.k, seed=seed + run).inertia
        for run in range(lloyd_runs)
    ]
    lloyd_seconds = time.perf_counter() - start
    lloyd_mean = float(np.mean(inertias)) if inertias else float("nan")
    relative = (rk_inertia - lloyd_mean) / lloyd_mean if inertias else float("nan")
    return RkMeansEvaluation(
        rk_inertia=rk_inertia,
        lloyd_inertia_mean=lloyd_mean,
        lloyd_runs=lloyd_runs,
        relative_approximation=relative,
        coreset_ratio=result.coreset_size / max(1, join.num_rows),
        lloyd_seconds=lloyd_seconds,
    )


def closest_centroid(result: RkMeansResult, point: np.ndarray) -> int:
    """Index of the centroid nearest to ``point`` — the demo's probe box."""
    diffs = result.centroids - np.asarray(point, dtype=np.float64)[None, :]
    return int(np.einsum("kd,kd->k", diffs, diffs).argmin())
