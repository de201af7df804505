"""Rk-means: grid coreset construction and approximation quality."""

import numpy as np
import pytest

from repro.baselines import MaterializedPipeline
from repro.ml import rk_means
from repro.ml.rkmeans import closest_centroid, evaluate_against_lloyds
from repro.util.errors import QueryError


@pytest.fixture(scope="module")
def db():
    from repro.data import favorita

    return favorita(scale=0.05, seed=13)


@pytest.fixture(scope="module")
def result(db):
    return rk_means(db, dimensions=("units", "txns", "price"), k=3, seed=0)


def test_requires_dimensions(db):
    with pytest.raises(QueryError):
        rk_means(db, dimensions=(), k=3)


def test_query_count_is_n_plus_one(result):
    assert result.num_queries == 4  # three dimensions + the grid query


def test_grid_weights_total_rows(db, result):
    """Grid point weights partition the dataset: Σ weights = |D|."""
    join = MaterializedPipeline(db).join
    assert result.grid_weights.sum() == pytest.approx(join.num_rows)


def test_grid_points_lie_on_per_dimension_centroids(result):
    """Each grid coordinate in dimension j is one of the k 1-D centroids."""
    for j in range(len(result.dimensions)):
        coords = set(np.round(result.grid_points[:, j], 9))
        assert len(coords) <= result.k


def test_coreset_is_small(db, result):
    join = MaterializedPipeline(db).join
    assert result.coreset_size <= min(result.k ** 3, join.num_rows)


def test_centroid_shape_and_steps(result):
    assert result.centroids.shape == (3, 3)
    assert set(result.step_seconds) == {
        "step1_histograms",
        "step2_kmeans_1d",
        "step3_grid",
        "step4_kmeans_grid",
    }
    assert set(result.per_dimension_seconds) == set(result.dimensions)


def test_quality_close_to_lloyds(db, result):
    """The paper's constant-factor approximation: on well-behaved data the
    relative gap to Lloyd's should be a modest constant."""
    evaluation = evaluate_against_lloyds(db, result, lloyd_runs=5, seed=1)
    assert evaluation.rk_inertia >= 0
    assert evaluation.lloyd_inertia_mean > 0
    assert evaluation.relative_approximation < 2.0
    assert 0 < evaluation.coreset_ratio <= 1.0


def test_closest_centroid_probe(result):
    point = result.centroids[1]
    assert closest_centroid(result, point) == 1


def test_single_dimension(db):
    result = rk_means(db, dimensions=("units",), k=2, seed=0)
    assert result.centroids.shape == (2, 1)
    assert result.num_queries == 2


def test_centroids_identical_across_backends(db):
    """Step 4 seeds by grid position, so the grid is put in key order first.

    Each backend emits the grid query's groups in its own order; without
    the sort, k-means++ would start from different points per backend.
    """
    from repro.core import EngineConfig, LMFAO
    from repro.core.cbackend import gcc_available

    backends = ["python", "numpy"] + (["c"] if gcc_available() else [])
    results = {
        backend: rk_means(
            db,
            dimensions=("units", "txns", "price", "store"),
            k=4,
            engine_factory=lambda d, b=backend: LMFAO(d, EngineConfig(backend=b)),
        )
        for backend in backends
    }
    reference = results["python"]
    for backend, result in results.items():
        np.testing.assert_array_equal(
            result.grid_points, reference.grid_points, err_msg=backend
        )
        np.testing.assert_array_equal(
            result.centroids, reference.centroids, err_msg=backend
        )
