"""C backend: differential equality with the Python backend."""

import subprocess
import tempfile
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import EngineConfig, LMFAO, cbackend
from repro.core.cbackend import gcc_available, supports_plan
from repro.paper import EXAMPLE_ROOTS, FAVORITA_TREE, example_queries
from repro.util.errors import CyclicSchemaError, PlanError

from tests.helpers import assert_results_equal
from tests.strategies import instances

pytestmark = pytest.mark.skipif(not gcc_available(), reason="gcc not on PATH")


def _compare_backends(db, batch, **config):
    python_run = LMFAO(db, EngineConfig(**config)).run(batch)
    c_run = LMFAO(db, EngineConfig(backend="c", **config)).run(batch)
    for name in python_run.results:
        assert_results_equal(
            c_run.results[name], python_run.results[name], rel_tol=1e-9
        )
    return c_run


def test_paper_example_fully_native(favorita_db):
    run = _compare_backends(
        favorita_db,
        example_queries(),
        join_tree_edges=FAVORITA_TREE,
        root_override=EXAMPLE_ROOTS,
    )
    assert run.compiled.native_group_count == run.compiled.num_groups


def test_covariance_batch_native(favorita_db):
    from repro.ml import covariance_batch
    from repro.ml.features import favorita_features

    batch = covariance_batch(favorita_features(favorita_db))
    run = _compare_backends(favorita_db, batch, join_tree_edges=FAVORITA_TREE)
    # carried-block plans (two-categorical queries) must also be native
    assert run.compiled.native_group_count == run.compiled.num_groups


def test_float_keys_fall_back_to_python(retailer_db):
    """Rk-means-style float group-bys are handled by the Python backend."""
    from repro.query import Aggregate, Query, QueryBatch

    batch = QueryBatch(
        [Query("hist", group_by=("prize",), aggregates=(Aggregate.count(),))]
    )
    run = _compare_backends(retailer_db, batch)
    assert run.compiled.native_group_count < run.compiled.num_groups


def test_where_predicates_native(favorita_db):
    from repro.query import Aggregate, Op, Predicate, Query, QueryBatch

    batch = QueryBatch(
        [
            Query(
                "w",
                group_by=("store",),
                aggregates=(Aggregate.sum("units"),),
                where=(Predicate("promo", Op.EQ, 1.0),),
            )
        ]
    )
    _compare_backends(favorita_db, batch, join_tree_edges=FAVORITA_TREE)


def test_supports_plan_checks_kinds(favorita_db):
    engine = LMFAO(favorita_db, EngineConfig(join_tree_edges=FAVORITA_TREE))
    compiled = engine.compile(example_queries())
    kinds = {
        attr: favorita_db.schema.attribute_kind(attr).value
        for attr in favorita_db.schema.all_attributes
    }
    assert all(supports_plan(plan, kinds) for plan in compiled.plans)
    # degrade one kind: plans touching it must be rejected
    kinds["item"] = "continuous"
    assert not all(supports_plan(plan, kinds) for plan in compiled.plans)


def test_c_sources_kept_for_inspection(favorita_db):
    engine = LMFAO(
        favorita_db, EngineConfig(join_tree_edges=FAVORITA_TREE, backend="c")
    )
    compiled = engine.compile(example_queries())
    native = [g for g in compiled.native_groups if g is not None]
    assert native
    assert all("int32_t lmfao_run_g" in g.source for g in native)


@given(instance=instances())
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_c_backend_matches_python_on_random_instances(instance):
    try:
        _compare_backends(instance.db, instance.batch)
    except CyclicSchemaError:
        pytest.skip("generated schema had a disconnected join graph")


# ------------------------------------------------------------ compile cache


class _GccSpy:
    """Counts (and can delay or break) the per-source gcc runs."""

    def __init__(self) -> None:
        self.runs: list[str] = []
        self.delay = 0.0
        self.fail = False
        self._lock = threading.Lock()
        self._popen = subprocess.Popen

    def __call__(self, args, *rest, **kwargs):
        if args[0] == "gcc" and "-shared" in args:
            with self._lock:
                self.runs.append(args[-1])
            time.sleep(self.delay)
            if self.fail:
                args = [*args, "--no-such-gcc-option"]
        return self._popen(args, *rest, **kwargs)


@pytest.fixture()
def gcc_spy(monkeypatch, tmp_path):
    """A fresh, empty compile cache; gcc runs counted; TMPDIR isolated."""
    monkeypatch.setattr(cbackend, "_LIBRARIES", {})
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    spy = _GccSpy()
    monkeypatch.setattr(cbackend.subprocess, "Popen", spy)
    return spy


def _example_engine(db):
    return LMFAO(
        db,
        EngineConfig(
            backend="c", join_tree_edges=FAVORITA_TREE, root_override=EXAMPLE_ROOTS
        ),
    )


def _distinct_sources(compiled) -> set[str]:
    return {g.source for g in compiled.native_groups if g is not None}


def _assert_same_results(run, other):
    assert run.results.keys() == other.results.keys()
    for name in run.results:
        assert run.results[name].groups == other.results[name].groups


def test_repeated_batch_runs_gcc_once_per_source(favorita_db, gcc_spy):
    batch = example_queries()
    first = _example_engine(favorita_db).run(batch)
    sources = _distinct_sources(first.compiled)
    assert len(gcc_spy.runs) == len(sources) > 0
    second = _example_engine(favorita_db).run(batch)
    assert len(gcc_spy.runs) == len(sources)  # served from the cache
    # the cached library runs the same machine code: bit-identical
    _assert_same_results(second, first)
    python_run = LMFAO(
        favorita_db,
        EngineConfig(
            backend="python",
            join_tree_edges=FAVORITA_TREE,
            root_override=EXAMPLE_ROOTS,
        ),
    ).run(batch)
    for name in python_run.results:
        assert_results_equal(
            second.results[name], python_run.results[name], rel_tol=1e-9
        )


def test_concurrent_compiles_share_one_gcc_run(favorita_db, gcc_spy):
    # slow gcc down so the second thread arrives while the first one's
    # compiles are still in flight
    gcc_spy.delay = 0.2
    batch = example_queries()
    engines = [_example_engine(favorita_db) for _ in range(2)]
    barrier = threading.Barrier(2)
    compiled: list = [None, None]
    errors: list = []

    def compile_one(i):
        try:
            barrier.wait()
            compiled[i] = engines[i].compile(batch)
        except Exception as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=compile_one, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert len(gcc_spy.runs) == len(_distinct_sources(compiled[0]))
    for batch_compiled in compiled:
        assert all(
            g.fn is not None for g in batch_compiled.native_groups if g is not None
        )
    runs = [engine.execute(c) for engine, c in zip(engines, compiled)]
    _assert_same_results(runs[0], runs[1])


def test_gcc_failure_is_not_cached(favorita_db, gcc_spy, tmp_path):
    batch = example_queries()
    gcc_spy.fail = True
    with pytest.raises(PlanError, match="gcc failed"):
        _example_engine(favorita_db).compile(batch)
    failed_runs = len(gcc_spy.runs)
    assert failed_runs > 0
    assert cbackend._LIBRARIES == {}
    assert not list(tmp_path.glob("lmfao_c_*"))

    gcc_spy.fail = False
    run = _example_engine(favorita_db).run(batch)  # retries every source
    assert len(gcc_spy.runs) == 2 * failed_runs
    assert len(cbackend._LIBRARIES) == len(_distinct_sources(run.compiled))
    assert not list(tmp_path.glob("lmfao_c_*"))
