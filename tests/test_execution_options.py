"""The unified ExecutionOptions API.

Pins the single-owner defaulting rules (in particular the
columnar-on-at-batch_size>=64 rule applying identically to the batch and
streaming engines -- they used to disagree), options= acceptance across
every front-end, and that ``options=`` is the only spelling: each entry
point rejects the retired per-knob kwargs with ``TypeError``.
"""

import pytest

from repro.core.columnar import COLUMNAR_MIN_BATCH
from repro.core.optimizer import Catalog
from repro.core.options import DEFAULT_MAX_BUFFER, ExecutionOptions
from repro.core.schema import Relation, Schema
from repro.engine.runner import build_topology, run_plan
from repro.functional.stream_api import QueryContext
from repro.sql.catalog import SqlSession
from repro.storm.cluster import LocalCluster
from repro.streaming.cluster import StreamingCluster
from repro.streaming.runner import stream_plan
from repro.streaming.sources import ReplaySource


@pytest.fixture
def catalog():
    catalog = Catalog()
    catalog.register(Relation(
        "t", Schema.of("k", "v"), [(i % 4, i) for i in range(96)]))
    return catalog


@pytest.fixture
def session(catalog):
    return SqlSession(catalog)


SQL = "SELECT k, COUNT(*) FROM t GROUP BY k"


class TestResolve:
    def test_defaults(self):
        resolved = ExecutionOptions().resolve()
        assert resolved.batch_size == 1
        assert resolved.executor == "inline"
        assert resolved.parallelism is None
        assert resolved.columnar is False
        assert resolved.rate is None
        assert resolved.max_buffer == DEFAULT_MAX_BUFFER
        assert resolved.on_overflow == "shed"

    def test_streaming_default_batch_size(self):
        resolved = ExecutionOptions().resolve(default_batch_size=64)
        assert resolved.batch_size == 64
        assert resolved.columnar is True  # 64 >= COLUMNAR_MIN_BATCH

    @pytest.mark.parametrize("batch_size,expected", [
        (1, False),
        (COLUMNAR_MIN_BATCH - 1, False),
        (COLUMNAR_MIN_BATCH, True),
        (1024, True),
    ])
    def test_columnar_rule_single_owner(self, batch_size, expected):
        resolved = ExecutionOptions(batch_size=batch_size).resolve()
        assert resolved.columnar is expected

    def test_explicit_columnar_wins_over_rule(self):
        assert ExecutionOptions(
            batch_size=1024, columnar=False).resolve().columnar is False
        assert ExecutionOptions(
            batch_size=1, columnar=True).resolve().columnar is True

    @pytest.mark.parametrize("bad", [
        dict(batch_size=0), dict(parallelism=0), dict(rate=0.0),
        dict(rate=-1.0), dict(max_buffer=0), dict(on_overflow="panic"),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            ExecutionOptions(**bad).resolve()

    def test_overlay_set_fields_win(self):
        base = ExecutionOptions(batch_size=8, executor="processes")
        over = base.overlay(ExecutionOptions(batch_size=64))
        assert over.batch_size == 64
        assert over.executor == "processes"
        assert base.overlay(None) is base

    def test_frozen(self):
        with pytest.raises(Exception):
            ExecutionOptions().batch_size = 5


class TestColumnarParityRegression:
    """stream_plan's columnar default used to disagree with the batch
    engine (explicit opt-in vs on-at-batch_size>=64); both now resolve
    through the one rule."""

    @pytest.mark.parametrize("batch_size", [1, 32, 64, 256])
    def test_streaming_matches_batch_columnar_default(self, session,
                                                      batch_size):
        plan = session.plan(SQL)
        batch_result = run_plan(
            plan, options=ExecutionOptions(batch_size=batch_size))
        query = session.stream(SQL, options=ExecutionOptions(
            batch_size=batch_size))
        expected = batch_size >= COLUMNAR_MIN_BATCH
        assert query.options.columnar is expected
        assert query.cluster.columnar is (expected and batch_size > 1)
        query.run()
        assert query.snapshot() == sorted(batch_result.results)
        # the batch run resolved through the same rule
        if expected and batch_size > 1:
            assert batch_result.metrics.columnar_batches > 0

    def test_streaming_columnar_actually_vectorizes(self, session):
        query = session.stream(SQL, options=ExecutionOptions(batch_size=96))
        query.run()
        assert query.cluster.metrics.columnar_batches > 0


def source_batches(result) -> int:
    """Spout micro-batches of a run over ``t``: 96 rows / batch_size."""
    return sum(result.metrics.batches["t"])


class TestFrontEnds:
    """options= reaches the engine from every front-end."""

    def test_run_plan_options(self, session):
        plan = session.plan(SQL)
        default = run_plan(plan)
        batched = run_plan(plan, options=ExecutionOptions(
            batch_size=16, executor="inline"))
        assert sorted(batched.results) == sorted(default.results)
        assert (source_batches(default), source_batches(batched)) == (96, 6)

    def test_sql_execute_options(self, session):
        batched = session.execute(SQL, options=ExecutionOptions(batch_size=16))
        assert sorted(batched.results) == sorted(session.execute(SQL).results)
        assert source_batches(batched) == 6

    def test_sql_stream_options(self, session):
        query = session.stream(SQL, options=ExecutionOptions(batch_size=16))
        query.run()
        assert query.snapshot() == sorted(session.execute(SQL).results)

    def test_session_execution_layer(self, catalog):
        session = SqlSession(
            catalog, execution=ExecutionOptions(batch_size=16))
        query = session.stream(SQL)
        assert query.options.batch_size == 16
        # per-call options overlay the session layer
        query2 = session.stream(SQL, options=ExecutionOptions(batch_size=8))
        assert query2.options.batch_size == 8
        assert source_batches(session.execute(SQL)) == 6

    def test_functional_execute_options(self, catalog):
        ctx = QueryContext(catalog, machines=2)
        default = ctx.stream("t").group_by("k").agg_count().execute()
        batched = (ctx.stream("t").group_by("k").agg_count()
                   .execute(options=ExecutionOptions(batch_size=16)))
        assert sorted(batched.results) == sorted(default.results)
        assert source_batches(batched) == 6

    def test_functional_stream_options(self, catalog):
        ctx = QueryContext(catalog, machines=2)
        query = (ctx.stream("t").group_by("k").agg_count()
                 .stream(options=ExecutionOptions(batch_size=16)))
        assert query.options.batch_size == 16
        query.run()
        batch = (ctx.stream("t").group_by("k").agg_count().execute())
        assert query.snapshot() == sorted(batch.results)

    def test_functional_context_execution_layer(self, catalog):
        ctx = QueryContext(catalog, execution=ExecutionOptions(batch_size=16),
                           machines=2)
        query = ctx.stream("t").group_by("k").agg_count().stream()
        assert query.options.batch_size == 16

    def test_streaming_rejects_parallelism_via_options(self, session):
        from repro.storm.executor import ExecutorError

        with pytest.raises(ExecutorError, match="parallelism"):
            session.stream(SQL, options=ExecutionOptions(parallelism=2))


def _topology(session):
    return build_topology(session.plan(SQL))[0]


#: every entry point with the per-knob kwargs it no longer takes
RETIRED_KWARGS = {
    "run_plan": (
        lambda session, knob: run_plan(session.plan(SQL), **knob),
        ("batch_size", "executor", "parallelism", "columnar")),
    "stream_plan": (
        lambda session, knob: stream_plan(session.plan(SQL), **knob),
        ("batch_size", "executor", "rate", "columnar")),
    "SqlSession.execute": (
        lambda session, knob: session.execute(SQL, **knob),
        ("batch_size", "executor", "parallelism", "columnar")),
    "SqlSession.stream": (
        lambda session, knob: session.stream(SQL, **knob),
        ("batch_size", "executor", "rate", "columnar")),
    "Stream.execute": (
        lambda session, knob: QueryContext(session.catalog).stream("t")
        .execute(**knob),
        ("batch_size", "executor", "parallelism", "columnar")),
    "Stream.stream": (
        lambda session, knob: QueryContext(session.catalog).stream("t")
        .stream(**knob),
        ("batch_size", "executor", "rate", "columnar")),
    "GroupedStream.execute": (
        lambda session, knob: QueryContext(session.catalog).stream("t")
        .group_by("k").agg_count().execute(**knob),
        ("batch_size", "executor", "parallelism", "columnar")),
    "GroupedStream.stream": (
        lambda session, knob: QueryContext(session.catalog).stream("t")
        .group_by("k").agg_count().stream(**knob),
        ("batch_size", "executor", "rate", "columnar")),
    "LocalCluster.run": (
        lambda session, knob: LocalCluster(_topology(session)).run(**knob),
        ("batch_size", "executor", "parallelism", "columnar", "observe")),
    "StreamingCluster": (
        lambda session, knob: StreamingCluster(
            _topology(session), {"t": ReplaySource([], stream="t")},
            **knob),
        ("batch_size", "executor", "parallelism", "columnar",
         "checkpoint_interval", "observe")),
}

#: a valid value per knob, so only the spelling can be at fault
KNOB_VALUES = dict(batch_size=16, executor="inline", parallelism=2,
                   columnar=True, rate=100.0, checkpoint_interval=4,
                   observe="metrics")


@pytest.mark.parametrize("entry,knob", [
    (entry, knob)
    for entry, (_call, knobs) in RETIRED_KWARGS.items() for knob in knobs
])
def test_retired_knob_kwarg_raises_type_error(session, entry, knob):
    call, _knobs = RETIRED_KWARGS[entry]
    with pytest.raises(TypeError, match=knob):
        call(session, {knob: KNOB_VALUES[knob]})


def test_functional_knob_error_points_at_options(catalog):
    with pytest.raises(TypeError, match=r"options=ExecutionOptions\(batch_size"):
        QueryContext(catalog).stream("t").execute(batch_size=8)


@pytest.mark.parametrize("make_cluster", [
    lambda session, options: LocalCluster(_topology(session)).run(
        options=options),
    lambda session, options: StreamingCluster(
        _topology(session), {"t": ReplaySource([], stream="t")},
        options=options),
], ids=["LocalCluster.run", "StreamingCluster"])
def test_clusters_validate_options(session, make_cluster):
    """The clusters resolve what they are given, so an out-of-range
    knob is refused even when every field is already set."""
    with pytest.raises(ValueError, match="batch_size"):
        make_cluster(session, ExecutionOptions(
            batch_size=0, executor="inline", columnar=False, observe="off"))
