"""Projection pushdown: sources ship only the columns a query reads.

Covers the three places the narrowing shows up:

- the optimizer gives every join source of an aggregating plan a
  pure-column projection, keeps the base field types, and remaps a
  join window's event-time positions to the projected layout;
- a columnar scan converts only the columns its selection and
  projection read;
- the streaming runtime maps projected event-time positions back to the
  replayed raw rows, so windowed joins keep their watermarks.

The differential suite generates aggregating queries over relations
padded with unread columns and checks every executor and batch size
against a plain-Python reference.
"""

import random
from collections import Counter
from itertools import product

from hypothesis import given, settings, strategies as st

from repro.core.columnar import ColumnBatch
from repro.core.expressions import col
from repro.core.optimizer import Catalog, Optimizer, OptimizerOptions
from repro.core.options import ExecutionOptions
from repro.core.predicates import BandCondition
from repro.core.schema import Relation, Schema
from repro.engine.component import SourceComponent
from repro.engine.operators import Projection
from repro.engine.runner import SourceSpout, run_plan
from repro.engine.windows import WindowedJoinState, WindowSpec
from repro.sql.catalog import SqlSession
from repro.sql.parser import parse_query
from repro.streaming.runner import stream_plan


def compile_sql(catalog, sql, **options):
    logical = parse_query(sql, {name: catalog.get(name).schema
                                for name in catalog.names()})
    return Optimizer(catalog, OptimizerOptions(**options)).compile(logical)


class TestProjectedFieldTypes:
    SCHEMA = Schema.of("id", "brand:str", "price:float", "shipped:date")

    def test_source_projection_keeps_base_types(self):
        source = SourceComponent(
            "P", Relation("P", self.SCHEMA),
            projection=[col("brand"), col("price"), col("shipped")],
            projection_names=["brand", "price", "shipped"])
        assert source.output_schema() == Schema.of(
            "brand:str", "price:float", "shipped:date")

    def test_operator_projection_keeps_base_types_under_new_names(self):
        projection = Projection([col("shipped"), col("brand")], self.SCHEMA,
                                names=["day", "label"])
        assert projection.output_schema == Schema.of("day:date", "label:str")

    def test_computed_expression_keeps_the_default_type(self):
        projection = Projection([col("price") * 2], self.SCHEMA)
        assert projection.output_schema == Schema.of("expr0")

    def test_pushdown_carries_types_into_the_join_schema(self):
        catalog = Catalog({
            "P": Relation("P", self.SCHEMA, [(1, "b", 1.5, "1995-01-01")]),
            "L": Relation("L", Schema.of("id", "qty:float", "note:str"),
                          [(1, 2.0, "x")]),
        })
        plan = compile_sql(catalog, "SELECT P.brand, SUM(L.qty) FROM P, L "
                                    "WHERE P.id = L.id GROUP BY P.brand",
                           machines=2)
        schemas = {info.name: info.schema
                   for info in plan.joins[0].spec.relations}
        assert schemas == {"P": Schema.of("id", "brand:str"),
                           "L": Schema.of("id", "qty:float")}
        assert sorted(run_plan(plan).results) == [("b", 2.0)]

    def test_explain_shows_the_typed_projection(self):
        session = SqlSession(options=OptimizerOptions(machines=2))
        session.register(Relation("P", self.SCHEMA))
        session.register(Relation("L", Schema.of("id", "qty:float")))
        text = session.explain("SELECT P.brand, SUM(L.qty) FROM P, L "
                               "WHERE P.id = L.id GROUP BY P.brand")
        assert "P: project Schema(id:int, brand:str)" in text
        assert "L: project" not in text  # nothing to prune


class TestProjectedScan:
    def test_from_rows_converts_only_the_given_positions(self):
        rows = [(1, "a", 2.5, 7), (2, "b", 3.5, 8)]
        batch = ColumnBatch.from_rows(rows, positions=[3, 0])
        assert batch == ColumnBatch.from_rows([(7, 1), (8, 2)])

    def test_columnar_scan_reads_selection_and_projection_columns(self):
        schema = Schema.of("a", "pad:str", "b", "c:float", "d")
        rows = [(i, f"s{i}", i % 4, i / 2, i % 3) for i in range(40)]
        source = SourceComponent(
            "R", Relation("R", schema, rows),
            predicate=col("d").lt(2),
            projection=[col("b"), col("a")], projection_names=["b", "a"])
        spouts = {}
        for columnar in (False, True):
            spout = SourceSpout(source)
            spout.columnar = columnar
            spouts[columnar] = spout
        assert spouts[True].scan_positions == [0, 2, 4]
        row_path = spouts[False].next_batch(100)
        columnar = spouts[True].next_batch(100)
        assert list(columnar) == row_path
        assert columnar.batch.length == len(row_path) > 0
        for spout in spouts.values():
            assert (spout.selection.seen, spout.selection.passed) == \
                (40, len(row_path))

    def test_row_fallback_of_a_narrowed_scan(self):
        """A predicate over a str column has no vector form: the narrowed
        batch falls back to row tuples of the narrowed layout."""
        schema = Schema.of("pad", "name:str", "k")
        rows = [(i, f"n{i % 5}", i % 3) for i in range(30)]
        source = SourceComponent(
            "R", Relation("R", schema, rows),
            predicate=col("name").lt("n2"),
            projection=[col("k")], projection_names=["k"])
        spout = SourceSpout(source)
        spout.columnar = True
        expected = [("R", (row[2],)) for row in rows if row[1] < "n2"]
        assert spout.next_batch(64) == expected


class TestWindowedJoinWatermarks:
    """A tumbling join window whose event-time column follows a pruned
    column: the projected plan must keep its plan-derived watermarks."""

    N = 80

    def catalogs(self):
        rows_r = [(i % 5 if i < 40 else 0, f"p{i}", i // 4, i % 3)
                  for i in range(self.N)]
        rows_s = [(i // 4, float(i), i % 5 if i < 40 else 0)
                  for i in range(self.N)]
        full = Catalog({
            "R": Relation("R", Schema.of("k", "pad:str", "ts", "g"), rows_r),
            "S": Relation("S", Schema.of("ts", "pad:float", "k"), rows_s),
        })
        # the same relations without the pruned columns: nothing to push
        narrow = Catalog({
            "R": Relation("R", Schema.of("k", "ts", "g"),
                          [(k, ts, g) for k, _pad, ts, g in rows_r]),
            "S": Relation("S", Schema.of("ts", "k"),
                          [(ts, k) for ts, _pad, k in rows_s]),
        })
        return full, narrow

    SQL = "SELECT R.g, COUNT(*) FROM R, S WHERE R.k = S.k GROUP BY R.g"

    def plan(self, catalog, positions):
        # hash partitioning: key 0 lives on one joiner, so after ts 10
        # the other joiner's window closes only through the watermark
        return compile_sql(
            catalog, self.SQL, machines=2, scheme="hash",
            window=WindowSpec.tumbling(10, ts_positions=positions))

    def test_projected_windowed_join_matches_and_closes_on_watermarks(
            self, monkeypatch):
        full, narrow = self.catalogs()
        plan = self.plan(full, {"R": 2, "S": 0})
        names = {s.name: s.projection_names for s in plan.sources}
        assert names == {"R": ["k", "ts", "g"], "S": ["ts", "k"]}
        assert plan.joins[0].window.ts_positions == {"R": 1, "S": 0}
        unprojected = self.plan(narrow, {"R": 1, "S": 0})
        assert all(s.projection is None for s in unprojected.sources)

        expected = sorted(run_plan(unprojected).results)
        assert expected
        assert sorted(run_plan(plan).results) == expected

        closes = []
        advance_time = WindowedJoinState.advance_time

        def spy(state, now):
            before = state.expired_tuples
            advance_time(state, now)
            if state.expired_tuples > before:
                closes.append(query.done)

        monkeypatch.setattr(WindowedJoinState, "advance_time", spy)
        query = stream_plan(plan, options=ExecutionOptions(batch_size=8))
        for _delta in query:
            pass
        assert query.snapshot() == expected
        assert closes and not any(closes), \
            "no window closed on a watermark before the end of stream"


# -- differential suite ---------------------------------------------------

#: key and value columns interleaved with unread int/float/str/date pads
SCHEMAS = {
    "R": Schema.of("r_i", "a", "r_f:float", "g:str", "r_s:str", "v",
                   "r_d:date"),
    "S": Schema.of("s_d:date", "a", "s_s:str", "b", "s_f:float", "h",
                   "s_i"),
    "T": Schema.of("t_f:float", "b", "t_i", "t_s:str", "w", "t_d:date"),
}
#: pads by type, with a selection literal splitting their values
PAD_FILTERS = {"int": 5, "float": 0.5, "str": "m", "date": "1995-06-15"}


def generate_rows(alias, n, rng):
    rows = []
    for _ in range(n):
        row = []
        for field in SCHEMAS[alias].fields:
            if field.name in ("a", "b"):
                row.append(rng.randrange(5))
            elif field.name == "g":
                row.append(rng.choice(["x", "y", "z"]))
            elif field.type == "int":
                row.append(rng.randrange(10))
            elif field.type == "float":
                row.append(rng.random())
            elif field.type == "str":
                row.append(rng.choice("ahmqz") * 2)
            else:
                row.append(f"1995-{rng.randrange(1, 13):02d}-15")
        rows.append(tuple(row))
    return rows


@st.composite
def queries(draw):
    aliases = ["R", "S", "T"][:draw(st.integers(2, 3))]
    edges = [(("R", "a"), ("S", "a")), (("S", "b"), ("T", "b"))]
    kinds = [draw(st.sampled_from(["=", "<", ">=", "band"]))
             for _ in aliases[1:]]
    group = draw(st.sampled_from(
        [c for c in ("R.g", "R.v", "S.h", "T.w") if c[0] in aliases]))
    total = draw(st.sampled_from(
        [None] + [c for c in ("R.v", "S.h", "T.w") if c[0] in aliases]))
    selection = None
    if draw(st.booleans()):
        alias = draw(st.sampled_from(aliases))
        pad = draw(st.sampled_from(
            [f for f in SCHEMAS[alias].fields if "_" in f.name]))
        selection = (alias, pad.name, PAD_FILTERS[pad.type])
    return dict(aliases=aliases, edges=list(zip(edges, kinds)), group=group,
                total=total, selection=selection,
                mode=draw(st.sampled_from(["multiway", "pipeline"])),
                seed=draw(st.integers(0, 10_000)))


def sql_of(query, aggregate=True):
    """SQL text plus the band conditions SQL cannot spell."""
    where, bands = [], []
    for ((la, lattr), (ra, rattr)), kind in query["edges"]:
        if kind == "band":
            bands.append(BandCondition((la, lattr), (ra, rattr), 1))
        else:
            where.append(f"{la}.{lattr} {kind} {ra}.{rattr}")
    if query["selection"] is not None:
        alias, column, literal = query["selection"]
        literal = f"'{literal}'" if isinstance(literal, str) else literal
        where.append(f"{alias}.{column} < {literal}")
    if aggregate:
        items = [query["group"], "COUNT(*)"]
        if query["total"] is not None:
            items.append(f"SUM({query['total']})")
        tail = f" GROUP BY {query['group']}"
    else:
        items, tail = [f"{alias}.{SCHEMAS[alias].names[0]}"
                       for alias in query["aliases"]], ""
    sql = f"SELECT {', '.join(items)} FROM {', '.join(query['aliases'])}"
    if where:
        sql += " WHERE " + " AND ".join(where)
    return sql + tail, bands


def compile_query(catalog, query, aggregate=True):
    sql, bands = sql_of(query, aggregate)
    logical = parse_query(sql, {a: SCHEMAS[a] for a in query["aliases"]})
    logical.conditions.extend(bands)
    options = OptimizerOptions(machines=4, mode=query["mode"])
    return Optimizer(catalog, options).compile(logical)


def reference(data, query):
    """Nested loops over the raw rows, then a plain grouped count/sum."""
    def value(row_of, name):
        alias, column = name.split(".")
        return row_of[alias][SCHEMAS[alias].index_of(column)]

    inputs = {}
    for alias in query["aliases"]:
        rows = data[alias]
        if query["selection"] is not None and query["selection"][0] == alias:
            _alias, column, literal = query["selection"]
            position = SCHEMAS[alias].index_of(column)
            rows = [row for row in rows if row[position] < literal]
        inputs[alias] = rows
    groups = {}
    for combo in product(*(inputs[a] for a in query["aliases"])):
        row_of = dict(zip(query["aliases"], combo))
        ok = True
        for ((la, lattr), (ra, rattr)), kind in query["edges"]:
            left = value(row_of, f"{la}.{lattr}")
            right = value(row_of, f"{ra}.{rattr}")
            ok = ok and {"=": left == right, "<": left < right,
                         ">=": left >= right,
                         "band": abs(left - right) <= 1}[kind]
        if not ok:
            continue
        key = value(row_of, query["group"])
        count, total = groups.get(key, (0, 0))
        if query["total"] is not None:
            total += value(row_of, query["total"])
        groups[key] = (count + 1, total)
    if query["total"] is None:
        return Counter((key, count) for key, (count, _t) in groups.items())
    return Counter((key, count, total)
                   for key, (count, total) in groups.items())


def read_columns(query, alias):
    """The columns a source must ship: join, GROUP BY and SUM columns."""
    names = {attr for ((la, lattr), (ra, rattr)), _kind in query["edges"]
             for side, attr in ((la, lattr), (ra, rattr)) if side == alias}
    for name in (query["group"], query["total"]):
        if name is not None and name.startswith(alias + "."):
            names.add(name.split(".")[1])
    return names


@settings(max_examples=12, deadline=None)
@given(query=queries())
def test_pushdown_matches_reference_on_every_executor(query):
    rng = random.Random(query["seed"])
    data = {alias: generate_rows(alias, rng.randrange(6, 13), rng)
            for alias in query["aliases"]}
    catalog = Catalog({alias: Relation(alias, SCHEMAS[alias], data[alias])
                       for alias in query["aliases"]})
    plan = compile_query(catalog, query)
    for source in plan.sources:
        names = source.projection_names or source.relation.schema.names
        assert set(names) == read_columns(query, source.name)
        # schema order, base types kept
        assert source.output_schema() == \
            source.relation.schema.project(sorted(
                names, key=source.relation.schema.index_of))
    expected = reference(data, query)
    for executor, batch_size in product(["inline", "processes"], [1, 64]):
        result = run_plan(plan, options=ExecutionOptions(
            executor=executor, batch_size=batch_size, parallelism=2))
        assert Counter(result.results) == expected, (executor, batch_size)
    joins_only = compile_query(catalog, query, aggregate=False)
    assert all(s.projection is None for s in joins_only.sources)
