"""Integration tests: non-hypercube schemes and paper queries end to end.

The engine accepts any :class:`~repro.partitioning.base.Partitioner`
instance as a join component's scheme -- these tests run the 2-way
schemes (1-Bucket, EWH, Adaptive 1-Bucket) through the full topology and
re-run the paper's demo queries as library calls.
"""

import random
from collections import Counter

import pytest

from repro.core.optimizer import OptimizerOptions
from repro.core.options import ExecutionOptions
from repro.core.predicates import BandCondition, EquiCondition, JoinSpec, RelationInfo
from repro.core.schema import Relation, Schema
from repro.datasets import GoogleClusterGenerator
from repro.engine import JoinComponent, PhysicalPlan, SourceComponent, run_plan
from repro.joins import reference_join
from repro.partitioning import EWHScheme, OneBucket
from repro.partitioning.adaptive import AdaptiveOneBucket
from repro.sql.catalog import SqlSession


def two_relations(seed=0, n=60):
    rng = random.Random(seed)
    left = Relation("L", Schema.of("k", "v"),
                    [(rng.randrange(20), i) for i in range(n)])
    right = Relation("R", Schema.of("k", "w"),
                     [(rng.randrange(20), i) for i in range(n)])
    spec = JoinSpec(
        [RelationInfo("L", left.schema, n), RelationInfo("R", right.schema, n)],
        [EquiCondition(("L", "k"), ("R", "k"))],
    )
    return left, right, spec


class TestMixedNumericKeys:
    """Equal keys must route equally: an int-keyed relation joined with a
    float-keyed one finds every match at any parallelism."""

    @pytest.mark.parametrize("machines", [1, 8])
    @pytest.mark.parametrize("batch_size", [1, 64])
    @pytest.mark.parametrize("columnar", [False, True],
                             ids=["row", "columnar"])
    def test_int_float_equi_join_finds_every_match(self, machines,
                                                   batch_size, columnar):
        R = Relation("R", Schema.of("x", "y"), [(i, i) for i in range(50)])
        S = Relation("S", Schema.of("y", "z"),
                     [(float(i), i) for i in range(50)])
        spec = JoinSpec(
            [RelationInfo("R", R.schema, 50), RelationInfo("S", S.schema, 50)],
            [EquiCondition(("R", "y"), ("S", "y"))],
        )
        plan = PhysicalPlan(
            sources=[SourceComponent("R", R), SourceComponent("S", S)],
            joins=[JoinComponent("J", spec, machines=machines, scheme="hash")],
        )
        result = run_plan(plan, options=ExecutionOptions(
            batch_size=batch_size, columnar=columnar))
        expected = reference_join(spec, {"R": R.rows, "S": S.rows})
        assert len(expected) == 50
        assert Counter(result.results) == Counter(expected)


class TestTwoWaySchemesThroughEngine:
    def test_one_bucket_scheme_in_plan(self):
        left, right, spec = two_relations(seed=91)
        scheme = OneBucket("L", "R", 8, len(left), len(right), seed=1)
        plan = PhysicalPlan(
            sources=[SourceComponent("L", left), SourceComponent("R", right)],
            joins=[JoinComponent("J", spec, machines=scheme.n_machines,
                                 scheme=scheme)],
        )
        result = run_plan(plan)
        expected = reference_join(spec, {"L": left.rows, "R": right.rows})
        assert Counter(result.results) == Counter(expected)
        # 1-Bucket replicates: the join receives more than it was sent
        assert result.replication_factor("J") > 1.5

    def test_adaptive_one_bucket_in_plan(self):
        left, right, spec = two_relations(seed=92, n=100)
        scheme = AdaptiveOneBucket("L", "R", 8, seed=2, check_interval=32)
        plan = PhysicalPlan(
            sources=[SourceComponent("L", left), SourceComponent("R", right)],
            joins=[JoinComponent("J", spec, machines=8, scheme=scheme)],
        )
        result = run_plan(plan)
        expected = reference_join(spec, {"L": left.rows, "R": right.rows})
        assert Counter(result.results) == Counter(expected)

    def test_ewh_scheme_band_join_in_plan(self):
        rng = random.Random(93)
        left = Relation("L", Schema.of("k"),
                        [(rng.randrange(200),) for _ in range(80)])
        right = Relation("R", Schema.of("k"),
                         [(rng.randrange(200),) for _ in range(80)])
        cond = BandCondition(("L", "k"), ("R", "k"), width=3)
        spec = JoinSpec(
            [RelationInfo("L", left.schema, 80), RelationInfo("R", right.schema, 80)],
            [cond],
        )
        scheme = EWHScheme("L", 0, "R", 0, 6,
                           [row[0] for row in left.rows],
                           [row[0] for row in right.rows], cond)
        plan = PhysicalPlan(
            sources=[SourceComponent("L", left), SourceComponent("R", right)],
            joins=[JoinComponent("J", spec, machines=scheme.n_machines,
                                 scheme=scheme)],
        )
        result = run_plan(plan)
        expected = reference_join(spec, {"L": left.rows, "R": right.rows})
        assert Counter(result.results) == Counter(expected)


class TestPaperDemoQueries:
    @pytest.fixture(scope="class")
    def session(self):
        data = GoogleClusterGenerator(n_machines=15, n_jobs=25,
                                      n_task_events=400, seed=94).generate()
        session = SqlSession(options=OptimizerOptions(machines=4))
        for relation in data.values():
            session.register(relation)
        self.data = data
        return session

    def test_production_readiness_query(self, session):
        """Section 6: machines that often fail production-job tasks."""
        result = session.execute("""
            SELECT task_events.machineID, COUNT(*)
            FROM job_events, task_events, machine_events
            WHERE task_events.eventType = 'FAIL'
              AND job_events.production = 1
              AND job_events.jobID = task_events.jobID
              AND machine_events.machineID = task_events.machineID
            GROUP BY task_events.machineID
        """)
        jobs = session.catalog.get("job_events")
        tasks = session.catalog.get("task_events")
        production_jobs = {row[0] for row in jobs.rows if row[4] == 1}
        expected = Counter(
            row[2] for row in tasks.rows
            if row[3] == "FAIL" and row[0] in production_jobs
        )
        assert sorted(result.results) == sorted(expected.items())

    def test_taskcount_query_all_schemes_agree(self, session):
        sql = """
            SELECT machine_events.platform, COUNT(*)
            FROM job_events, task_events, machine_events
            WHERE task_events.eventType = 'FAIL'
              AND job_events.jobID = task_events.jobID
              AND machine_events.machineID = task_events.machineID
            GROUP BY machine_events.platform
        """
        outcomes = []
        for scheme in ("hash", "random", "hybrid"):
            session.options.scheme = scheme
            outcomes.append(sorted(session.execute(sql).results))
        assert outcomes[0] == outcomes[1] == outcomes[2]
