"""Unit tests for the execution backends (storm/executor.py).

Covers the scheduling machinery (topological levels, task ownership),
the error surface (unknown backends, unsupported knob combinations,
worker failures), pickle-safety of operators shipped across process
boundaries, and the per-task micro-batch metrics that give the parallel
backends' load-balance tests their signal.
"""

import multiprocessing
import os
import pickle
import signal

import pytest

from repro.core.expressions import col
from repro.core.options import ExecutionOptions
from repro.core.schema import Schema
from repro.engine.operators import Projection, Selection
from repro.engine.runner import SinkBolt
from repro.storm import (
    Bolt,
    ExecutorError,
    ListSpout,
    LocalCluster,
    TopologyBuilder,
)
from repro.storm.executor import (
    EXECUTOR_NAMES,
    ProcessExecutor,
    Router,
    WorkerDied,
    assign_tasks,
    default_parallelism,
    topological_levels,
)

PARALLEL = [name for name in EXECUTOR_NAMES if name != "inline"]


class DoublerBolt(Bolt):
    def execute(self, source, stream, values):
        return [("default", tuple(v * 2 for v in values))]


class FailingBolt(Bolt):
    def execute(self, source, stream, values):
        raise RuntimeError("boom in worker")


class SelfKillingBolt(Bolt):
    """Task 1 SIGKILLs its worker process on its first tuple (only ever
    run under the processes backend)."""

    def prepare(self, task_index, parallelism):
        self.task_index = task_index

    def execute(self, source, stream, values):
        if self.task_index == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return [("default", values)]


def diamond_topology(rows=None, bolt_factory=None):
    """spout -> (left, right) -> join-ish sink bolt collecting rows."""
    rows = rows if rows is not None else [(i,) for i in range(20)]
    bolt_factory = bolt_factory or (lambda i, p: DoublerBolt())
    builder = TopologyBuilder()
    builder.set_spout("spout", lambda i, p: ListSpout(rows), parallelism=2)
    builder.set_bolt("left", bolt_factory, parallelism=2).shuffle_grouping("spout")
    builder.set_bolt("right", bolt_factory, parallelism=2).shuffle_grouping("spout")
    sink = SinkBolt()
    declarer = builder.set_bolt("sink", lambda i, p: sink)
    declarer.global_grouping("left")
    declarer.global_grouping("right")
    return builder.build(), sink


class TestScheduling:
    def test_topological_levels_of_a_diamond(self):
        topology, _sink = diamond_topology()
        assert topological_levels(topology) == [
            ["spout"], ["left", "right"], ["sink"]
        ]

    def test_every_edge_goes_to_a_strictly_later_level(self):
        topology, _sink = diamond_topology()
        levels = topological_levels(topology)
        depth = {name: i for i, level in enumerate(levels) for name in level}
        for edge in topology.edges:
            assert depth[edge.target] > depth[edge.source]

    def test_assignment_is_disjoint_and_balanced(self):
        topology, _sink = diamond_topology()
        assignment = assign_tasks(topology, 3)
        # every task owned exactly once
        assert set(assignment) == {
            (name, t)
            for name, spec in topology.components.items()
            for t in range(spec.parallelism)
        }
        loads = [0, 0, 0]
        for owner in assignment.values():
            loads[owner] += 1
        assert max(loads) - min(loads) <= 1  # global round-robin

    def test_worker_count_clamped_to_task_count(self):
        topology, _sink = diamond_topology()
        executor = ProcessExecutor(LocalCluster(topology), parallelism=64)
        assert executor.n_workers == 7  # 2 + 2 + 2 + 1 tasks

    def test_default_parallelism_is_positive(self):
        assert default_parallelism() >= 1


class TestErrors:
    def test_unknown_executor_name(self):
        topology, _sink = diamond_topology()
        cluster = LocalCluster(topology)
        with pytest.raises(ExecutorError, match="unknown executor"):
            cluster.run(options=ExecutionOptions(
                executor="goroutines"))

    def test_threads_executor_is_rejected_naming_both_executors(self):
        from repro.engine import run_plan
        from repro.sql.repl import SquallShell
        from repro.streaming import stream_plan
        from tests.batching_plans import plan_join_only

        assert EXECUTOR_NAMES == ("inline", "processes")
        with pytest.raises(ExecutorError) as batch:
            run_plan(plan_join_only(), options=ExecutionOptions(
                executor="threads"))
        with pytest.raises(ExecutorError) as streaming:
            stream_plan(plan_join_only(), options=ExecutionOptions(
                executor="threads"))
        shell = SquallShell()
        repl = shell.handle_line("\\set executor threads")
        assert shell.execution.executor is None
        for message in (str(batch.value), str(streaming.value), repl):
            assert "'threads'" in message or "must be" in message
            assert "inline" in message and "processes" in message

    def test_zero_parallelism_rejected(self):
        topology, _sink = diamond_topology()
        with pytest.raises(ValueError, match="parallelism"):
            LocalCluster(topology).run(options=ExecutionOptions(
                executor="processes", parallelism=0))

    def test_max_tuples_needs_inline(self):
        topology, _sink = diamond_topology()
        with pytest.raises(ExecutorError, match="max_tuples"):
            LocalCluster(topology).run(max_tuples=5, options=ExecutionOptions(
                executor="processes"))

    def test_dead_worker_raises_executor_error_naming_it(self):
        builder = TopologyBuilder()
        builder.set_spout("spout", lambda i, p: ListSpout(
            [(i,) for i in range(20)]))
        builder.set_bolt("bolt", lambda i, p: SelfKillingBolt(),
                         parallelism=2).shuffle_grouping("spout")
        builder.set_bolt("sink", lambda i, p: SinkBolt()).global_grouping(
            "bolt")
        topology = builder.build()
        doomed = assign_tasks(topology, 2)[("bolt", 1)]
        with pytest.raises(ExecutorError,
                           match=rf"worker\(s\) \[{doomed}\] died") as err:
            LocalCluster(topology).run(options=ExecutionOptions(
                batch_size=4, executor="processes", parallelism=2))
        assert isinstance(err.value, WorkerDied)
        assert err.value.worker_ids == [doomed]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("executor", PARALLEL)
    def test_worker_failure_surfaces_with_traceback(self, executor):
        topology, _sink = diamond_topology(
            bolt_factory=lambda i, p: FailingBolt())
        cluster = LocalCluster(topology)
        with pytest.raises(ExecutorError, match="boom in worker"):
            cluster.run(options=ExecutionOptions(
                batch_size=4, executor=executor, parallelism=2))


class TestParallelExecution:
    @pytest.mark.parametrize("executor", PARALLEL)
    def test_matches_inline_results(self, executor):
        rows = [(i,) for i in range(50)]
        inline_topology, inline_sink = diamond_topology(rows)
        LocalCluster(inline_topology).run(options=ExecutionOptions(
            batch_size=8))

        topology, _sink = diamond_topology(rows)
        cluster = LocalCluster(topology)
        cluster.run(options=ExecutionOptions(
            batch_size=8, executor=executor, parallelism=3))
        # read the sink's post-run store from the cluster: under the
        # processes backend the pre-fork sink object is never mutated
        store = cluster.task("sink", 0).store
        assert sorted(store) == sorted(inline_sink.store)
        assert len(store) == 2 * len(rows)  # left + right each double all

    @pytest.mark.parametrize("executor", PARALLEL)
    def test_single_worker_degenerate_case(self, executor):
        rows = [(i,) for i in range(10)]
        topology, _sink = diamond_topology(rows)
        cluster = LocalCluster(topology)
        cluster.run(options=ExecutionOptions(
            batch_size=4, executor=executor, parallelism=1))
        assert len(cluster.task("sink", 0).store) == 2 * len(rows)

    @pytest.mark.parametrize("executor", PARALLEL)
    def test_runs_are_deterministic(self, executor):
        stores = []
        metrics = []
        for _run in range(2):
            topology, _sink = diamond_topology()
            cluster = LocalCluster(topology)
            result = cluster.run(options=ExecutionOptions(
                batch_size=4, executor=executor, parallelism=3))
            stores.append(list(cluster.task("sink", 0).store))
            metrics.append((result.received, result.emitted, result.batches))
        assert stores[0] == stores[1]  # same order, not just same multiset
        assert metrics[0] == metrics[1]


class TestBatchMetrics:
    """The satellite fix: spout tasks get per-task batch counts, so the
    parallel backends' load-balance checks have a per-task activity
    signal (spouts have no ``received`` counters at all)."""

    def test_inline_records_spout_batches_per_task(self):
        topology, _sink = diamond_topology(rows=[(i,) for i in range(40)])
        cluster = LocalCluster(topology)
        metrics = cluster.run(options=ExecutionOptions(batch_size=8))
        counts = metrics.batch_counts("spout")
        assert len(counts) == 2
        # 40 rows striped over 2 tasks = 20 rows/task = 3 pulls of 8 each
        assert counts == [3, 3]

    def test_inline_records_bolt_batches(self):
        topology, _sink = diamond_topology()
        metrics = LocalCluster(topology).run(options=ExecutionOptions(
            batch_size=8))
        assert sum(metrics.batch_counts("sink")) > 0

    @pytest.mark.parametrize("executor", PARALLEL)
    def test_parallel_backends_balance_spout_batches(self, executor):
        topology, _sink = diamond_topology(rows=[(i,) for i in range(64)])
        cluster = LocalCluster(topology)
        metrics = cluster.run(options=ExecutionOptions(
            batch_size=8, executor=executor, parallelism=2))
        counts = metrics.batch_counts("spout")
        # both striped spout tasks pulled the same number of micro-batches
        assert counts == [4, 4]
        assert sum(metrics.batch_counts("left")) > 0

    def test_unknown_component_has_no_batch_counts(self):
        topology, _sink = diamond_topology()
        metrics = LocalCluster(topology).run()
        assert metrics.batch_counts("nope") == []


class TestPickleSafety:
    """Operators cross process boundaries when the processes backend
    ships final task state home; compiled closures must be dropped and
    rebuilt on arrival."""

    def test_selection_roundtrip_recompiles_and_keeps_counters(self):
        schema = Schema.of("x", "y")
        selection = Selection(col("x").lt(10), schema)
        assert selection.apply((3, 0)) == (3, 0)
        assert selection.apply((30, 0)) is None
        clone = pickle.loads(pickle.dumps(selection))
        assert clone.seen == 2 and clone.passed == 1
        assert clone.apply((5, 0)) == (5, 0)  # the predicate still works
        assert clone.selectivity == pytest.approx(2 / 3)

    def test_projection_roundtrip_recompiles(self):
        schema = Schema.of("x", "y")
        projection = Projection([col("y"), col("x")], schema)
        clone = pickle.loads(pickle.dumps(projection))
        assert clone.apply((1, 2)) == (2, 1)
        assert clone.apply_batch([(1, 2), (3, 4)]) == [(2, 1), (4, 3)]

    def test_source_spout_ships_counters_not_the_dataset(self):
        """A shipped-home spout must not drag the input relation back
        over the pipe -- only its measurement state matters."""
        from repro.core.schema import Relation
        from repro.engine.component import SourceComponent
        from repro.engine.runner import SourceSpout

        rows = [(i, i) for i in range(1000)]
        component = SourceComponent(
            "R", Relation("R", Schema.of("x", "y"), rows),
            predicate=col("x").lt(500))
        spout = SourceSpout(component)
        spout.open(0, 1)
        emitted = spout.next_batch(10_000)
        assert len(emitted) == 500 and spout.read == 1000
        clone = pickle.loads(pickle.dumps(spout))
        # counters survive, dataset does not
        assert clone.read == 1000
        assert clone.selection.seen == 1000 and clone.selection.passed == 500
        assert clone.rows == [] and clone.component.relation.rows == []
        # the original spout is untouched
        assert spout.rows is rows and component.relation.rows is rows


class TestAdaptiveSchemeRefusal:
    """Adaptive (stream-observing) partitioners cannot be task-localized:
    worker copies would diverge and silently lose matches, so the
    parallel backends must refuse them up front."""

    def build_adaptive_cluster(self):
        from repro.core.predicates import EquiCondition, JoinSpec, RelationInfo
        from repro.core.schema import Relation, Schema
        from repro.engine.component import JoinComponent, PhysicalPlan, SourceComponent
        from repro.engine.runner import run_plan
        from repro.partitioning.adaptive import AdaptiveOneBucket

        rows = [(i, i % 5) for i in range(40)]
        R = Relation("R", Schema.of("x", "y"), rows)
        S = Relation("S", Schema.of("y", "z"), rows)
        spec = JoinSpec(
            [RelationInfo("R", R.schema, 40), RelationInfo("S", S.schema, 40)],
            [EquiCondition(("R", "y"), ("S", "y"))],
        )
        plan = PhysicalPlan(
            sources=[SourceComponent("R", R), SourceComponent("S", S)],
            joins=[JoinComponent(
                "J", spec, machines=4,
                scheme=AdaptiveOneBucket("R", "S", machines=4,
                                         check_interval=8))],
        )
        return plan, run_plan

    @pytest.mark.parametrize("executor", PARALLEL)
    def test_parallel_backends_refuse_adaptive_partitioners(self, executor):
        plan, run_plan = self.build_adaptive_cluster()
        with pytest.raises(ExecutorError, match="adapt"):
            run_plan(plan, options=ExecutionOptions(
                batch_size=8, executor=executor, parallelism=2))

    @pytest.mark.parametrize("executor", PARALLEL)
    def test_refusal_names_partitioner_and_inline_escape_hatch(self, executor):
        """The dedicated error must name the offending partitioner (not the
        grouping wrapper) and point the user at executor='inline'."""
        plan, run_plan = self.build_adaptive_cluster()
        with pytest.raises(ExecutorError) as excinfo:
            run_plan(plan, options=ExecutionOptions(
                batch_size=8, executor=executor, parallelism=2))
        message = str(excinfo.value)
        assert "AdaptiveOneBucket" in message
        assert "executor='inline'" in message
        assert executor in message  # names the backend that refused
        assert "HypercubeGrouping" not in message  # culprit, not the wrapper

    def test_inline_still_runs_adaptive_partitioners(self):
        plan, run_plan = self.build_adaptive_cluster()
        result = run_plan(plan, options=ExecutionOptions(batch_size=8))
        assert result.results


class TestRouter:
    def test_clone_preserves_sharing_across_a_joins_input_edges(self):
        """A partitioner driving several input edges of one join must stay
        ONE object inside each worker's routing table, or the edges'
        routing decisions drift apart (stateful random dimensions)."""
        from repro.core.predicates import EquiCondition, JoinSpec, RelationInfo
        from repro.core.schema import Schema
        from repro.partitioning.hash_hypercube import HashHypercube
        from repro.storm.groupings import HypercubeGrouping

        spec = JoinSpec(
            [RelationInfo("R", Schema.of("x", "y"), 10),
             RelationInfo("S", Schema.of("y", "z"), 10)],
            [EquiCondition(("R", "y"), ("S", "y"))],
        )
        partitioner = HashHypercube.build(spec, 4, seed=1)
        builder = TopologyBuilder()
        builder.set_spout("R", lambda i, p: ListSpout([], stream="R"))
        builder.set_spout("S", lambda i, p: ListSpout([], stream="S"))
        declarer = builder.set_bolt("J", lambda i, p: DoublerBolt(),
                                    parallelism=4)
        declarer.custom_grouping("R", HypercubeGrouping(partitioner, "R"))
        declarer.custom_grouping("S", HypercubeGrouping(partitioner, "S"))
        router = Router(builder.build(), clone=True)
        cloned = [grouping for edges in router._edges.values()
                  for _edge, grouping in edges
                  if isinstance(grouping, HypercubeGrouping)]
        assert len(cloned) == 2
        assert cloned[0].partitioner is cloned[1].partitioner
        assert cloned[0].partitioner is not partitioner

    def test_task_local_copy_does_not_share_shuffle_state(self):
        topology, _sink = diamond_topology()
        original = Router(topology)
        clone = Router(topology, clone=True)
        emissions = [("default", (i,)) for i in range(4)]
        first = clone.route("spout", emissions)
        # advancing the clone's shuffle counters leaves the original alone
        assert original.route("spout", emissions) == first

    def test_sink_bolt_grows_its_own_store_by_default(self):
        sink = SinkBolt()
        sink.execute_batch("J", "J", [(1,), (2,)])
        assert sink.store == [(1,), (2,)]
