"""Retraction-path coverage: ``:retract`` streams end to end.

A failure that replays tuples is compensated by emitting matching
retractions: ``JoinBolt`` turns an upstream ``R:retract`` into deletes on
the local join and propagates the retracted output rows downstream, the
aggregation consumes them with sign -1, and ``SinkBolt`` removes them
from the collected results.  After compensation, the final results must
be indistinguishable from a run that never saw the failure.
"""

from collections import Counter

import pytest

from repro.core.options import ExecutionOptions
from repro.core.predicates import EquiCondition, JoinSpec, RelationInfo
from repro.core.schema import Schema
from repro.engine.component import AggComponent, JoinComponent
from repro.engine.operators import count, total
from repro.engine.runner import RETRACT_SUFFIX, AggBolt, JoinBolt, SinkBolt
from repro.joins.dbtoaster import DBToasterJoin
from repro.joins.traditional import TraditionalJoin
from repro.partitioning.hash_hypercube import HashHypercube
from repro.storm import LocalCluster, Spout, TopologyBuilder
from repro.storm.groupings import HypercubeGrouping
from tests.conftest import interleaved_stream, make_rst_data

LOCAL_JOINS = {"dbtoaster": DBToasterJoin, "traditional": TraditionalJoin}


def rst_spec():
    return JoinSpec(
        [
            RelationInfo("R", Schema.of("x", "y"), 1000),
            RelationInfo("S", Schema.of("y", "z"), 1000),
            RelationInfo("T", Schema.of("z", "t"), 1000),
        ],
        [
            EquiCondition(("R", "y"), ("S", "y")),
            EquiCondition(("S", "z"), ("T", "z")),
        ],
    )


class ScriptSpout(Spout):
    """Replays a fixed script of (stream, values) emissions."""

    def __init__(self, emissions):
        self._emissions = list(emissions)
        self._position = 0

    def open(self, task_index, parallelism):
        if parallelism != 1:
            raise ValueError("ScriptSpout is single-task")

    def next_tuple(self):
        if self._position >= len(self._emissions):
            return None
        emission = self._emissions[self._position]
        self._position += 1
        return emission


class TestSinkBoltRetraction:
    def test_retract_stream_removes_one_instance(self):
        store = []
        sink = SinkBolt(store)
        sink.execute("J", "J", (1, 2))
        sink.execute("J", "J", (1, 2))
        sink.execute("J", "J" + RETRACT_SUFFIX, (1, 2))
        assert store == [(1, 2)]

    def test_retract_of_absent_row_is_ignored(self):
        store = []
        sink = SinkBolt(store)
        assert sink.execute("J", "J" + RETRACT_SUFFIX, (9, 9)) == []
        assert store == []

    def test_batched_retracts_match_per_tuple(self):
        rows = [(i,) for i in range(6)]
        per_tuple_store, batch_store = [], []
        per_tuple, batched = SinkBolt(per_tuple_store), SinkBolt(batch_store)
        for sink in (per_tuple, batched):
            sink.execute_batch("J", "J", rows + rows)
        for row in rows[:3] + [(99,)]:
            per_tuple.execute("J", "J" + RETRACT_SUFFIX, row)
        batched.execute_batch("J", "J" + RETRACT_SUFFIX, rows[:3] + [(99,)])
        assert per_tuple_store == batch_store
        assert Counter(batch_store) == Counter(rows + rows[3:])


@pytest.mark.parametrize("local_join", sorted(LOCAL_JOINS))
class TestJoinBoltRetraction:
    def make_bolt(self, local_join, output_positions=None):
        spec = rst_spec()
        component = JoinComponent("J", spec, machines=1,
                                  output_positions=output_positions)
        return JoinBolt(component, lambda: LOCAL_JOINS[local_join](spec))

    def test_delete_propagates_as_retract_stream(self, local_join):
        bolt = self.make_bolt(local_join)
        bolt.execute("R", "R", (1, 2))
        bolt.execute("S", "S", (2, 3))
        inserted = bolt.execute("T", "T", (3, 4))
        assert [stream for stream, _row in inserted] == ["J"]
        retracted = bolt.execute("R", "R" + RETRACT_SUFFIX, (1, 2))
        assert retracted == [("J" + RETRACT_SUFFIX, (1, 2, 2, 3, 3, 4))]

    def test_delete_respects_output_scheme(self, local_join):
        bolt = self.make_bolt(local_join, output_positions=[0, 5])
        bolt.execute("R", "R", (1, 2))
        bolt.execute("S", "S", (2, 3))
        bolt.execute("T", "T", (3, 4))
        retracted = bolt.execute("T", "T" + RETRACT_SUFFIX, (3, 4))
        assert retracted == [("J" + RETRACT_SUFFIX, (1, 4))]

    def test_batched_retraction_matches_per_tuple(self, local_join):
        data = make_rst_data(seed=21, n=15)
        stream = interleaved_stream(data, seed=21)
        per_tuple = self.make_bolt(local_join)
        batched = self.make_bolt(local_join)
        for rel_name, row in stream:
            per_tuple.execute(rel_name, rel_name, row)
        for rel_name in ("R", "S", "T"):
            batched.execute_batch(rel_name, rel_name, data[rel_name])
        doomed = data["S"][:4]
        per_tuple_out = []
        for row in doomed:
            per_tuple_out.extend(
                per_tuple.execute("S", "S" + RETRACT_SUFFIX, row))
        batch_out = batched.execute_batch("S", "S" + RETRACT_SUFFIX, doomed)
        assert Counter(batch_out) == Counter(per_tuple_out)
        assert all(stream == "J" + RETRACT_SUFFIX for stream, _r in batch_out)
        assert per_tuple.state_size() == batched.state_size()


def build_rst_topology(spec, emissions, local_join, machines=4,
                       aggregate=False):
    """ScriptSpout -> hypercube-partitioned joiners -> [agg] -> sink."""
    builder = TopologyBuilder()
    partitioner = HashHypercube.build(spec, machines, seed=3)
    builder.set_spout("feed", lambda i, p: ScriptSpout(emissions))
    join = JoinComponent("J", spec, machines=machines)
    declarer = builder.set_bolt(
        "J", lambda i, p: JoinBolt(join, lambda: LOCAL_JOINS[local_join](spec)),
        parallelism=machines)
    for rel_name in spec.relation_names:
        declarer.custom_grouping(
            "feed", HypercubeGrouping(partitioner, rel_name),
            streams=[rel_name, rel_name + RETRACT_SUFFIX])
    last = "J"
    if aggregate:
        agg = AggComponent("agg", group_positions=[1],
                           aggregates=[count(), total(5)])
        builder.set_bolt("agg", lambda i, p: AggBolt(agg)).global_grouping(
            "J", streams=["J", "J" + RETRACT_SUFFIX])
        last = "agg"
    results = []
    builder.set_bolt("sink", lambda i, p: SinkBolt(results)).global_grouping(
        last, streams=[last, last + RETRACT_SUFFIX])
    return builder.build(), results


def faulty_script(data, seed):
    """The clean stream plus replayed tuples and their compensations.

    Mimics recovery after a partial failure: a handful of tuples of every
    relation are delivered twice mid-stream, and once the failure is
    detected the duplicates are retracted.
    """
    clean = [(rel, row) for rel, row in interleaved_stream(data, seed=seed)]
    replayed = [(rel, row) for rel, row in clean[::9]]
    script = list(clean)
    script[20:20] = replayed  # duplicates appear mid-stream
    script.extend((rel + RETRACT_SUFFIX, row) for rel, row in replayed)
    return [(stream, row) for stream, row in script]


@pytest.mark.parametrize("local_join", sorted(LOCAL_JOINS))
@pytest.mark.parametrize("batch_size", [1, 8])
@pytest.mark.parametrize("aggregate", [False, True])
def test_compensated_failure_matches_clean_run(local_join, batch_size,
                                               aggregate):
    spec = rst_spec()
    data = make_rst_data(seed=33, n=24)
    clean_script = list(interleaved_stream(data, seed=33))
    clean_topology, clean_results = build_rst_topology(
        spec, clean_script, local_join, aggregate=aggregate)
    LocalCluster(clean_topology).run(options=ExecutionOptions(
        batch_size=batch_size))

    faulty_topology, faulty_results = build_rst_topology(
        spec, faulty_script(data, seed=33), local_join, aggregate=aggregate)
    LocalCluster(faulty_topology).run(options=ExecutionOptions(
        batch_size=batch_size))

    assert Counter(faulty_results) == Counter(clean_results)
    assert clean_results  # the comparison is not vacuous
