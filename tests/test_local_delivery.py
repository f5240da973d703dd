"""Worker-local delivery in the staged ``processes`` executor.

A staged worker keeps the routed batches whose target task it owns and
returns only the others to the coordinator.  The contract pinned here:
local delivery changes where a batch waits, never the order in which a
task receives it.  The reference is the relayed path, in which every
batch crosses the coordinator; :class:`RelayingState` forces it by
owning no routing targets.
"""

import pytest

import repro.storm.executor as executor_module
from repro.core.options import ExecutionOptions
from repro.engine.runner import run_plan
from repro.obs.observer import Observer
from repro.storm import Bolt, ExecutorError, ListSpout, LocalCluster, TopologyBuilder
from repro.storm.executor import WorkerState

from tests.batching_plans import plan_snapshot_agg


class RecordingBolt(Bolt):
    """Forwards every batch and records ``(source, stream, first row)``."""

    def __init__(self):
        self.seen = []

    def execute_batch(self, source, stream, rows):
        self.seen.append((source, stream, tuple(rows[0])))
        return [("default", tuple(row)) for row in rows]


def recording_topology(rows):
    """Three levels with fan-in from two waves: ``b`` hears from the
    spout (wave 0) and from ``a`` (wave 1), so a task's inbox merges
    chunks of several waves and workers."""
    builder = TopologyBuilder()
    builder.set_spout("spout", lambda i, p: ListSpout(rows), parallelism=3)
    builder.set_bolt("a", lambda i, p: RecordingBolt(),
                     parallelism=3).fields_grouping("spout", [0])
    declarer = builder.set_bolt("b", lambda i, p: RecordingBolt(),
                                parallelism=2)
    declarer.shuffle_grouping("a")
    declarer.fields_grouping("spout", [1])
    builder.set_bolt("sink", lambda i, p: RecordingBolt()).global_grouping("b")
    return builder.build()


class RelayingState(WorkerState):
    """A worker that delivers nothing to itself: every batch is relayed."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.local_keys = set()


def run_recorded(monkeypatch, parallelism, batch_size, relay):
    if relay:
        monkeypatch.setattr(executor_module, "WorkerState", RelayingState)
    rows = [(i % 7, i % 5, i) for i in range(120)]
    cluster = LocalCluster(recording_topology(rows))
    cluster.run(options=ExecutionOptions(
        batch_size=batch_size, executor="processes",
        parallelism=parallelism))
    monkeypatch.undo()
    return {
        (name, task_index): list(task.seen)
        for name in ("a", "b", "sink")
        for task_index, task in enumerate(cluster.tasks(name))
    }


class TestDeliveryOrder:
    @pytest.mark.parametrize("parallelism", [2, 3])
    @pytest.mark.parametrize("batch_size", [1, 64])
    def test_every_task_sees_the_relayed_order(self, monkeypatch,
                                               parallelism, batch_size):
        local = run_recorded(monkeypatch, parallelism, batch_size,
                             relay=False)
        relayed = run_recorded(monkeypatch, parallelism, batch_size,
                               relay=True)
        assert local == relayed
        assert sum(len(seen) for seen in local.values()) > 0

    def test_run_wave_returns_no_item_for_an_owned_task(self, monkeypatch):
        run_wave = WorkerState.run_wave

        def checking_run_wave(self, wave, components, delivered):
            remote, held, deltas = run_wave(self, wave, components,
                                            delivered)
            owned = set(remote) & self.local_keys
            if owned:
                raise AssertionError(f"owned tasks' items returned: {owned}")
            return remote, held, deltas

        # patched before the fork, so it runs inside every worker; a
        # failed check comes back as the worker's error reply
        monkeypatch.setattr(WorkerState, "run_wave", checking_run_wave)
        result = run_plan(plan_snapshot_agg(),
                          options=ExecutionOptions(executor="processes",
                                                   parallelism=2,
                                                   batch_size=16))
        assert result.results

    def test_some_batches_stay_local(self):
        """In-process: one worker's wave keeps a batch for its own task."""
        rows = [(i % 7, i % 5, i) for i in range(30)]
        topology = recording_topology(rows)
        cluster = LocalCluster(topology)
        assignment = executor_module.assign_tasks(topology, 2)
        state = WorkerState(0, topology, cluster._tasks, assignment, 8)
        for task_index, spout in state.owned["spout"].items():
            spout.open(task_index, 3)
        remote, held, _deltas = state.run_wave(0, ["spout"], {})
        assert held and set(held) <= state.local_keys
        assert sum(held.values()) == sum(
            len(entries) for chunks in state.held.values()
            for _wave, _worker, entries in chunks)
        assert remote and not set(remote) & state.local_keys


class TestCoordinatorAccounting:
    def test_staged_queue_depth_samples_match_the_relayed_path(
            self, monkeypatch):
        def depths(relay):
            calls = []
            record = Observer.on_queue_depth

            def spy(self, queue_name, depth):
                calls.append((queue_name, depth))
                return record(self, queue_name, depth)

            monkeypatch.setattr(Observer, "on_queue_depth", spy)
            if relay:
                monkeypatch.setattr(executor_module, "WorkerState",
                                    RelayingState)
            run_plan(plan_snapshot_agg(),
                     options=ExecutionOptions(executor="processes",
                                              parallelism=2, batch_size=16,
                                              observe="metrics"))
            monkeypatch.undo()
            return calls

        local = depths(relay=False)
        assert local and all(name == "staged" for name, _depth in local)
        assert local == depths(relay=True)

    def test_leftover_worker_held_item_trips_the_final_wave_check(
            self, monkeypatch):
        run_wave = WorkerState.run_wave

        def leaky_run_wave(self, wave, components, delivered):
            remote, held, deltas = run_wave(self, wave, components,
                                            delivered)
            # a batch for a task that never gets another wave
            key = ("spout", 0)
            self.held.setdefault(key, []).append((wave, self.worker_id, []))
            return remote, {**held, key: 1}, deltas

        monkeypatch.setattr(WorkerState, "run_wave", leaky_run_wave)
        rows = [(i % 7, i % 5, i) for i in range(20)]
        cluster = LocalCluster(recording_topology(rows))
        with pytest.raises(ExecutorError, match="undelivered batches"):
            cluster.run(options=ExecutionOptions(
                batch_size=4, executor="processes", parallelism=2))
