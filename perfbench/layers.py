"""Where the traced run puts its spans: one wrapper per layer boundary.

Each entry names a public function of one of the program's modules and
the layer its time belongs to.  Counters ride on the same calls, so
ratios are measured where the work happens.
"""

from __future__ import annotations

import multiprocessing.connection

import repro.storm.executor as executor_module
from repro.checkpoint.store import CheckpointStore
from repro.core.columnar import ColumnBatch
from repro.engine.runner import (
    RETRACT_SUFFIX,
    AggBolt,
    JoinBolt,
    SinkBolt,
    SourceSpout,
)
from repro.obs.observer import Observer, WorkerObs
from repro.storm.executor import ResidentWorker, ResidentWorkerPool, Router
from repro.streaming.cluster import StreamingCluster
from repro.streaming.deltas import DeltaSink

from perfbench.source import ScheduledSource
from perfbench.trace import Tracer, perf_counter

OBSERVER_HOOKS = ("on_execute", "on_queue_depth", "root", "span",
                  "merge_worker_obs")
WORKER_OBS_HOOKS = ("record", "root", "span", "drain")


def _scan_rows(tracer, record, args, result):
    if result:
        tracer.new_batch(record)
        tracer.counters["engine.scan_rows"] += len(result)


def _agg_rows(tracer, record, args, result):
    tracer.counters["engine.agg_rows"] += len(args[3])


def _route_rows(tracer, record, args, result):
    tracer.counters["storm.route_rows"] += len(args[2])


def _join_rows(tracer, record, args, result):
    rows = len(args[3])
    tracer.counters["joins.rows_in"] += rows
    if args[2].endswith(RETRACT_SUFFIX):
        tracer.counters["joins.delete_rows"] += rows
    tracer.counters["joins.rows_out"] += len(result) if result else 0


def _source_batch(tracer, record, args, result):
    if result:
        tracer.new_batch(record)


def _inspect_worker(tracer, state):
    """Final join state of a worker, read before its spans are written."""
    tasks = []
    for value in state.owned.values():
        # staged workers own {component: {task: bolt}}, resident ones
        # {(component, task): bolt}
        tasks.extend(value.values() if isinstance(value, dict) else [value])
    for task in tasks:
        if isinstance(task, JoinBolt):
            tracer.counters["joins.work"] += task.work
            tracer.counters["joins.state_rows"] += task.state_size()


def _timed_send(tracer: Tracer):
    """Coordinator-side command send: time, count, and link the command
    to the current source batch."""
    def make(func):
        def send(self, message):
            pid = self.pid if isinstance(self, ResidentWorker) \
                else self._process.pid
            tracer.command_sent(pid)
            started = perf_counter()
            try:
                return func(self, message)
            finally:
                tracer.counters["storm.executor.send_s"] += \
                    perf_counter() - started
                tracer.counters["storm.executor.round_trips"] += 1
        return send
    return make


def _count_bytes(tracer: Tracer):
    def make(func):
        def send_bytes(self, buf):
            tracer.counters["storm.executor.pipe_bytes"] += len(buf)
            return func(self, buf)
        return send_bytes
    return make


def install(tracer: Tracer):
    """Wrap every layer boundary; undo with ``tracer.uninstall()``."""
    # engine: source scans, aggregation, the finite sink
    tracer.span(SourceSpout, "next_batch", "engine.scan", after=_scan_rows)
    tracer.span(AggBolt, "execute_batch", "engine.agg", after=_agg_rows)
    tracer.span(AggBolt, "finish", "engine.agg")
    tracer.span(SinkBolt, "execute_batch", "engine.sink")
    # storm: routing / hashing
    tracer.span(Router, "route", "storm.route", after=_route_rows)
    # core: columnar conversion
    tracer.span(ColumnBatch, "from_rows", "core.convert")
    tracer.span(ColumnBatch, "to_rows", "core.convert")
    # joins: the local join kernel
    tracer.span(JoinBolt, "execute_batch", "joins.kernel", after=_join_rows)
    # storm.executor: staged workers (finite 'processes')
    process_worker = executor_module._ProcessWorker
    tracer.timer(process_worker, "__init__", "storm.executor.fork_s")
    tracer.span(process_worker, "__init__", "storm.executor.fork")
    tracer.span(process_worker, "send", "storm.executor.send")
    tracer.hook(process_worker, "send", _timed_send(tracer))
    tracer.span(process_worker, "recv", "storm.executor.wait")
    tracer.timer(process_worker, "recv", "storm.executor.wait_s")
    # storm.executor: resident workers (streaming 'processes')
    tracer.timer(ResidentWorker, "__init__", "storm.executor.fork_s")
    tracer.hook(ResidentWorker, "send", _timed_send(tracer))
    tracer.timer(ResidentWorker, "recv", "storm.executor.wait_s")
    tracer.span(ResidentWorkerPool, "start", "storm.executor.fork")
    tracer.span(ResidentWorkerPool, "execute", "storm.executor")
    tracer.hook(multiprocessing.connection.Connection, "_send_bytes",
                _count_bytes(tracer))
    for name in ("worker_loop", "resident_worker_loop"):
        tracer.hook(executor_module, name,
                    lambda loop: tracer.worker_loop(loop, _inspect_worker))
    # streaming: the driver loop and its pump rounds
    tracer.span(StreamingCluster, "run", "streaming.driver")
    tracer.span(StreamingCluster, "step", "streaming.round")
    tracer.span(ScheduledSource, "poll", "bench.source", after=_source_batch)
    # checkpoint: commit, restore (respawn + state load)
    tracer.span(ResidentWorkerPool, "checkpoint", "checkpoint.commit")
    tracer.span(CheckpointStore, "commit", "checkpoint.commit")
    tracer.span(ResidentWorkerPool, "respawn", "checkpoint.restore")
    tracer.span(ResidentWorkerPool, "restore", "checkpoint.restore")
    # serving: delta fan-out to the subscriber rings
    tracer.span(DeltaSink, "execute_batch", "serving.fanout")
    # obs: the observer's recording hooks, coordinator and worker side
    for hook in OBSERVER_HOOKS:
        tracer.span(Observer, hook, "obs")
    for hook in WORKER_OBS_HOOKS:
        tracer.span(WorkerObs, hook, "obs")
