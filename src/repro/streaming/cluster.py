"""StreamingCluster: a resident topology pumping unbounded push sources.

Where :class:`~repro.storm.cluster.LocalCluster` *drains* a finite
topology and stops, the streaming cluster keeps the topology alive:
sources push micro-batches in whenever they have data, every batch runs
through the exact same ``Grouping.targets_batch`` / ``execute_batch``
dataplane (no per-tuple regression), watermark punctuations drive window
expiration between batches, and the :class:`~repro.streaming.deltas.\
DeltaSink` at the bottom feeds live ``+row/-row`` deltas to subscribers.

Two executors:

- ``inline`` -- a single-threaded pump loop over the resident
  :class:`LocalCluster`.  Each round polls every source for one
  micro-batch, drives it to quiescence depth-first (identical scheduling
  to ``LocalCluster.run``, so at equal batch size the delivery order --
  and hence every per-task counter -- matches the finite engine), then
  advances the merged watermark at the quiescent point.
- ``processes`` -- **resident forked worker processes** holding the
  topology's join/aggregation tasks, exchanging serialized micro-batches
  with the coordinator over long-lived pipes: the fault-tolerant
  shared-nothing deployment of the paper's Storm runtime.  The
  coordinator keeps everything a crash must not lose -- source pumps,
  the routing table, the delta sinks with their subscriptions, the
  change log and the checkpoint store -- and supervises the workers:
  operator state is checkpointed incrementally every
  ``checkpoint_interval`` rounds (hash-diffed so unchanged partitions
  persist zero bytes; see :mod:`repro.checkpoint`), dead workers are
  detected, respawned, restored from the latest snapshot, and the
  post-checkpoint delta stream is replayed exactly-once, so the final
  snapshot is byte-identical to a crash-free (and to a batch) run.
  The full walkthrough lives in ``docs/FAULT_TOLERANCE.md``.

Both executors produce the same final snapshot as ``run_plan`` on the
same data; the inline executor at equal ``batch_size`` reproduces the
finite engine's interleaving exactly.
"""

from __future__ import annotations

import math
import pickle
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.checkpoint import ChangeLog, CheckpointStore
from repro.checkpoint.log import DATA as _LOG_DATA
from repro.core.columnar import ColumnBatch, ColumnEmissions
from repro.core.options import ExecutionOptions
from repro.engine.operators import Projection, Selection
from repro.obs import Observer
from repro.storm.cluster import LocalCluster
from repro.storm.executor import (
    ExecutorError,
    ResidentWorkerPool,
    Router,
    WorkerDied,
    WorkItem,
    check_executor,
    ensure_task_local_routing,
    execute_hop,
)
from repro.storm.failures import FaultInjector
from repro.storm.metrics import CheckpointMetrics, StreamMetrics
from repro.storm.topology import Topology
from repro.streaming.deltas import DeltaSink, Subscription
from repro.streaming.sources import Emission, PushSource
from repro.streaming.watermarks import WatermarkTracker

#: checkpoint cadence (pump rounds) when none is configured
DEFAULT_CHECKPOINT_INTERVAL = 8


class SourcePump:
    """Feeds one push source into the dataplane.

    Applies the source component's co-located selection/projection (the
    same operators the batch :class:`~repro.engine.runner.SourceSpout`
    runs in-task), so a replayed relation enters the topology exactly as
    it would in a finite run.
    """

    def __init__(self, name: str, source: PushSource,
                 selection: Optional[Selection] = None,
                 projection: Optional[Projection] = None,
                 columnar: bool = False):
        self.name = name
        self.source = source
        self.selection = selection
        self.projection = projection
        #: coalesce single-stream polls into a ColumnBatch so downstream
        #: bolts take their vectorized paths (opt-in; see stream_plan)
        self.columnar = columnar
        self.emitted = 0
        #: raw rows the last poll pulled, pre-selection: a fully filtered
        #: batch still *advanced the source* and counts as progress
        self.last_poll_raw = 0

    def poll(self, max_rows: int):
        emissions = self.source.poll(max_rows)
        self.last_poll_raw = len(emissions)
        if not emissions:
            return emissions
        if self.selection is not None:
            apply = self.selection.apply
            emissions = [(stream, row) for stream, row in emissions
                         if apply(row) is not None]
        if self.projection is not None:
            apply = self.projection.apply
            emissions = [(stream, apply(row)) for stream, row in emissions]
        self.emitted += len(emissions)
        if self.columnar and emissions:
            stream = emissions[0][0]
            if all(s == stream for s, _row in emissions):
                return ColumnEmissions(
                    stream, ColumnBatch.from_rows([r for _s, r in emissions]))
        return emissions

    def watermark(self) -> Optional[float]:
        return self.source.watermark()

    def exhausted(self) -> bool:
        return self.source.exhausted()


class StreamingCluster:
    """A continuously running topology over push sources.

    ``sources`` maps each spout component name to the
    :class:`PushSource` that stands in for it; emissions are attributed
    to task 0 of that component.  ``options`` carries the execution
    knobs, resolved here with ``ExecutionOptions.resolve(
    default_batch_size=64)`` (None = those defaults): ``batch_size``, ``executor``, ``columnar``,
    ``observe``, and for ``executor='processes'`` ``parallelism`` and
    ``checkpoint_interval``.  Use :meth:`subscribe` before running to
    observe deltas, :meth:`run` (or repeated :meth:`step`) to drive the
    query, and :meth:`snapshot` for the current result multiset.
    """

    def __init__(self, topology: Topology, sources: Dict[str, PushSource],
                 options: Optional[ExecutionOptions] = None,
                 source_operators: Optional[
                     Dict[str, Tuple[Optional[Selection],
                                     Optional[Projection]]]] = None,
                 clock: Callable[[], float] = time.monotonic,
                 idle_sleep: float = 0.0005,
                 checkpoint_dir: Optional[str] = None,
                 fault_injector: Optional[FaultInjector] = None,
                 max_recoveries: int = 5):
        options = (options or ExecutionOptions()).resolve(
            default_batch_size=64)
        batch_size, executor = options.batch_size, options.executor
        check_executor(executor)
        spout_names = sorted(
            name for name, spec in topology.components.items() if spec.is_spout
        )
        if sorted(sources) != spout_names:
            raise ValueError(
                f"sources {sorted(sources)} do not match the topology's "
                f"spout components {spout_names}"
            )
        if executor == "processes":
            # adaptive partitioners reshape with the observed stream; a
            # recovery replay would route the replayed rows through the
            # *post*-failure shape and land them on different partitions
            # than the original delivery -- refuse, as the staged backend does
            ensure_task_local_routing(topology, "processes")
        self.topology = topology
        self.batch_size = batch_size
        self.executor = executor
        self.idle_sleep = idle_sleep
        self.cluster = LocalCluster(topology)
        self.cluster.set_coalescing(batch_size > 1)
        self.metrics = self.cluster.metrics
        self.stats = StreamMetrics(clock=clock)
        #: one Observer per observed run, shared with the inner cluster so
        #: the inline inject() path times batches too; None = observe='off'
        self.observer: Optional[Observer] = None
        if options.observe != "off":
            self.cluster.set_observer(Observer(options.observe))
            self.observer = self.cluster.observer
            self.observer.registry.register_collector(self.stats.collect)
        self.columnar = options.columnar and batch_size > 1
        operators = source_operators or {}
        self._pumps: Dict[str, SourcePump] = {
            name: SourcePump(name, source, *operators.get(name, (None, None)),
                             columnar=self.columnar)
            for name, source in sources.items()
        }
        self._source_wm = WatermarkTracker()
        for name in self._pumps:
            self._source_wm.register(name)
        # punctuation is sound only when every source carries event time:
        # a timestamp-less source's rows can join against stored state and
        # resurrect old event times, so no promise can be made for it
        self._event_time = all(
            pump.source.has_event_time() for pump in self._pumps.values()
        )
        self._finished_sources: set = set()
        #: the pumps the current round has yet to poll; a round cut short
        #: by a worker death resumes after the pump whose batch the
        #: recovery replayed, so the sources interleave as without it
        self._round: Optional[Iterator[Tuple[str, SourcePump]]] = None
        self._final_watermarks: List[float] = []
        self._broadcast_wm: Optional[float] = None
        self._done = threading.Event()
        self._stop = threading.Event()
        self._started = False
        self._bolt_tasks: List[Tuple[str, int, object]] = [
            (name, task_index, task)
            for name in topology.topological_order()
            if not topology.components[name].is_spout
            for task_index, task in enumerate(self.cluster.tasks(name))
        ]
        self._sinks: List[DeltaSink] = [
            task for _n, _i, task in self._bolt_tasks
            if isinstance(task, DeltaSink)
        ]
        # -- processes executor: checkpointed resident workers ------------
        self.checkpoint_interval = (
            DEFAULT_CHECKPOINT_INTERVAL if options.checkpoint_interval is None
            else options.checkpoint_interval)
        self.max_recoveries = max_recoveries
        #: checkpoint/recovery accounting (always present; only the
        #: processes executor feeds it)
        self.checkpoints = CheckpointMetrics()
        if self.observer is not None:
            self.observer.registry.register_collector(self.checkpoints.collect)
        self._fault_injector = fault_injector
        self._pool: Optional[ResidentWorkerPool] = None
        self._pool_parallelism = options.parallelism
        self._store = CheckpointStore(directory=checkpoint_dir)
        self._log = ChangeLog()
        self._epoch = 0
        self._rounds_since_checkpoint = 0
        self._recoveries = 0
        if executor == "processes":
            # sinks stay in the coordinator: their subscriptions hold live
            # condition variables and must survive any worker crash
            self._coordinator_owned = {
                name for name, _i, task in self._bolt_tasks
                if isinstance(task, DeltaSink)
            }
            self._local_tasks: Dict[Tuple[str, int], object] = {
                (name, task_index): task
                for name, task_index, task in self._bolt_tasks
                if name in self._coordinator_owned
            }
            self._proc_router = Router(topology, clone=True)

    # -- public surface ----------------------------------------------------

    @property
    def done(self) -> bool:
        return self._done.is_set()

    @property
    def sink(self) -> DeltaSink:
        """The topology's delta sink (fan-out point of the serving layer)."""
        if not self._sinks:
            raise ValueError(
                "topology has no DeltaSink; build it with a streaming sink "
                "to subscribe to result deltas"
            )
        return self._sinks[0]

    def subscribe(self, **kwargs) -> Subscription:
        """Subscribe to the sink's delta feed.

        Keyword arguments (``max_buffer``, ``on_overflow``, ``tenant``,
        ``track_latency``, ``on_detach``) pass through to
        :meth:`~repro.streaming.deltas.DeltaSink.subscribe`."""
        return self.sink.subscribe(**kwargs)

    def snapshot(self) -> List[tuple]:
        """Current result multiset (sorted)."""
        if not self._sinks:
            raise ValueError("topology has no DeltaSink")
        return self._sinks[0].snapshot()

    def stats_snapshot(self) -> Dict[str, object]:
        """Live progress snapshot, with delta totals read off the sinks."""
        snapshot = self.stats.snapshot()
        snapshot["deltas"] = sum(sink.delta_count for sink in self._sinks)
        snapshot["checkpoints"] = self.checkpoints.snapshot()
        return snapshot

    def run(self):
        """Drive the query until every source is exhausted and the
        topology flushed."""
        self._started = True  # stop(wait=True) may rely on this driver
        while not self.done:
            if not self.step():
                time.sleep(self.idle_sleep)
        return self.metrics

    def stop(self, wait: bool = True, timeout: Optional[float] = 10.0):
        """Tear a resident query down without waiting for exhaustion.

        Sets the stop flag; the driver (the ``run()``/``step()`` loop)
        notices at its next round, stops polling the sources, flushes the
        topology -- so every subscription receives its final deltas and
        is closed -- and sets :attr:`done`.  ``wait=True`` blocks until
        that teardown completes (requires a live driver: the broker's
        per-topology driver thread, or a ``run()`` in progress).
        Idempotent; a no-op once done."""
        self._stop.set()
        if self.done:
            return
        if wait and self._started:
            self._done.wait(timeout)

    def advance(self) -> bool:
        """One scheduling quantum for delta iterators: one pump round,
        or a short idle sleep when the round made no progress."""
        if not self.step():
            time.sleep(self.idle_sleep)
        return self.done

    # -- the pump round ----------------------------------------------------

    def step(self) -> bool:
        """One pump round; returns whether any progress was made.

        Polls every live source for at most one micro-batch, drives each
        batch to quiescence, then -- at the quiescent point, where no
        data is in flight anywhere -- advances the merged watermark and
        finally flushes the topology once all sources are exhausted.
        Under ``processes`` source batches are logged before dispatch, a
        checkpoint commits every ``checkpoint_interval`` rounds, and a
        worker death (EOF on a pipe, the liveness sweep) abandons the
        round for the recovery protocol.
        """
        if self.done:
            return False
        processes = self.executor == "processes"
        if processes:
            self._ensure_pool()
        try:
            if processes:
                dead = self._pool.reap_dead()
                if dead:
                    raise WorkerDied(dead)
            if self._stop.is_set():
                # forced teardown: stop polling, flush so subscriptions
                # get their final deltas and close, and declare it done
                self._flush()
                return True
            progressed = False
            if self._round is None:
                self._round = iter(self._pumps.items())
            for name, pump in self._round:
                if name in self._finished_sources:
                    continue
                emissions = pump.poll(self.batch_size)
                if pump.last_poll_raw:
                    progressed = True  # even a fully filtered batch advanced
                if pump.exhausted():
                    # also reached by sources that were empty to begin
                    # with: they must still mark themselves done, or the
                    # merged watermark stays undefined for the whole run.
                    # The final watermark is recorded first -- it covers
                    # the last batch.
                    progressed = True
                    watermark = pump.watermark()
                    if watermark is not None and watermark != math.inf:
                        self._source_wm.update(name, watermark)
                        self._final_watermarks.append(watermark)
                    self._finished_sources.add(name)
                    self._source_wm.mark_done(name)
                else:
                    watermark = pump.watermark()
                    if watermark is not None:
                        self._source_wm.update(name, watermark)
                if emissions:
                    self.stats.record_events(
                        len(emissions), pump.source.max_event_time)
                    if processes:
                        # logged before dispatch: if a worker dies
                        # mid-delivery, the replay re-applies this batch
                        # to the restored state
                        self._log.record_data(name, emissions)
                        self._inject_processes(name, emissions)
                    else:
                        self.cluster.inject(name, emissions)
            self._round = None
            if self._event_time and self._advance_watermark(
                    self._source_wm.merged()):
                progressed = True
            if len(self._finished_sources) == len(self._pumps):
                self._flush()
                return True
            if processes:
                self._rounds_since_checkpoint += 1
                if (progressed and self._log and self._rounds_since_checkpoint
                        >= self.checkpoint_interval):
                    self._checkpoint()
            return progressed
        except WorkerDied as death:
            self._recover(death.worker_ids)
            return True

    def _advance_watermark(self, merged: Optional[float],
                           replay: bool = False) -> bool:
        """Broadcast a *finite* watermark advance to every windowed task.

        ``inf`` (no live input constrains event time) is never used to
        expire windows: end-of-stream closure is the flush's job, and
        expiring the trailing sliding window early would diverge from the
        batch engine's final snapshot.

        Under ``processes`` the advance is logged *before* the broadcast,
        so a worker that dies mid-fanout still sees the punctuation once
        -- global restore rewinds the survivors that already applied it,
        and the replay re-delivers it to everyone."""
        if merged is None or merged == math.inf:
            return False
        if self._broadcast_wm is not None and merged <= self._broadcast_wm:
            return False
        self._broadcast_wm = merged
        self.stats.record_watermark(merged)
        if self.executor == "inline":
            for name, task_index, task in self._bolt_tasks:
                hook = getattr(task, "advance_watermark", None)
                if hook is None:
                    continue
                emissions = hook(merged)
                if emissions:
                    self.cluster.inject(name, emissions,
                                        task_index=task_index)
            return True
        if not replay:
            self._log.record_watermark(merged)
        expirations = []
        for component, task_index, emissions in \
                self._pool.broadcast_watermark(merged):
            self.metrics.record_emit(component, task_index, len(emissions))
            expirations.append((component, emissions, None))
        if expirations:
            self._drive_processes(expirations, replay=replay)
        return True

    def _flush(self):
        """End of stream (or a forced stop): final punctuation, then
        every bolt's flush.

        Windows first catch up to the finished sources' final watermark
        (same rows either way; this also settles stats -- lag reaches
        its true final value).  Under ``processes`` a checkpoint right
        before the flush makes the flush itself recoverable: a worker
        killed mid-finish rolls everything back to this barrier (empty
        change log) and the flush simply reruns.
        """
        if self._event_time and self._final_watermarks:
            self._advance_watermark(min(self._final_watermarks))
        if self.executor == "inline":
            self.cluster.flush_bolts()  # DeltaSink.finish closes subscriptions
            self._done.set()
            return
        self._checkpoint()
        for name in self.topology.topological_order():
            spec = self.topology.components[name]
            if spec.is_spout:
                continue
            if name in self._coordinator_owned:
                outputs = [(name, task_index,
                            self._local_tasks[(name, task_index)].finish())
                           for task_index in range(spec.parallelism)]
            else:
                outputs = self._pool.finish_component(name)
            for component, task_index, emissions in outputs:
                if emissions:
                    self.metrics.record_emit(
                        component, task_index, len(emissions))
                    self._drive_processes([(component, emissions, None)])
        self._done.set()
        self._pool.stop()

    # -- processes executor: resident workers + checkpoint/recovery --------

    def worker_pids(self) -> Dict[int, Optional[int]]:
        """Live resident-worker pids (kill targets for chaos testing)."""
        if self._pool is None:
            return {}
        return self._pool.pids()

    def _ensure_pool(self):
        """Fork the resident workers on first use; epoch 0 is committed
        immediately, so recovery always has a restore point."""
        if self._pool is not None:
            return
        pool = ResidentWorkerPool(
            self.topology, {name: list(self.cluster.tasks(name))
                            for name in self.topology.components},
            parallelism=self._pool_parallelism,
            exclude=self._coordinator_owned,
            observe="off" if self.observer is None else self.observer.level,
        )
        if self._fault_injector is not None:
            pool.arm_kills(self._fault_injector.kill_plan(pool.assignment))
        pool.start()
        self._pool = pool
        self._checkpoint()

    def _inject_processes(self, source: str, emissions: Sequence[Emission],
                          replay: bool = False):
        """Route one source batch and drive it to quiescence.

        A recovery replay counts the batch again (the counters were
        rewound with the checkpoint) but starts no new trace."""
        ctx = None
        self.metrics.record_emit(source, 0, len(emissions))
        self.metrics.record_batch(source, 0)
        if not replay and self.observer is not None:
            self.observer.on_execute(source, 0, len(emissions), 0.0)
            ctx = self.observer.root(source, 0, len(emissions), 0.0)
        self._drive_processes([(source, emissions, ctx)], replay=replay)

    def _drive_processes(self,
                         pending: List[Tuple[str, Sequence[Emission], object]],
                         replay: bool = False):
        """Deliver routed waves until no data is in flight anywhere.

        Worker-owned tasks execute remotely (one pipe round-trip per
        wave, workers in parallel); coordinator-owned sink tasks execute
        locally so deltas fan out to subscriptions without serializing
        the sink.  Worker emissions come back raw and are re-routed here
        -- routing state lives only in the coordinator, so recovery never
        reconciles diverged per-worker routing.

        Pending entries carry the parent span context (None when
        unobserved or for untraced punctuations).  During a recovery
        replay contexts are withheld and worker obs payloads discarded,
        so a replayed batch never duplicates spans or timings; its
        counters are recorded again on top of the rewound ones.
        """
        metrics = self.metrics
        coalesce = self.batch_size > 1
        # wire shape is set by the *pool's* level (workers unpack trace
        # items as 6-tuples even during replay); recording is not
        observer = None if replay else self.observer
        record = None if observer is None else observer.on_execute
        trace = self.observer is not None and self.observer.trace
        while pending:
            per_worker: Dict[int, List[tuple]] = {}
            local: List[Tuple[WorkItem, object]] = []
            for source, emissions, ctx in pending:
                for item in self._proc_router.route(
                        source, emissions, coalesce=coalesce):
                    owner = self._pool.owner(item[0], item[1])
                    if owner is None:
                        local.append((item, ctx))
                    elif trace:
                        per_worker.setdefault(owner, []).append(item + (ctx,))
                    else:
                        per_worker.setdefault(owner, []).append(item)
            pending = []
            if observer is not None and (per_worker or local):
                observer.on_queue_depth(
                    "processes",
                    sum(len(items) for items in per_worker.values())
                    + len(local))
            replies = self._pool.execute(per_worker) if per_worker else []
            for outputs, (delta, obs_payload) in replies:
                metrics.merge(delta)
                if observer is not None:
                    observer.merge_worker_obs(obs_payload)
                if trace:
                    for component, _task, emissions, child in outputs:
                        pending.append((component, emissions, child))
                else:
                    for component, _task, emissions in outputs:
                        pending.append((component, emissions, None))
            for item, ctx in local:
                target, task_index, source, stream, rows = item
                emissions, child = execute_hop(
                    metrics, self._local_tasks[(target, task_index)], target,
                    task_index, source, stream, rows, observer, record, ctx)
                if emissions:
                    pending.append((target, emissions, child))

    # -- checkpoint/recovery protocol --------------------------------------

    def _coordinator_blob(self) -> bytes:
        """The coordinator's own state for a manifest: sink multisets,
        the broadcast watermark, the router's mutable grouping state
        (shuffle cursors) and the topology counters -- everything the
        replay path needs rewound."""
        return pickle.dumps({
            "sinks": {
                key: task.counts_snapshot()
                for key, task in sorted(self._local_tasks.items())
                if isinstance(task, DeltaSink)
            },
            "wm": self._broadcast_wm,
            "router": self._proc_router.routing_state(),
            "metrics": self.metrics,
        }, protocol=pickle.HIGHEST_PROTOCOL)

    def _checkpoint(self):
        """Commit one epoch at the current quiescent point.

        Workers hash their owned task state and ship only blobs whose
        digest left the previous manifest (the incremental hash-diff);
        the change log is truncated afterwards -- its rows are now inside
        the snapshot.
        """
        snapshots = self._pool.checkpoint(self._store.known_digests())
        result = self._store.commit(
            self._epoch, snapshots, self._coordinator_blob())
        self.checkpoints.record_commit(result)
        self._epoch += 1
        self._rounds_since_checkpoint = 0
        self._log.truncate()

    def _recover(self, dead: List[int]):
        """Exactly-once crash recovery, retried if a replay dies again."""
        respawned: List[int] = []
        while True:
            self._recoveries += 1
            if self._recoveries > self.max_recoveries:
                raise ExecutorError(
                    f"giving up after {self.max_recoveries} worker "
                    f"recoveries (workers {dead} died); the failure is "
                    f"not transient"
                )
            try:
                self._recover_once(dead, respawned)
                return
            except WorkerDied as death:
                dead = death.worker_ids

    def _recover_once(self, dead: List[int], respawned: List[int]):
        """Respawn + global restore + sink rollback + log replay.

        Every worker -- survivor or respawn -- is restored to the latest
        manifest: survivors may have applied post-checkpoint batches that
        the replay will re-deliver, so their state must rewind too.  The
        sink rolls back through compensating deltas (subscriptions stay
        attached), the router's shuffle cursors rewind so replayed rows
        land on their original partitions, and the change log re-applies
        the delta stream without re-logging it.
        """
        dead = sorted(set(dead) | set(self._pool.reap_dead()))
        respawned.extend(dead)
        manifest = self._store.latest()
        if manifest is None:
            # death raced the epoch-0 commit: nothing has executed, so a
            # fresh fork *is* the correct state
            self._pool.respawn(dead)
            self.checkpoints.record_recovery(list(respawned), 0, 0)
            return
        self._pool.respawn(dead)
        self._pool.restore(self._store.restore_set(manifest))
        coordinator = pickle.loads(manifest.coordinator)
        for key, counts in coordinator["sinks"].items():
            self._local_tasks[key].rollback(counts)
        self._broadcast_wm = coordinator["wm"]
        self._proc_router.restore_routing_state(coordinator["router"])
        # rewind the counters in place: the observer's collector reads
        # this very object
        self.metrics.drain()
        self.metrics.merge(coordinator["metrics"])
        replayed_entries = replayed_rows = 0
        for entry in self._log.replay():
            if entry[0] == _LOG_DATA:
                _kind, source, emissions = entry
                replayed_entries += 1
                replayed_rows += len(emissions)
                self._inject_processes(source, emissions, replay=True)
            else:
                self._advance_watermark(entry[1], replay=True)
        self.checkpoints.record_recovery(list(respawned), replayed_entries,
                                         replayed_rows)
