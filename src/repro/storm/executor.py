"""Execution backends: shared-nothing parallel workers over micro-batches.

The :class:`~repro.storm.cluster.LocalCluster` runs a topology through one
of two interchangeable backends:

- ``inline`` -- the cluster's own single-threaded loop (the default;
  byte-identical to the seed per-tuple engine at ``batch_size=1``).
- ``processes`` -- forked worker processes exchanging *serialized*
  micro-batches over pipes: true shared-nothing scale-out across cores,
  the execution model of the paper's Storm deployment.  Each worker
  owns a disjoint set of tasks and its own routing state.  Requires the
  ``fork`` start method (Linux/macOS) and pickle-safe rows and task
  state.

Execution is *staged*: components are grouped into topological levels
(every edge goes from a lower to a strictly higher level), and each level
runs as one parallel wave with a barrier after it.  Within a wave every
worker drains or executes only the tasks it owns and routes the
emissions task-locally through its own copy of the stream groupings.  A
routed micro-batch whose target task the worker owns stays in the worker
until the target's wave; the others go back to the coordinator, which
relays them to the owning workers in later waves.  The barrier
guarantees what the inline loop gets for free: a component's
``finish()`` runs only after every upstream tuple has been routed, so
snapshot aggregations and retractions stay correct.

Every batch is tagged with the wave and the worker that routed it, and a
task's inbox merges held and relayed batches in (wave, worker id) order
-- the order a coordinator relaying everything would deliver -- so a run
is reproducible; result *multisets* and per-component totals are identical
across backends, only the tuple interleaving differs (the operators are
order-insensitive up to the final multiset, exactly as for ``batch_size``
in the inline loop).

Every executor -- the inline loop, the staged and resident workers and
the streaming coordinator's sink tasks -- executes and accounts for a
delivered micro-batch in one place, :func:`execute_hop`.  Workers count
on a :class:`~repro.storm.metrics.TopologyMetrics` of their own and
ship it, drained, with every reply (the *worker delta*, see
:func:`drain_deltas`); the coordinator adds it to the cluster's counters
with :meth:`TopologyMetrics.merge`.
"""

from __future__ import annotations

import os
import pickle
import time
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.columnar import ColumnBatch, ColumnEmissions
from repro.obs import WorkerObs
from repro.storm.metrics import TopologyMetrics
from repro.storm.topology import Topology, TopologyError

#: one routed unit of work: rows of `stream` (emitted by `source`)
#: awaiting execution at task `task` of component `target`; under the
#: columnar path the rows payload is a ColumnBatch instead of a row list
WorkItem = Tuple[str, int, str, str, List[tuple]]

EXECUTOR_NAMES = ("inline", "processes")


class ExecutorError(RuntimeError):
    """A parallel backend could not run the topology."""


def check_executor(name: str):
    """Refuse an executor name neither engine implements."""
    if name not in EXECUTOR_NAMES:
        raise ExecutorError(
            f"unknown executor {name!r}: must be one of {EXECUTOR_NAMES}")


class WorkerDied(ExecutorError):
    """A worker process is gone (crash, SIGKILL, lost pipe).

    Raised by staged workers' pipe ends and by :class:`ResidentWorkerPool`
    commands; carries the dead worker ids so the supervisor (the
    streaming coordinator) can respawn exactly those workers and run the
    recovery protocol.
    """

    def __init__(self, worker_ids: List[int]):
        super().__init__(f"worker(s) {sorted(worker_ids)} died")
        self.worker_ids = sorted(worker_ids)


def default_parallelism() -> int:
    """Worker count used when ``parallelism`` is not given: the machine's
    cores, capped at 4 (diminishing returns: batches bound for another
    worker's tasks are still relayed through the coordinator)."""
    return max(1, min(4, os.cpu_count() or 1))


def ensure_task_local_routing(topology: Topology, executor: str):
    """Refuse topologies whose routing cannot be replicated per worker.

    A grouping backed by a partitioner that *adapts to the globally
    observed stream* (e.g. :class:`~repro.partitioning.adaptive.\
AdaptiveOneBucket`) cannot be deep-copied into shared-nothing workers:
    each copy would see only its slice of the stream, reshape differently,
    and silently lose join matches.  Raises a dedicated
    :class:`ExecutorError` naming the offending partitioner and the
    executor that can still run the plan.
    """
    for edge in topology.edges:
        if not edge.grouping.supports_task_local_routing():
            raise ExecutorError(
                f"the {executor!r} executor cannot run this topology: edge "
                f"{edge.source}->{edge.target} routes through "
                f"{edge.grouping.routing_description()}, whose decisions "
                f"adapt to the globally observed stream; worker-local "
                f"copies would diverge and silently lose matches -- run "
                f"this plan with executor='inline'"
            )


def topological_levels(topology: Topology) -> List[List[str]]:
    """Components grouped by longest-path depth from the sources.

    Every edge goes from a lower level to a strictly higher one, so all
    components of one level can execute concurrently, and by the time
    level ``k`` runs, everything its components will ever receive has
    already been routed.
    """
    order = topology.topological_order()
    depth: Dict[str, int] = {}
    for name in order:
        upstream = [edge.source for edge in topology.in_edges(name)]
        depth[name] = max((depth[up] + 1 for up in upstream), default=0)
    levels: List[List[str]] = [[] for _ in range(max(depth.values()) + 1)]
    for name in order:  # topological order keeps each level deterministic
        levels[depth[name]].append(name)
    return levels


def assign_tasks(topology: Topology, n_workers: int) -> Dict[Tuple[str, int], int]:
    """Disjoint task ownership: global round-robin over (component, task).

    A single counter walks components in topological order and tasks in
    index order, so singleton components (sources, sinks) spread across
    workers instead of piling onto worker 0.
    """
    assignment: Dict[Tuple[str, int], int] = {}
    counter = 0
    for name in topology.topological_order():
        for task_index in range(topology.components[name].parallelism):
            assignment[(name, task_index)] = counter % n_workers
            counter += 1
    return assignment


class Router:
    """Task-local routing: one component's emissions -> routed work items.

    Every worker builds its *own* Router (``clone=True`` deep-copies each
    edge's grouping via :meth:`Grouping.task_local`), so stateful routing
    -- shuffle counters, random replica choices -- lives inside the
    owning worker and never needs cross-worker synchronization.  The
    inline backend uses a single Router over the original groupings,
    preserving the seed engine's exact routing sequence.
    """

    def __init__(self, topology: Topology, clone: bool = False):
        # one deepcopy memo for the whole routing table: objects shared by
        # several groupings (a partitioner driving all input edges of one
        # join) stay shared *within* this worker's copies, so routing of
        # the join's relations remains mutually consistent
        memo: dict = {}
        self._edges: Dict[str, List] = {}
        for name in topology.components:
            edges = []
            for edge in topology.out_edges(name):
                grouping = edge.grouping.task_local(memo) if clone \
                    else edge.grouping
                edges.append((edge, grouping))
            self._edges[name] = edges
        self._parallelism = {
            name: spec.parallelism for name, spec in topology.components.items()
        }

    def routing_state(self) -> Dict[str, List[object]]:
        """Mutable grouping state per component's out-edges (checkpoint).

        Recovery replays the post-checkpoint stream through this router;
        rewinding stateful groupings (shuffle cursors) to the checkpoint
        makes the replayed routing identical to the original delivery.
        """
        return {
            name: [grouping.routing_state() for _edge, grouping in edges]
            for name, edges in self._edges.items()
        }

    def restore_routing_state(self, state: Dict[str, List[object]]):
        for name, per_edge in state.items():
            for (_edge, grouping), edge_state in zip(
                    self._edges.get(name, ()), per_edge):
                if edge_state is not None:
                    grouping.restore_routing_state(edge_state)

    def route(self, source: str, emissions: List[Tuple[str, tuple]],
              coalesce: bool = True) -> List[WorkItem]:
        """Partition one component's emissions across subscriber tasks.

        With ``coalesce`` consecutive emissions on the same stream travel
        as one micro-batch; without it every emission is routed
        individually (the seed engine's per-tuple dispatch order).
        """
        items: List[WorkItem] = []
        if isinstance(emissions, ColumnEmissions):
            if coalesce:
                # already a single-stream batch: route it columnar, no
                # coalescing scan and no row materialization
                self._route_one(items, source, emissions.stream,
                                emissions.batch)
                return items
            emissions = list(emissions)  # per-tuple dispatch order
        if not coalesce:
            for stream, values in emissions:
                self._route_one(items, source, stream, [values])
            return items
        i = 0
        n = len(emissions)
        while i < n:
            stream = emissions[i][0]
            j = i + 1
            while j < n and emissions[j][0] == stream:
                j += 1
            self._route_one(items, source, stream,
                            [values for _stream, values in emissions[i:j]])
            i = j
        return items

    def _route_one(self, items: List[WorkItem], source: str, stream: str,
                   rows: List[tuple]):
        for edge, grouping in self._edges[source]:
            if not edge.subscribes(stream):
                continue
            parallelism = self._parallelism[edge.target]
            for target_task, sub_rows in grouping.targets_batch(
                    stream, rows, parallelism):
                if not 0 <= target_task < parallelism:
                    raise TopologyError(
                        f"grouping for {edge.source}->{edge.target} returned "
                        f"task {target_task} outside [0, {parallelism})"
                    )
                items.append((edge.target, target_task, source, stream, sub_rows))


def execute_hop(metrics: TopologyMetrics, bolt, target: str, task: int,
                source: str, stream: str, rows, obs=None, record=None,
                ctx=None):
    """Execute one delivered micro-batch at task ``task`` of ``target``;
    returns ``(emissions, child span context)``.

    Counts the receive, the batch, the execution path and the emissions
    on ``metrics``.  Under an observer ``obs`` (an Observer, or a
    worker's WorkerObs) it also times the batch, hands the time to
    ``record`` -- that observer's own recording method -- and records a
    span under ``ctx``; without one the child context is None.
    """
    metrics.record_receive(source, target, task, len(rows))
    metrics.record_batch(target, task)
    metrics.record_path(isinstance(rows, ColumnBatch), len(rows))
    if obs is None:
        emissions = bolt.execute_batch(source, stream, rows)
        child = None
    else:
        started = time.perf_counter()
        emissions = bolt.execute_batch(source, stream, rows)
        elapsed = time.perf_counter() - started
        record(target, task, len(rows), elapsed)
        child = obs.span(ctx, target, task, len(rows), elapsed)
    if emissions:
        metrics.record_emit(target, task, len(emissions))
    return emissions, child


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

def drain_deltas(state) -> tuple:
    """A worker's reply delta: what its :class:`TopologyMetrics` counted
    and its drained observability payload (None when unobserved) since
    the previous reply."""
    return (state.metrics.drain(),
            None if state.obs is None else state.obs.drain())


#: routed entries ``(source, stream, rows[, ctx])`` bound for one task,
#: tagged with the wave and the worker that routed them:
#: ``(wave, worker_id, entries)``
Chunk = Tuple[int, int, List[tuple]]


class WorkerState:
    """Everything one shared-nothing worker owns: tasks + routing state."""

    #: forked into (and for resident workers, shipped to) worker
    #: processes whole -- opt into squall-lint's pickle-safety and
    #: determinism rules even though this is not a Bolt subclass
    PIPE_PICKLED = True

    def __init__(self, worker_id: int, topology: Topology,
                 tasks: Dict[str, List[object]],
                 assignment: Dict[Tuple[str, int], int], batch_size: int,
                 observe: str = "off"):
        self.worker_id = worker_id
        self.batch_size = batch_size
        #: worker-side observability accumulator (None = observe='off':
        #: the wave loop keeps its exact unobserved shape)
        self.obs = None if observe == "off" else WorkerObs(worker_id, observe)
        #: what this worker counted since its last reply
        self.metrics = TopologyMetrics()
        self.is_spout = {
            name: spec.is_spout for name, spec in topology.components.items()
        }
        self.router = Router(topology, clone=True)
        # owned tasks only -- the shared-nothing contract: nothing else of
        # the (forked or shared) task table is ever touched
        self.owned: Dict[str, Dict[int, object]] = {}
        for (name, task_index), owner in assignment.items():
            if owner == worker_id:
                self.owned.setdefault(name, {})[task_index] = tasks[name][task_index]
        for name in self.owned:
            self.metrics.register(name, topology.components[name].parallelism)
        #: routing targets this worker delivers to itself
        self.local_keys = {
            key for key, owner in assignment.items() if owner == worker_id
        }
        #: items routed to owned tasks, held here until the target's wave
        self.held: Dict[Tuple[str, int], List[Chunk]] = {}

    def _inbox(self, key: Tuple[str, int], delivered: Dict[Tuple[str, int],
               List[Chunk]]) -> List[tuple]:
        """The batches of one owned task: held and delivered chunks merged
        in (wave, worker id) order -- the coordinator's relay order."""
        chunks = self.held.pop(key, []) + delivered.get(key, [])
        chunks.sort(key=lambda chunk: chunk[:2])
        return [entry for _wave, _worker, entries in chunks
                for entry in entries]

    def run_wave(self, wave: int, components: Sequence[str],
                 delivered: Dict[Tuple[str, int], List[Chunk]],
                 ) -> Tuple[Dict[Tuple[str, int], List[tuple]],
                            Dict[Tuple[str, int], int], tuple]:
        """Execute one topological level on this worker's owned tasks.

        Spout components are drained to exhaustion in ``batch_size``
        micro-batches; bolt components execute their batches in arrival
        order and then flush (``finish``) -- the coordinator's barrier
        guarantees every input batch has already been routed.

        Routed items whose target task this worker owns stay here until
        the target's wave; only the others return to the coordinator.
        Returns those remote entries per target task, the number of
        entries held per task, and the worker delta (see
        :func:`drain_deltas`).

        Observed runs also time every batch, and at the trace level
        delivered entries and routed items carry a trailing span context.
        """
        obs = self.obs
        trace = obs is not None and obs.trace
        record = None if obs is None else obs.record
        metrics = self.metrics
        out: List[tuple] = []
        route = self.router.route
        perf = time.perf_counter
        for name in components:
            owned = self.owned.get(name)
            if not owned:
                continue
            if self.is_spout[name]:
                for task_index in sorted(owned):
                    spout = owned[task_index]
                    has_more = getattr(spout, "has_more", None)
                    while True:
                        if obs is not None:
                            started = perf()
                        emissions = spout.next_batch(self.batch_size)
                        if obs is not None:
                            elapsed = perf() - started
                        if not emissions:
                            break
                        metrics.record_emit(name, task_index, len(emissions))
                        metrics.record_batch(name, task_index)
                        items = route(name, emissions)
                        if obs is not None:
                            record(name, task_index, len(emissions), elapsed)
                            if trace:
                                ctx = obs.root(name, task_index,
                                               len(emissions), elapsed)
                                items = [item + (ctx,) for item in items]
                        out.extend(items)
                        # a short batch means exhaustion unless the spout
                        # says otherwise (a columnar spout's selection can
                        # thin a mid-stream chunk below batch_size)
                        if len(emissions) < self.batch_size and not (
                                has_more is not None and has_more()):
                            break
            else:
                for task_index in sorted(owned):
                    bolt = owned[task_index]
                    for entry in self._inbox((name, task_index), delivered):
                        source, stream, rows = entry[:3]
                        emissions, child = execute_hop(
                            metrics, bolt, name, task_index, source, stream,
                            rows, obs, record, entry[3] if trace else None)
                        if emissions:
                            items = route(name, emissions)
                            if trace:
                                items = [item + (child,) for item in items]
                            out.extend(items)
                    emissions = bolt.finish()
                    if emissions:
                        metrics.record_emit(name, task_index, len(emissions))
                        items = route(name, emissions)
                        if trace:
                            # flush emissions are punctuations, untraced
                            items = [item + (None,) for item in items]
                        out.extend(items)
        routed: Dict[Tuple[str, int], List[tuple]] = {}
        for item in out:
            routed.setdefault(item[:2], []).append(item[2:])
        remote: Dict[Tuple[str, int], List[tuple]] = {}
        for key, entries in routed.items():
            if key in self.local_keys:
                self.held.setdefault(key, []).append(
                    (wave, self.worker_id, entries))
            else:
                remote[key] = entries
        held = {key: sum(len(chunk[2]) for chunk in chunks)
                for key, chunks in self.held.items()}
        return remote, held, drain_deltas(self)

    def exports(self) -> Dict[Tuple[str, int], object]:
        """Final owned task instances, for post-run state extraction."""
        return {
            (name, task_index): instance
            for name, tasks in self.owned.items()
            for task_index, instance in tasks.items()
        }


def worker_loop(state: WorkerState, recv, send):
    """Command loop of one staged worker process.

    ``recv()`` yields coordinator commands; ``send(reply)`` must raise in
    the *caller* on serialization failure (``Connection.send`` does) so
    errors surface as ``("error", traceback)`` replies instead of hangs.
    """
    while True:
        message = recv()
        kind = message[0]
        if kind == "wave":
            _kind, wave, components, delivered = message
            try:
                send(("ok", state.run_wave(wave, components, delivered)))
            except Exception:
                send(("error", traceback.format_exc()))
        elif kind == "collect":
            try:
                send(("ok", state.exports()))
            except Exception:
                send(("error", traceback.format_exc()))
        elif kind == "stop":
            return
        else:  # pragma: no cover - protocol bug
            send(("error", f"unknown command {kind!r}"))


# ---------------------------------------------------------------------------
# Coordinator side
# ---------------------------------------------------------------------------


class _ProcessWorker:
    """A forked worker process fed through pipes (pickled micro-batches).

    ``fork`` copies the whole task table into the child; the worker then
    touches only its owned slice, so state lives inside the owning worker
    and only serialized batches and final task exports cross the pipe.
    ``Connection.send`` pickles in the caller, so a pickle-unsafe reply
    becomes an ``("error", ...)`` message instead of a silent hang.  A
    lost pipe (the worker died) raises :class:`WorkerDied` naming it.
    """

    def __init__(self, context, state: WorkerState):
        self.worker_id = state.worker_id
        self._parent_conn, child_conn = context.Pipe()
        self._process = context.Process(
            target=_process_worker_main, args=(state, child_conn), daemon=True
        )
        self._process.start()
        child_conn.close()

    def send(self, message):
        try:
            self._parent_conn.send(message)
        except (BrokenPipeError, EOFError, OSError):
            raise WorkerDied([self.worker_id]) from None

    def recv(self):
        try:
            return self._parent_conn.recv()
        except (BrokenPipeError, EOFError, OSError):
            raise WorkerDied([self.worker_id]) from None

    def stop(self):
        try:
            self._parent_conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        self._process.join(timeout=30)
        if self._process.is_alive():  # pragma: no cover - defensive
            self._process.terminate()
            self._process.join(timeout=5)
        self._parent_conn.close()


def _process_worker_main(state: WorkerState, conn):
    def send(reply):
        try:
            conn.send(reply)
        except Exception:
            # reply not pickle-safe: report instead of dropping the message
            conn.send(("error", traceback.format_exc()))

    try:
        worker_loop(state, conn.recv, send)
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - shutdown races
        pass
    finally:
        conn.close()


class ProcessExecutor:
    """Coordinator of the staged ``processes`` backend: forked workers,
    waves, barriers, deterministic merging."""

    name = "processes"

    def __init__(self, cluster, parallelism: Optional[int] = None):
        self.cluster = cluster
        n_tasks = sum(
            spec.parallelism for spec in cluster.topology.components.values()
        )
        requested = default_parallelism() if parallelism is None else parallelism
        self.n_workers = min(requested, n_tasks)
        self.assignment = assign_tasks(cluster.topology, self.n_workers)
        ensure_task_local_routing(cluster.topology, self.name)

    def _fork_workers(self, batch_size: int) -> List[_ProcessWorker]:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            raise ExecutorError(
                "the 'processes' backend needs the fork start method "
                "(component factories are closures and cannot be pickled); "
                "use executor='inline' on this platform"
            )
        context = multiprocessing.get_context("fork")
        observer = self.cluster.observer
        observe = "off" if observer is None else observer.level
        return [
            _ProcessWorker(context, WorkerState(
                worker_id, self.cluster.topology, self.cluster._tasks,
                self.assignment, batch_size, observe=observe))
            for worker_id in range(self.n_workers)
        ]

    def run(self, batch_size: int = 1):
        """Execute the topology to completion; returns the cluster metrics."""
        cluster = self.cluster
        metrics = cluster.metrics
        observer = cluster.observer
        levels = topological_levels(cluster.topology)
        workers = self._fork_workers(batch_size)
        try:
            # remote items per target task, as (wave, worker id, entries)
            # chunks; each worker also reports what it holds for itself
            pending: Dict[Tuple[str, int], List[Chunk]] = {}
            held: List[Dict[Tuple[str, int], int]] = [{} for _ in workers]
            for wave, level in enumerate(levels):
                for worker_id, worker in enumerate(workers):
                    delivered = {}
                    for name in level:
                        for task_index in range(
                                cluster.topology.components[name].parallelism):
                            key = (name, task_index)
                            if self.assignment[key] != worker_id:
                                continue
                            chunks = pending.pop(key, None)
                            if chunks:
                                delivered[key] = chunks
                    worker.send(("wave", wave, level, delivered))
                # barrier: collect every worker's wave in worker-id order;
                # chunk tags make the merged delivery order deterministic
                for worker_id, worker in enumerate(workers):
                    routed, held[worker_id], (delta, obs_payload) = \
                        self._reply(worker)
                    metrics.merge(delta)
                    if observer is not None:
                        observer.merge_worker_obs(obs_payload)
                    for key, entries in routed.items():
                        pending.setdefault(key, []).append(
                            (wave, worker_id, entries))
                if observer is not None:
                    depth = sum(len(chunk[2]) for chunks in pending.values()
                                for chunk in chunks)
                    depth += sum(sum(counts.values()) for counts in held)
                    if depth:
                        observer.on_queue_depth("staged", depth)
            undelivered = sorted(set(pending).union(*held))
            if undelivered:
                raise ExecutorError(
                    f"undelivered batches after final wave: {undelivered}"
                )
            # ship the final task state back into the cluster
            for worker in workers:
                worker.send(("collect",))
            for worker in workers:
                for (name, task_index), instance in self._reply(worker).items():
                    cluster._tasks[name][task_index] = instance
        finally:
            for worker in workers:
                worker.stop()
        return metrics

    def _reply(self, worker):
        status, payload = worker.recv()
        if status != "ok":
            raise ExecutorError(
                f"{self.name} worker failed:\n{payload}"
            )
        return payload


# ---------------------------------------------------------------------------
# Resident workers (the streaming 'processes' executor)
# ---------------------------------------------------------------------------


class ResidentWorkerState:
    """Everything one resident worker owns: bolt tasks + armed faults.

    Unlike the staged :class:`WorkerState`, a resident worker does *no*
    routing: it executes delivered micro-batches on its owned tasks and
    returns the raw emissions for the coordinator to route centrally.
    Central routing keeps all grouping state in the coordinator -- the
    process that survives worker crashes -- so recovery never has to
    reconcile diverged per-worker routing state.

    ``kill_after`` arms deterministic fault injection
    (:class:`repro.storm.failures.FaultInjector`): after the worker has
    executed that many micro-batches *in this incarnation*, it SIGKILLs
    itself mid-protocol -- the test harness for the recovery path.
    """

    #: shipped whole to freshly spawned workers on respawn -- opt into
    #: squall-lint's pickle-safety and determinism rules
    PIPE_PICKLED = True

    def __init__(self, worker_id: int, owned: Dict[Tuple[str, int], object],
                 kill_after: Optional[List[Tuple[int, int]]] = None,
                 observe: str = "off"):
        self.worker_id = worker_id
        self.owned = owned  # (component, task_index) -> task instance
        self.batches_executed = 0
        #: [(after_batches, signal), ...], sorted; consumed front to back
        self.kill_after = sorted(kill_after or [])
        #: worker-side observability accumulator (None = observe='off')
        self.obs = None if observe == "off" else WorkerObs(worker_id, observe)
        #: what this worker counted since its last reply; each component
        #: is sized to its highest owned task (merge adds by position)
        self.metrics = TopologyMetrics()
        for name, task_index in sorted(owned):
            self.metrics.register(name, task_index + 1)

    def _maybe_die(self):
        if not self.kill_after:
            return
        after, signal = self.kill_after[0]
        if self.batches_executed >= after:
            os.kill(os.getpid(), signal)  # SIGKILL: never returns

    def execute(self, items: List[WorkItem]):
        """Run delivered batches in order; return raw emissions and the
        worker delta (see :func:`drain_deltas`).

        Observed workers also time every batch.  Trace-level items carry
        a trailing span context (6-tuples) and trace-level outputs grow a
        trailing child context (4-tuples) so the coordinator can parent
        downstream hops; 'metrics' keeps the off-level wire shapes and
        only ships timings in the delta.
        """
        obs = self.obs
        trace = obs is not None and obs.trace
        record = None if obs is None else obs.record
        outputs: List[tuple] = []
        for item in items:
            target, task_index, source, stream, rows = item[:5]
            emissions, child = execute_hop(
                self.metrics, self.owned[(target, task_index)], target,
                task_index, source, stream, rows, obs, record,
                item[5] if trace else None)
            self.batches_executed += 1
            if emissions:
                if trace:
                    outputs.append((target, task_index, emissions, child))
                else:
                    outputs.append((target, task_index, emissions))
            self._maybe_die()
        return outputs, drain_deltas(self)

    def advance_watermark(self, watermark: float):
        """Apply one watermark punctuation to every owned windowed task."""
        outputs: List[Tuple[str, int, object]] = []
        for (name, task_index) in sorted(self.owned):
            hook = getattr(self.owned[(name, task_index)],
                           "advance_watermark", None)
            if hook is None:
                continue
            emissions = hook(watermark)
            if emissions:
                outputs.append((name, task_index, emissions))
        return outputs

    def finish_component(self, component: str):
        """End-of-stream flush for one component's owned tasks."""
        outputs: List[Tuple[str, int, object]] = []
        for (name, task_index) in sorted(self.owned):
            if name != component:
                continue
            emissions = self.owned[(name, task_index)].finish()
            if emissions:
                outputs.append((name, task_index, emissions))
        return outputs

    def checkpoint(self, known: Dict[Tuple[str, int], str]):
        """Hash-diff snapshot of every owned task.

        Returns ``{key: (digest, blob-or-None)}`` -- the blob travels
        over the pipe only when the digest differs from the store's
        latest manifest (``known``), so an unchanged partition costs one
        pickle + hash and zero IPC bytes.
        """
        from repro.checkpoint.store import hash_blob, snapshot_blob

        snapshots = {}
        for key in sorted(self.owned):
            blob = snapshot_blob(self.owned[key])
            digest = hash_blob(blob)
            snapshots[key] = (
                digest, None if known.get(key) == digest else blob)
        return snapshots

    def restore(self, blobs: Dict[Tuple[str, int], bytes]):
        """Replace owned task instances with unpickled snapshot state."""
        for key, blob in blobs.items():
            if key in self.owned:
                self.owned[key] = pickle.loads(blob)
        return len(blobs)


def resident_worker_loop(state: ResidentWorkerState, recv, send):
    """Command loop of one resident worker process.

    Commands: ``execute`` (micro-batches), ``watermark`` (punctuation),
    ``finish`` (per-component end-of-stream flush), ``checkpoint``
    (hash-diff snapshot), ``restore`` (load snapshot state), ``ping``
    (liveness), ``stop``.  Every command gets exactly one reply, so the
    coordinator's pipe protocol stays in lock-step; a worker death
    between command and reply surfaces as EOF on the coordinator side.
    """
    while True:
        message = recv()
        kind = message[0]
        try:
            if kind == "execute":
                send(("ok", state.execute(message[1])))
            elif kind == "watermark":
                send(("ok", state.advance_watermark(message[1])))
            elif kind == "finish":
                send(("ok", state.finish_component(message[1])))
            elif kind == "checkpoint":
                send(("ok", state.checkpoint(message[1])))
            elif kind == "restore":
                send(("ok", state.restore(message[1])))
            elif kind == "ping":
                send(("ok", state.worker_id))
            elif kind == "stop":
                return
            else:  # pragma: no cover - protocol bug
                send(("error", f"unknown command {kind!r}"))
        except Exception:
            send(("error", traceback.format_exc()))


class ResidentWorker:
    """One long-lived forked worker process behind a duplex pipe."""

    def __init__(self, context, state: ResidentWorkerState):
        self.worker_id = state.worker_id
        self._parent_conn, child_conn = context.Pipe()
        self._process = context.Process(
            target=_resident_worker_main, args=(state, child_conn),
            daemon=True,
        )
        self._process.start()
        child_conn.close()

    @property
    def pid(self) -> Optional[int]:
        return self._process.pid

    def alive(self) -> bool:
        return self._process.is_alive()

    def send(self, message):
        self._parent_conn.send(message)

    def recv(self):
        return self._parent_conn.recv()

    def stop(self):
        try:
            self._parent_conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        self._process.join(timeout=10)
        if self._process.is_alive():  # pragma: no cover - defensive
            self._process.terminate()
            self._process.join(timeout=5)
        self._parent_conn.close()

    def reap(self):
        """Release a dead worker's process + pipe resources."""
        self._process.join(timeout=5)
        try:
            self._parent_conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


def _resident_worker_main(state: ResidentWorkerState, conn):
    def send(reply):
        try:
            conn.send(reply)
        except Exception:
            conn.send(("error", traceback.format_exc()))

    try:
        resident_worker_loop(state, conn.recv, send)
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - shutdown
        pass
    finally:
        conn.close()


class ResidentWorkerPool:
    """Supervisor for the streaming ``processes`` backend.

    Owns the fork/assignment/respawn lifecycle of N resident workers,
    each holding a disjoint slice of the topology's bolt tasks
    (``exclude`` names coordinator-owned components -- the delta sinks,
    whose subscriptions must live in the parent).  All commands detect
    worker death (EOF / broken pipe / liveness probe) and raise
    :class:`WorkerDied` with the dead ids; the streaming coordinator
    reacts by respawning (:meth:`respawn`) and running the
    checkpoint-restore + replay recovery protocol.
    """

    def __init__(self, topology: Topology,
                 tasks: Dict[str, List[object]],
                 parallelism: Optional[int] = None,
                 exclude: Optional[set] = None,
                 kill_plan: Optional[Dict[int, List[Tuple[int, int]]]] = None,
                 observe: str = "off"):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            raise ExecutorError(
                "the resident 'processes' backend needs the fork start "
                "method; use executor='inline' on this platform"
            )
        self._context = multiprocessing.get_context("fork")
        self._topology = topology
        self._tasks = tasks
        exclude = exclude or set()
        worker_keys = [
            (name, task_index)
            for name in topology.topological_order()
            if not topology.components[name].is_spout and name not in exclude
            for task_index in range(topology.components[name].parallelism)
        ]
        requested = default_parallelism() if parallelism is None else parallelism
        self.n_workers = max(1, min(requested, len(worker_keys)))
        #: (component, task_index) -> owning worker id (round-robin)
        self.assignment: Dict[Tuple[str, int], int] = {
            key: index % self.n_workers
            for index, key in enumerate(worker_keys)
        }
        #: armed fault-injection kills per worker (consumed on death)
        self._kill_plan = {w: list(specs)
                           for w, specs in (kill_plan or {}).items()}
        self._workers: Dict[int, ResidentWorker] = {}
        self.respawn_count = 0
        #: observability level shipped into every worker incarnation
        self._observe = observe

    # -- lifecycle ---------------------------------------------------------

    def arm_kills(self, kill_plan: Dict[int, List[Tuple[int, int]]]):
        """Install per-worker fault-injection kills (call before start():
        the specs ride into the workers at fork time)."""
        self._kill_plan = {worker_id: list(specs)
                           for worker_id, specs in kill_plan.items()}

    def owner(self, component: str, task_index: int) -> Optional[int]:
        """Owning worker id, or None for coordinator-owned tasks."""
        return self.assignment.get((component, task_index))

    def owned_keys(self, worker_id: int) -> List[Tuple[str, int]]:
        return sorted(key for key, owner in self.assignment.items()
                      if owner == worker_id)

    def _make_state(self, worker_id: int) -> ResidentWorkerState:
        owned = {key: self._tasks[key[0]][key[1]]
                 for key in self.owned_keys(worker_id)}
        return ResidentWorkerState(
            worker_id, owned, kill_after=self._kill_plan.get(worker_id),
            observe=self._observe)

    def start(self):
        if not self.assignment:
            return
        for worker_id in range(self.n_workers):
            self._workers[worker_id] = ResidentWorker(
                self._context, self._make_state(worker_id))

    def stop(self):
        for worker in self._workers.values():
            if worker.alive():
                worker.stop()
            else:
                worker.reap()
        self._workers.clear()

    def pids(self) -> Dict[int, Optional[int]]:
        """Live worker pids (the kill-a-worker demo's target list)."""
        return {worker_id: worker.pid
                for worker_id, worker in self._workers.items()}

    def reap_dead(self) -> List[int]:
        """Liveness sweep: ids of workers found dead (not yet respawned)."""
        return [worker_id for worker_id, worker in self._workers.items()
                if not worker.alive()]

    def respawn(self, worker_ids: List[int]):
        """Replace dead workers with fresh forks (initial task state).

        The new incarnation starts from the parent's pristine task
        instances; the supervisor is expected to follow up with a
        ``restore`` command carrying the latest checkpoint blobs.  The
        armed fault that killed the dead incarnation (its lowest kill
        point) is consumed; later armed kills re-arm against the new
        incarnation's batch counter, so multi-kill scenarios stay
        deterministic.
        """
        for worker_id in worker_ids:
            worker = self._workers.get(worker_id)
            if worker is not None:
                worker.reap()
            remaining = sorted(self._kill_plan.pop(worker_id, []))[1:]
            if remaining:
                self._kill_plan[worker_id] = remaining
            self._workers[worker_id] = ResidentWorker(
                self._context, self._make_state(worker_id))
            self.respawn_count += 1

    # -- command fan-out ---------------------------------------------------

    def _command(self, recipients: Dict[int, tuple]) -> Dict[int, object]:
        """Send one command per recipient, then collect every reply.

        The reply phase always drains every worker that was sent a
        command (otherwise a stale reply would desynchronize the next
        command round); any send/recv failure or error reply marks that
        worker dead and the whole round raises :class:`WorkerDied` after
        draining -- the caller abandons the round and recovers.
        """
        dead: List[int] = []
        errors: List[str] = []
        sent: List[int] = []
        for worker_id, message in recipients.items():
            try:
                self._workers[worker_id].send(message)
                sent.append(worker_id)
            except (BrokenPipeError, EOFError, OSError):
                dead.append(worker_id)
        replies: Dict[int, object] = {}
        for worker_id in sent:
            try:
                status, payload = self._workers[worker_id].recv()
            except (BrokenPipeError, EOFError, OSError):
                dead.append(worker_id)
                continue
            if status != "ok":
                errors.append(f"worker {worker_id} failed:\n{payload}")
                continue
            replies[worker_id] = payload
        if errors:
            raise ExecutorError("resident worker error:\n" + "\n".join(errors))
        if dead:
            raise WorkerDied(dead)
        return replies

    def execute(self, per_worker: Dict[int, List[WorkItem]]):
        """Deliver routed micro-batches; returns every reply -- (raw
        emissions, worker delta) -- in worker-id order.

        Workers execute their slices concurrently (each in its own
        process); the fixed reply order keeps delivery deterministic for
        a fixed assignment.
        """
        replies = self._command({
            worker_id: ("execute", items)
            for worker_id, items in per_worker.items() if items
        })
        return [replies[worker_id] for worker_id in sorted(replies)]

    def broadcast_watermark(self, watermark: float):
        """Punctuate every worker; returns merged hook emissions."""
        replies = self._command({
            worker_id: ("watermark", watermark)
            for worker_id in self._workers
        })
        return [output for worker_id in sorted(replies)
                for output in replies[worker_id]]

    def finish_component(self, component: str):
        """Flush one component's tasks across the owning workers."""
        owners = sorted({
            owner for (name, _i), owner in self.assignment.items()
            if name == component
        })
        replies = self._command({
            worker_id: ("finish", component) for worker_id in owners
        })
        return [output for worker_id in sorted(replies)
                for output in replies[worker_id]]

    def checkpoint(self, known: Dict[Tuple[str, int], str]):
        """Collect one hash-diff snapshot from every worker."""
        replies = self._command({
            worker_id: ("checkpoint", {
                key: digest for key, digest in known.items()
                if self.assignment.get(key) == worker_id
            })
            for worker_id in self._workers
        })
        snapshots: Dict[Tuple[str, int], Tuple[str, Optional[bytes]]] = {}
        for worker_id in sorted(replies):
            snapshots.update(replies[worker_id])
        return snapshots

    def restore(self, blobs: Dict[Tuple[str, int], bytes]):
        """Load snapshot state into every worker (survivors included)."""
        self._command({
            worker_id: ("restore", {
                key: blob for key, blob in blobs.items()
                if self.assignment.get(key) == worker_id
            })
            for worker_id in self._workers
        })


def pickle_roundtrip(obj):
    """Helper used by tests and docs to check worker pickle-safety."""
    return pickle.loads(pickle.dumps(obj))
