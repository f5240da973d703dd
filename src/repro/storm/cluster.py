"""LocalCluster: executes a topology to completion in-process.

Tuples are pulled from spouts round-robin (interleaving the sources the
way concurrent spout tasks would) and pushed through the stream groupings
as ``(component, stream, rows)`` micro-batches on an explicit work stack
-- no recursion, so arbitrarily deep topologies run without hitting the
interpreter's recursion limit.

``batch_size=1`` reproduces Storm's per-tuple, pipelined execution model
exactly (the model the paper contrasts with Spark Streaming, section
8.1): every emission is routed individually and the work stack unwinds in
the same depth-first order as the seed engine's recursive dispatch.
Larger batch sizes amortize dispatch, grouping, and metric bookkeeping
over whole micro-batches; per-tuple *results* are unchanged (the engine's
operators are order-insensitive up to the final multiset), only the
interleaving differs.

The resolved ``options.executor`` selects the execution backend:
``inline`` (this module's single-threaded loop, the default), or the
staged shared-nothing ``processes`` backend of
:mod:`repro.storm.executor`, which spreads the tasks across forked
workers exchanging micro-batches.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.core.options import ExecutionOptions
from repro.obs import Observer
from repro.storm.executor import (
    ExecutorError,
    ProcessExecutor,
    Router,
    check_executor,
    execute_hop,
)
from repro.storm.metrics import TopologyMetrics
from repro.storm.topology import Bolt, Spout, Topology, TopologyError

#: one unit of pending work: rows of `stream` (emitted by `source`)
#: awaiting execution at task `task` of component `target`
_WorkItem = Tuple[str, int, str, str, List[tuple]]


class LocalCluster:
    """Instantiates every task of a topology and runs it to completion."""

    def __init__(self, topology: Topology):
        self.topology = topology
        self.metrics = TopologyMetrics()
        self._tasks: Dict[str, List[object]] = {}
        for name, spec in topology.components.items():
            instances = []
            for task_index in range(spec.parallelism):
                instance = spec.factory(task_index, spec.parallelism)
                if spec.is_spout:
                    if not isinstance(instance, Spout):
                        raise TopologyError(f"{name!r} factory did not return a Spout")
                    instance.open(task_index, spec.parallelism)
                else:
                    if not isinstance(instance, Bolt):
                        raise TopologyError(f"{name!r} factory did not return a Bolt")
                    instance.prepare(task_index, spec.parallelism)
                instances.append(instance)
            self._tasks[name] = instances
            self.metrics.register(name, spec.parallelism)
        # static routing table over the topology's own groupings: routing
        # is identical to the seed engine's per-dispatch edge walk
        self._router = Router(topology)
        self._coalesce = False
        #: per-run observability context; None = observe='off', which
        #: keeps every hot path byte-identical to the unobserved engine
        self._observer: Optional[Observer] = None

    def task(self, component: str, index: int):
        """Access a live task instance (tests, result extraction).

        After a ``processes`` run this returns the final task state
        shipped back from the owning worker."""
        return self._tasks[component][index]

    def tasks(self, component: str) -> List[object]:
        return list(self._tasks[component])

    @property
    def observer(self) -> Optional[Observer]:
        return self._observer

    def set_observer(self, observer: Optional[Observer]):
        """Attach a per-run observability context (None turns it off).

        The cluster's own counters join the observer's registry as a
        collector, so a ``/metrics`` scrape or ``profile()`` sees the
        topology counters -- and their ``partition_skew`` gauge --
        without any extra recording cost."""
        self._observer = observer
        if observer is not None:
            observer.registry.register_collector(self.metrics.collect)
            # tell the skew gauge which edges are key-partitioned: one
            # entry per component, folding all of its in-edge groupings
            groupings: Dict[str, Tuple[str, bool]] = {}
            for name in self.topology.components:
                for edge in self.topology.out_edges(name):
                    description, possible = groupings.get(
                        edge.target, ("", False))
                    label = edge.grouping.routing_description()
                    if label not in description.split("+"):
                        description = (f"{description}+{label}"
                                       if description else label)
                    groupings[edge.target] = (
                        description, possible or edge.grouping.skew_possible())
            self.metrics.groupings = groupings

    # -- execution ---------------------------------------------------------

    def run(self, max_tuples: Optional[int] = None,
            options: Optional[ExecutionOptions] = None) -> TopologyMetrics:
        """Drain all spouts, then flush bolts in topological order.

        Args:
            max_tuples: stop after this many spout emissions (inline
                only: parallel spout draining has no global cursor).
            options: execution knobs, resolved (and validated) here
                with :meth:`ExecutionOptions.resolve`; None = the
                defaults.  ``batch_size`` tuples are pulled from each
                spout per round -- 1 gives exact per-tuple interleaving;
                downstream batches derive from the spout batches but are
                not re-chunked.  ``executor`` ``'inline'`` runs every
                task in this thread, ``'processes'`` spreads them over
                ``parallelism`` shared-nothing worker processes (see
                :mod:`repro.storm.executor`); both produce the same
                result multiset and per-component totals.  ``columnar``
                flags the spouts' columnar path, and ``observe``
                attaches an :class:`~repro.obs.Observer` unless one is
                already set.
        """
        options = (options or ExecutionOptions()).resolve()
        check_executor(options.executor)
        if options.executor != "inline" and max_tuples is not None:
            raise ExecutorError(
                "max_tuples is only supported by the inline executor "
                "(parallel spout draining has no global tuple cursor)"
            )
        if options.observe != "off" and self._observer is None:
            self.set_observer(Observer(options.observe))
        self._set_columnar(options.columnar)
        started = time.perf_counter()
        try:
            if options.executor == "processes":
                return ProcessExecutor(self, options.parallelism).run(
                    batch_size=options.batch_size)
            return self._run_inline(max_tuples, options.batch_size)
        finally:
            self.metrics.elapsed = time.perf_counter() - started

    def _run_inline(self, max_tuples: Optional[int],
                    batch_size: int) -> TopologyMetrics:
        self._coalesce = batch_size > 1
        observer = self._observer
        spouts: List[Tuple[str, int, Spout]] = []
        for name, spec in self.topology.components.items():
            if spec.is_spout:
                for task_index, instance in enumerate(self._tasks[name]):
                    spouts.append((name, task_index, instance))
        pulled = 0
        active = list(spouts)
        while active:
            still_active = []
            for name, task_index, spout in active:
                limit = batch_size
                if max_tuples is not None:
                    limit = min(limit, max_tuples - pulled)
                    if limit <= 0:
                        return self.metrics
                pull_time = 0.0
                if observer is not None:
                    started = time.perf_counter()
                    emissions = spout.next_batch(limit)
                    pull_time = time.perf_counter() - started
                else:
                    emissions = spout.next_batch(limit)
                if not emissions:
                    continue
                pulled += len(emissions)
                self.inject(name, emissions, task_index, pull_time)
                if max_tuples is not None and pulled >= max_tuples:
                    return self.metrics
                # a short batch normally means exhaustion, but a columnar
                # spout's selection can thin a mid-stream chunk below the
                # limit -- keep any spout that says it has rows left
                has_more = getattr(spout, "has_more", None)
                if len(emissions) == limit or (
                        has_more is not None and has_more()):
                    still_active.append((name, task_index, spout))
            active = still_active
        self.flush_bolts()
        return self.metrics

    def _set_columnar(self, enabled: bool):
        """Flag every columnar-capable spout before draining starts.

        Must run before a parallel backend forks/starts its workers so
        the flag travels with the task instances.
        """
        for name, spec in self.topology.components.items():
            if not spec.is_spout:
                continue
            for instance in self._tasks[name]:
                if hasattr(instance, "columnar"):
                    instance.columnar = enabled

    # -- external drivers (continuous runtime) -----------------------------

    def set_coalescing(self, coalesce: bool):
        """Batch-mode routing toggle for external drivers.

        With coalescing on, consecutive emissions on one stream are routed
        as a single micro-batch; off reproduces the seed engine's
        per-tuple dispatch order.  ``run`` derives this from its
        ``batch_size``; push-based drivers (the streaming pump) set it
        once up front."""
        self._coalesce = coalesce

    def inject(self, source: str, emissions: List[Tuple[str, tuple]],
               task_index: int = 0, seconds: float = 0.0):
        """Route emissions and run them to quiescence.

        Every spout batch of :meth:`run` enters here, and so does each
        micro-batch the continuous runtime
        (:class:`~repro.streaming.cluster.StreamingCluster`) pushes into
        a *resident* topology.  The batch is attributed to task
        ``task_index`` of component ``source``, which took ``seconds``
        to produce it.  A bolt's emissions outside a delivery -- its
        end-of-stream flush or a watermark's expirations -- enter here
        too, as untraced punctuations that count no batch."""
        if not emissions:
            return
        self.metrics.record_emit(source, task_index, len(emissions))
        stack: List[_WorkItem] = []
        items = self._route_emissions(source, emissions)
        self._push(stack, items)
        observer = self._observer
        ctx = None
        if self.topology.components[source].is_spout:
            self.metrics.record_batch(source, task_index)
            if observer is not None:
                # a new source batch starts a new trace
                observer.on_execute(source, task_index, len(emissions),
                                    seconds)
                ctx = observer.root(source, task_index, len(emissions),
                                    seconds)
        trace = observer is not None and observer.trace
        self._drain(stack, [ctx] * len(items) if trace else None)

    def flush_bolts(self):
        """Run every bolt's ``finish()`` in topological order (end of
        stream): upstream components finish before downstream ones, so a
        snapshot aggregation flushes only after all its input arrived."""
        for name in self.topology.topological_order():
            if not self.topology.components[name].is_spout:
                for task_index, bolt in enumerate(self._tasks[name]):
                    self.inject(name, bolt.finish(), task_index)

    # -- work queue --------------------------------------------------------

    @staticmethod
    def _push(stack: List[_WorkItem], items: List[_WorkItem]):
        """Push routed work so the stack pops it in generation order."""
        if items:
            stack.extend(reversed(items))

    def _drain(self, stack: List[_WorkItem],
               ctx_stack: Optional[list] = None):
        """Run pending work to exhaustion (iterative depth-first).

        Under an observer every batch is also timed and the queue depth
        sampled; at the trace level each hop records one span, and
        ``ctx_stack`` stays aligned 1:1 with the work stack (a ``None``
        context marks an untraced punctuation batch)."""
        tasks = self._tasks
        metrics = self.metrics
        observer = self._observer
        trace = ctx_stack is not None
        record = None if observer is None else observer.on_execute
        while stack:
            target, task, source, stream, rows = stack.pop()
            ctx = ctx_stack.pop() if trace else None
            if observer is not None:
                observer.on_queue_depth("inline", len(stack) + 1)
            emissions, child = execute_hop(
                metrics, tasks[target][task], target, task, source, stream,
                rows, observer, record, ctx)
            if emissions:
                items = self._route_emissions(target, emissions)
                self._push(stack, items)
                if trace:
                    ctx_stack.extend([child] * len(items))

    def _route_emissions(self, source: str,
                         emissions: List[Tuple[str, tuple]]) -> List[_WorkItem]:
        """Turn one component's emissions into routed work items.

        In per-tuple mode every emission is routed individually (exactly
        the seed engine's recursive dispatch order); in batch mode
        consecutive emissions on the same stream are routed as one batch.
        """
        return self._router.route(source, emissions, coalesce=self._coalesce)
