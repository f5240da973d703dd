"""Span tracing from outside the program, for the traced benchmark run.

The tracer wraps public functions of the program's modules (class
attributes and module globals) with timing shims that live here, so the
program itself is unchanged.  Each span records its name (the layer),
start, end, parent span, thread and the source batch it belongs to.
Spans stay in memory and are written out as JSON when the run ends.

A layer's self time is its span's duration minus the time covered by
its child spans.  On one thread, spans nest strictly, so the self times
of all spans under a root add up to the root's duration; the benchmark
checks that against the wall time it measured itself.

Forked workers inherit the wrappers.  Wrapping the worker-loop entry
points (looked up as module globals inside the child) resets the
child's copy of the tracer, records the worker's own spans, and writes
them to ``worker-<pid>.json`` when the loop exits.  A worker killed with
SIGKILL writes nothing; its respawned successor does.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

perf_counter = time.perf_counter

#: span record fields, in order
SPAN_FIELDS = ("id", "parent", "name", "start", "end", "self", "batch",
               "thread")

#: the share of wall time the layer self times may leave unexplained
ACCOUNTING_TOLERANCE = 0.02


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, out_dir: Optional[str] = None):
        self.out_dir = out_dir
        self.process = "coordinator"
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._batches = itertools.count(1)
        #: [id, parent, name, start, end, self, batch, thread]
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        #: coordinator batch -> [(worker pid, command number)] it caused
        self.links: Dict[str, List[tuple]] = defaultdict(list)
        self._installed: List[tuple] = []
        self._commands: Dict[int, int] = defaultdict(int)

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        local = self._local
        try:
            return local.stack
        except AttributeError:
            local.stack = []
            local.batch = None
            return local.stack

    def open(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        # the "self" slot accumulates child time while the span is open
        record = [next(self._ids), parent, name, perf_counter(), 0.0, 0.0,
                  self._local.batch, threading.get_ident()]
        self.spans.append(record)
        stack.append(record)
        return record

    def close(self):
        end = perf_counter()
        stack = self._local.stack
        record = stack.pop()
        duration = end - record[3]
        record[4] = end
        record[5] = duration - record[5]
        if stack:
            stack[-1][5] += duration

    def new_batch(self, record: Optional[list] = None) -> str:
        """Start a new source batch on this thread; later spans of the
        thread carry its identifier (as does ``record``, if given)."""
        self._stack()
        batch = f"{self.process}.b{next(self._batches)}"
        self._local.batch = batch
        if record is not None:
            record[6] = batch
        return batch

    def set_batch(self, batch: Optional[str]):
        self._stack()
        self._local.batch = batch

    # -- installing wrappers -----------------------------------------------

    def hook(self, owner, attr: str, make: Callable):
        """Replace ``owner.attr`` (``owner`` a class or a module) by the
        wrapper ``make(func)`` builds; :meth:`uninstall` restores it."""
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        wrapper = functools.wraps(func)(make(func))
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._installed.append((owner, attr, raw))

    def span(self, owner, attr: str, name: str,
             after: Optional[Callable] = None):
        """Record a span named ``name`` around every call of
        ``owner.attr``; ``after(tracer, record, args, result)`` runs
        once the call returned."""
        tracer = self

        def make(func):
            def wrapper(*args, **kwargs):
                record = tracer.open(name)
                try:
                    result = func(*args, **kwargs)
                finally:
                    tracer.close()
                if after is not None:
                    after(tracer, record, args, result)
                return result
            return wrapper

        self.hook(owner, attr, make)

    def timer(self, owner, attr: str, counter: str):
        """Add the duration of every call of ``owner.attr`` to
        ``counter`` without opening a span (the time stays with the
        enclosing span's layer)."""
        tracer = self

        def make(func):
            def wrapper(*args, **kwargs):
                started = perf_counter()
                try:
                    return func(*args, **kwargs)
                finally:
                    tracer.counters[counter] += perf_counter() - started
            return wrapper

        self.hook(owner, attr, make)

    def uninstall(self):
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    # -- worker processes --------------------------------------------------

    def fork_reset(self):
        """Start afresh in a forked worker: drop the parent's spans,
        counters and open stacks, keep the installed wrappers."""
        self.process = f"worker-{os.getpid()}"
        self._local = threading.local()
        self.spans = []
        self.counters = defaultdict(float)
        self.links = defaultdict(list)

    def command_sent(self, pid: Optional[int]):
        """Link the coordinator's current batch to the next command
        number of worker ``pid`` (the worker labels its spans with it)."""
        number = self._commands[pid] + 1
        self._commands[pid] = number
        batch = getattr(self._local, "batch", None)
        if batch is not None:
            self.links[batch].append((pid, number))

    def worker_loop(self, loop: Callable, inspect: Callable) -> Callable:
        """Wrap a worker command loop ``loop(state, recv, send)``.

        In the child, every received command starts a new batch label
        ``worker-<pid>.c<n>``; time blocked in ``recv`` (waiting for the
        coordinator, including unpickling the command) is the
        ``storm.executor.idle`` layer and the reply's send is
        ``storm.executor.reply``.  ``inspect(tracer, state)`` reads the
        worker's final task state into counters before the spans are
        written out."""
        tracer = self

        def traced_loop(state, recv, send):
            tracer.fork_reset()
            commands = itertools.count(1)

            def timed_recv():
                tracer.open("storm.executor.idle")
                try:
                    return recv()
                finally:
                    tracer.close()
                    tracer.set_batch(f"{tracer.process}.c{next(commands)}")

            def timed_send(reply):
                tracer.open("storm.executor.reply")
                try:
                    return send(reply)
                finally:
                    tracer.close()

            tracer.open("worker")
            try:
                return loop(state, timed_recv, timed_send)
            finally:
                tracer.close()
                inspect(tracer, state)
                tracer.dump()

        return traced_loop

    # -- output ------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "process": self.process,
            "fields": list(SPAN_FIELDS),
            "spans": self.spans,
            "counters": dict(self.counters),
            "links": {batch: pairs for batch, pairs in self.links.items()},
        }

    def dump(self, name: Optional[str] = None) -> Optional[str]:
        if self.out_dir is None:
            return None
        path = os.path.join(self.out_dir, f"{name or self.process}.json")
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, separators=(",", ":"))
        return path


# -- analysis ----------------------------------------------------------------


def load_traces(out_dir: str) -> List[dict]:
    """Every process's trace written to ``out_dir``."""
    traces = []
    for entry in sorted(os.listdir(out_dir)):
        if entry.endswith(".json"):
            with open(os.path.join(out_dir, entry)) as handle:
                traces.append(json.load(handle))
    return traces


def self_times(spans: List[list], root_name: Optional[str] = None
               ) -> Dict[str, float]:
    """Self time per span name, over every span or only those under
    roots named ``root_name``."""
    totals: Dict[str, float] = defaultdict(float)
    if root_name is None:
        for span in spans:
            totals[span[2]] += span[5]
        return dict(totals)
    keep = set()
    for span in spans:  # parents are recorded before their children
        if (span[1] == 0 and span[2] == root_name) or span[1] in keep:
            keep.add(span[0])
            totals[span[2]] += span[5]
    return dict(totals)


def durations(spans: List[list], name: str) -> List[float]:
    return [span[4] - span[3] for span in spans if span[2] == name]


def root_wall(spans: List[list], name: str) -> float:
    return sum(span[4] - span[3] for span in spans
               if span[1] == 0 and span[2] == name)


def accounting(layers: Dict[str, float], wall: float) -> Dict[str, object]:
    """Compare the sum of layer self times with an independently measured
    wall time; the remainder must stay within the tolerance."""
    covered = sum(layers.values())
    remainder = (wall - covered) / wall if wall > 0 else 0.0
    return {
        "wall_s": wall,
        "covered_s": covered,
        "remainder": remainder,
        "tolerance": ACCOUNTING_TOLERANCE,
        "ok": abs(remainder) <= ACCOUNTING_TOLERANCE,
    }
