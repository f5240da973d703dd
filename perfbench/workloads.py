"""The benchmark's three workloads, their references and their metrics.

Each workload drives the system only through its public entry points
(``SqlSession.plan``, ``run_plan``, ``QueryBroker.subscribe_plan``,
``BrokerSubscription.pop``) and checks every output against a reference
computed here from the same generated inputs.

``measure`` gives the end-to-end metrics with tracing off; ``trace``
runs the same job untraced and traced, and derives the per-layer
metrics from the traced run's spans (see :mod:`perfbench.trace`).
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import shutil
import signal
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.optimizer import OptimizerOptions
from repro.core.options import ExecutionOptions
from repro.core.schema import Relation, Schema
from repro.datasets.tpch import TPCHGenerator
from repro.engine.runner import run_plan
from repro.serving import AdmissionError, QueryBroker
from repro.sql.catalog import SqlSession
from repro.streaming.deltas import SubscriberOverflow

from perfbench import layers, reference
from perfbench.source import ScheduledSource, join_schedule
from perfbench.stats import (
    CALIBRATION_REFERENCE_S,
    MIN_SAMPLES_BEYOND,
    calibrate,
    cpu_seconds,
    peak_rss_mb,
    percentile,
)
from perfbench.trace import (
    Tracer,
    accounting,
    durations,
    load_traces,
    root_wall,
    self_times,
)

perf_counter = time.perf_counter

#: rows pulled from each source per round (finite workloads)
BATCH_SIZE = 512
#: joiner tasks the optimizer spreads each join over
MACHINES = 8
#: worker processes under executor='processes' (the box has 2 cores)
PARALLELISM = 2
#: set-ups per run; setup_s is their median
SETUP_REPEATS = 5
#: finite workloads run the compiled plan at least this often
MIN_REPEATS = 3

#: per-layer metrics with their units, in report order.  A layer the
#: workload never calls reads 0 (the "bypass" prediction).
PER_LAYER_UNITS = {
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "recovery_s": "s",
    "sql.compile_s": "s",
    "engine.scan_s": "s",
    "engine.scan_rows": "count",
    "engine.agg_s": "s",
    "engine.agg_rows": "count",
    "engine.sink_s": "s",
    "storm.route_s": "s",
    "storm.route_rows": "count",
    "storm.coordinator_self_s": "s",
    "core.convert_s": "s",
    "core.columnar_share": "share",
    "joins.kernel_s": "s",
    "joins.rows_in": "count",
    "joins.rows_out": "count",
    "joins.delete_rows": "count",
    "joins.work": "count",
    "joins.state_rows": "count",
    "partitioning.skew_degree": "ratio",
    "partitioning.replication_factor": "ratio",
    "storm.executor.fork_s": "s",
    "storm.executor.send_s": "s",
    "storm.executor.wait_s": "s",
    "storm.executor.bytes_per_row": "B/row",
    "storm.executor.round_trips": "count",
    "storm.executor.worker_busy_share": "share",
    "storm.executor.speedup_vs_inline": "ratio",
    "streaming.rounds": "count",
    "streaming.pump_s": "s",
    "streaming.round_s_p50": "s",
    "streaming.round_s_p99": "s",
    "streaming.source_lag_p99_ms": "ms",
    "streaming.backlog_max_rows": "count",
    "checkpoint.commits": "count",
    "checkpoint.commit_s": "s",
    "checkpoint.bytes_per_commit": "B",
    "checkpoint.skip_ratio": "share",
    "checkpoint.restore_s": "s",
    "checkpoint.replayed_rows": "count",
    "serving.fanout_s": "s",
    "serving.deltas_published": "count",
    "serving.ring_backlog_max": "count",
    "serving.shed": "count",
    "obs.record_s": "s",
    "obs.record_calls": "count",
    "trace.overhead": "share",
    "trace.remainder": "share",
}

#: span name -> per-layer metric holding its summed self time
SPAN_METRICS = {
    "engine.scan": "engine.scan_s",
    "engine.agg": "engine.agg_s",
    "engine.sink": "engine.sink_s",
    "storm.route": "storm.route_s",
    "core.convert": "core.convert_s",
    "joins.kernel": "joins.kernel_s",
    "streaming.round": "streaming.pump_s",
    "checkpoint.commit": "checkpoint.commit_s",
    "checkpoint.restore": "checkpoint.restore_s",
    "serving.fanout": "serving.fanout_s",
    "obs": "obs.record_s",
}

#: counters summed over every process of the traced run
COUNTER_METRICS = (
    "engine.scan_rows", "engine.agg_rows", "storm.route_rows",
    "joins.rows_in", "joins.rows_out", "joins.delete_rows",
    "storm.executor.fork_s", "storm.executor.send_s",
    "storm.executor.wait_s", "storm.executor.round_trips",
)


@dataclass
class Outcome:
    """What one run reports: correctness counts, metrics, and notes."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def fail(self, count: int, why: str):
        if count:
            self.failed += count
            self.notes.append(f"FAILED x{count}: {why}")

    @property
    def correct(self) -> bool:
        return self.failed == 0

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def tail(values: List[float], q: float) -> float:
    """``q``-th percentile, or the largest value when the sample is too
    small to support it (0 for no sample)."""
    if not values:
        return 0.0
    try:
        return percentile(values, q)
    except ValueError:
        return max(values)


def host_speed(probes: List[float], outcome: Outcome) -> float:
    """How much slower than the reference the host ran: the median of
    :func:`~perfbench.stats.calibrate` probes interleaved with the
    workload's runs, over the probe's reference time."""
    factor = statistics.median(probes) / CALIBRATION_REFERENCE_S
    outcome.notes.append(
        f"host speed: calibration probe median "
        f"{statistics.median(probes) * 1000:.2f} ms over {len(probes)} "
        f"probes, {factor:.3f}x the {CALIBRATION_REFERENCE_S * 1000:g} ms "
        f"reference")
    return factor


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def per_layer(traces: List[dict], root: str, wall: float, outcome: Outcome):
    """Per-layer metrics common to every workload, and every counter
    summed over the processes, from the traced run's span files; adds
    the accounting check to ``outcome``."""
    values = {name: 0.0 for name in PER_LAYER_UNITS}
    counters: Counter = Counter()
    busy = idle = 0.0
    obs_calls = 0
    worker_layers: Counter = Counter()
    for trace in traces:
        spans = trace["spans"]
        for span_name, total in self_times(spans).items():
            metric = SPAN_METRICS.get(span_name)
            if metric is not None:
                values[metric] += total
        obs_calls += sum(1 for span in spans if span[2] == "obs")
        counters.update(trace["counters"])
        if trace["process"].startswith("worker-"):
            life = root_wall(spans, "worker")
            waiting = sum(durations(spans, "storm.executor.idle"))
            busy += life - waiting
            idle += waiting
            worker_self = self_times(spans, "worker")
            worker_layers.update(worker_self)
            check = accounting(worker_self, life)
            if not check["ok"]:
                outcome.fail(1, f"{trace['process']} self times leave "
                                f"{check['remainder']:+.1%} of its wall "
                                f"time unexplained")
    for name in COUNTER_METRICS:
        values[name] = float(counters.get(name, 0.0))
    values["obs.record_calls"] = float(obs_calls)
    values["storm.executor.worker_busy_share"] = (
        busy / (busy + idle) if busy + idle > 0 else 0.0)
    coordinator = next(t for t in traces if t["process"] == "coordinator")
    layers_self = self_times(coordinator["spans"], root)
    values["storm.coordinator_self_s"] = layers_self.get(root, 0.0)
    check = accounting(layers_self, wall)
    values["trace.remainder"] = check["remainder"]
    outcome.notes.append(
        f"accounting: layer self times cover {check['covered_s']:.4f} s "
        f"of {check['wall_s']:.4f} s wall (remainder "
        f"{check['remainder']:+.2%}, tolerance "
        f"±{check['tolerance']:.0%})")
    for layer, seconds in sorted(layers_self.items(),
                                 key=lambda item: -item[1]):
        outcome.notes.append(f"  {layer:<24}{seconds:10.4f} s "
                             f"{seconds / wall:7.1%}")
    if not check["ok"]:
        outcome.fail(1, "coordinator self times do not account for the "
                        "run's wall time")
    if worker_layers:
        life = sum(worker_layers.values())
        outcome.notes.append(
            f"workers: self times over {life:.4f} s of worker life "
            f"(busy share {busy / (busy + idle):.1%})")
        for layer, seconds in worker_layers.most_common():
            outcome.notes.append(f"  {layer:<24}{seconds:10.4f} s "
                                 f"{seconds / life:7.1%}")
    return values, counters


def finite_latency_note(runs: int, rows: int) -> str:
    return (f"{runs} untraced runs of {rows} input rows; latency is the "
            f"time from submitting the compiled plan to its complete "
            f"result: latency_p50_ms is the median run and, as fewer than "
            f"{100 * (MIN_SAMPLES_BEYOND + 1)} runs support no 99th "
            f"percentile, latency_p99_ms is the slowest run")


def report_layers(outcome: Outcome, values: Dict[str, float]):
    for name, unit in PER_LAYER_UNITS.items():
        outcome.metrics[name] = (float(values[name]), unit)


# -- finite workloads -------------------------------------------------------


class FiniteWorkload:
    """A finite query compiled through SQL and run with ``run_plan``."""

    name = ""
    sql = ""
    executor = "inline"
    #: scale the run's timings, not only the compile's, by the
    #: host-speed probe.  The probe measures the processor the benchmark
    #: process runs on, which is what a single-process run's times
    #: follow; with the work spread over worker processes it does not
    #: track them and only adds noise.
    speed_scaled = False

    def __init__(self, seed: int):
        self.relations = self.inputs(seed)
        self.expected = Counter(self.reference_rows())
        self.input_rows = sum(len(r.rows) for r in self.relations)

    def inputs(self, seed: int) -> List[Relation]:
        raise NotImplementedError

    def reference_rows(self) -> List[tuple]:
        raise NotImplementedError

    def session(self) -> SqlSession:
        session = SqlSession(options=OptimizerOptions(machines=MACHINES))
        for relation in self.relations:
            session.register(relation)
        return session

    def options(self, executor: Optional[str] = None) -> ExecutionOptions:
        executor = executor or self.executor
        return ExecutionOptions(
            batch_size=BATCH_SIZE, executor=executor,
            parallelism=PARALLELISM if executor == "processes" else None)

    def check(self, result, outcome: Outcome):
        outcome.attempted += 1
        bad = reference.mismatches(self.expected, Counter(result.results))
        outcome.fail(1 if bad else 0,
                     f"{bad} result rows differ from the reference")

    def run_once(self, plan, outcome: Outcome,
                 executor: Optional[str] = None):
        """One execution of the compiled plan, timed and checked;
        returns the result, its wall time and its CPU time (workers
        included), or ``(None, None, None)`` if it raised."""
        gc.collect()  # start every run from a collected heap
        cpu = cpu_seconds()
        started = perf_counter()
        try:
            result = run_plan(plan, options=self.options(executor))
        except Exception as exc:  # counted, reported, never hidden
            outcome.attempted += 1
            outcome.fail(1, f"run_plan raised {type(exc).__name__}: {exc}")
            return None, None, None
        elapsed = perf_counter() - started
        cpu = cpu_seconds() - cpu
        self.check(result, outcome)
        return result, elapsed, cpu

    def measure(self, seconds: float) -> Outcome:
        outcome = Outcome()
        session = self.session()
        setups, setup_probes, probes = [], [], []
        plan = None
        for _ in range(SETUP_REPEATS):
            setup_probes.append(calibrate())
            gc.collect()
            started = perf_counter()
            plan = session.plan(self.sql)
            setups.append(perf_counter() - started)
        self.run_once(plan, outcome)  # warm-up, checked but not timed
        times, cpus = [], []
        deadline = perf_counter() + seconds
        while len(times) < MIN_REPEATS or perf_counter() < deadline:
            if self.speed_scaled:
                probes.append(calibrate())
            _result, elapsed, cpu = self.run_once(plan, outcome)
            if elapsed is None:
                if perf_counter() >= deadline:
                    break
                continue
            times.append(elapsed)
            cpus.append(cpu)
        if not times:
            raise RuntimeError(f"{self.name}: every run failed")
        run_s = statistics.median(times)
        setup_s = statistics.median(setups)
        rate = self.input_rows / run_s
        cpu_us = statistics.median(cpus) * 1e6 / self.input_rows
        # the compile runs in this process, which the probe measures
        factor = host_speed(setup_probes + probes, outcome)
        outcome.notes.append(f"setup_s scaled to the reference speed; "
                             f"unscaled {setup_s:.6g}")
        setup_s /= factor
        if self.speed_scaled:
            outcome.notes.append(
                f"rows_per_s and cpu_us_per_row scaled to the reference "
                f"speed; unscaled {rate:.6g} and {cpu_us:.6g}")
            rate, cpu_us = rate * factor, cpu_us / factor
        outcome.metrics.update({
            "setup_s": (setup_s, "s"),
            "rows_per_s": (rate, "rows/s"),
            "cpu_us_per_row": (cpu_us, "us/row"),
            "peak_rss_mb": (peak_rss_mb(), "MiB"),
            "latency_p50_ms": (run_s * 1000.0, "ms"),
            "latency_p99_ms": (max(times) * 1000.0, "ms"),
        })
        outcome.notes.append(finite_latency_note(len(times), self.input_rows))
        return outcome

    def traced_run(self, session, out_dir: str, outcome: Outcome,
                   executor: Optional[str] = None):
        """Compile and run once with every layer wrapped; returns the
        run's result and the wall time measured around ``run_plan``."""
        gc.collect()
        tracer = Tracer(fresh_dir(out_dir))
        layers.install(tracer)
        try:
            tracer.open("sql.compile")
            plan = session.plan(self.sql)
            tracer.close()
            started = perf_counter()
            tracer.open("run")
            try:
                result = run_plan(plan, options=self.options(executor))
            finally:
                tracer.close()
            wall = perf_counter() - started
        finally:
            tracer.uninstall()
        tracer.dump()
        self.check(result, outcome)
        return result, wall

    def trace(self, seconds: float, out_dir: str) -> Outcome:
        outcome = Outcome()
        session = self.session()
        plan = session.plan(self.sql)
        self.run_once(plan, Outcome())  # warm-up, not reported
        untraced, traced, inline = [], [], []
        deadline = perf_counter() + seconds
        while not traced or perf_counter() < deadline:
            _r, elapsed, _cpu = self.run_once(plan, outcome)
            if elapsed is not None:
                untraced.append(elapsed)
            if self.executor != "inline":
                _r, wall = self.traced_run(
                    session, out_dir + "-inline", outcome, executor="inline")
                inline.append(wall)
            result, wall = self.traced_run(session, out_dir, outcome)
            traced.append(wall)
        traces = load_traces(out_dir)
        values, counters = per_layer(traces, "run", traced[-1], outcome)
        coordinator = next(t for t in traces if t["process"] == "coordinator")
        values["sql.compile_s"] = root_wall(coordinator["spans"],
                                            "sql.compile")
        metrics = result.metrics
        total = metrics.columnar_rows + metrics.row_rows
        values["core.columnar_share"] = (
            metrics.columnar_rows / total if total else 0.0)
        values["joins.work"] = float(sum(sum(w) for w in
                                         result.join_work.values()))
        values["joins.state_rows"] = float(sum(sum(s) for s in
                                               result.join_state.values()))
        join = result.plan.joins[-1].name
        values["partitioning.skew_degree"] = result.skew_degree(join)
        values["partitioning.replication_factor"] = \
            result.replication_factor(join)
        values["storm.executor.bytes_per_row"] = (
            counters["storm.executor.pipe_bytes"] / self.input_rows)
        if inline:
            values["storm.executor.speedup_vs_inline"] = (
                statistics.median(inline) / statistics.median(traced))
        values["trace.overhead"] = (
            statistics.median(traced) / statistics.median(untraced) - 1.0)
        values["latency_p50_ms"] = statistics.median(untraced) * 1000.0
        values["latency_p99_ms"] = max(untraced) * 1000.0
        report_layers(outcome, values)
        outcome.notes.append(
            f"{len(traced)} traced and {len(untraced)} untraced runs; "
            f"spans written to {out_dir}")
        outcome.notes.append(finite_latency_note(len(untraced),
                                                 self.input_rows))
        return outcome


class ChainInline(FiniteWorkload):
    """R(x,y) ⋈ S(y,z) ⋈ T(z,t), uniform keys, on the inline executor.

    The single-threaded baseline: the join kernel, routing/hashing,
    columnar conversion and aggregation do almost all the work, while
    transport, checkpoints and fan-out are bypassed.
    """

    name = "chain-inline"
    executor = "inline"
    speed_scaled = True
    sql = ("SELECT T.t, COUNT(*) FROM R, S, T "
           "WHERE R.y = S.y AND S.z = T.z GROUP BY T.t")
    ROWS = 20_000
    GROUPS = 64

    def inputs(self, seed: int) -> List[Relation]:
        rng = random.Random(seed)
        n, half = self.ROWS, self.ROWS // 2
        return [
            Relation("R", Schema.of("x", "y"),
                     [(rng.randrange(n), rng.randrange(half))
                      for _ in range(n)]),
            Relation("S", Schema.of("y", "z"),
                     [(rng.randrange(half), rng.randrange(half))
                      for _ in range(n)]),
            Relation("T", Schema.of("z", "t"),
                     [(rng.randrange(half), rng.randrange(self.GROUPS))
                      for _ in range(n)]),
        ]

    def reference_rows(self) -> List[tuple]:
        r, s, t = (relation.rows for relation in self.relations)
        return reference.grouped_rows(reference.chain_count(r, s, t))


class SkewProcesses(FiniteWorkload):
    """TPC-H lineitem ⋈ partsupp ⋈ part with Zipf-2 skew on
    ``lineitem.partkey``, grouped by brand, on ``processes``.

    Exercises the optimizer's statistics and skew marking (it picks the
    hybrid hypercube), replication, pickled batches through pipes and
    worker imbalance.
    """

    name = "skew-processes"
    executor = "processes"
    sql = ("SELECT part.brand, COUNT(*) FROM lineitem, partsupp, part "
           "WHERE lineitem.partkey = partsupp.partkey "
           "AND lineitem.suppkey = partsupp.suppkey "
           "AND partsupp.partkey = part.partkey GROUP BY part.brand")
    SCALE = 20
    SKEW = 2.0
    TABLES = ("lineitem", "partsupp", "part")
    #: sha256 of the generated tables; a program change that alters
    #: them fails the benchmark instead of measuring another workload
    DIGEST = "e7cc52c961c8eec182554f440a713a31c610fb8a8d076ac70b331937e8b98a01"

    def inputs(self, seed: int) -> List[Relation]:
        tables = TPCHGenerator(scale=self.SCALE, skew=self.SKEW,
                               seed=0).generate(list(self.TABLES))
        digest = hashlib.sha256()
        for name in sorted(tables):
            digest.update(name.encode())
            digest.update(repr(tables[name].rows).encode())
        if digest.hexdigest() != self.DIGEST:
            raise InputsChanged(
                f"TPCHGenerator(scale={self.SCALE}, skew={self.SKEW}, "
                f"seed=0) no longer produces the pinned tables "
                f"(sha256 {digest.hexdigest()}, expected {self.DIGEST})")
        # the seed picks the arrival order; the rows themselves are pinned
        rng = random.Random(seed)
        relations = []
        for name in self.TABLES:
            rows = list(tables[name].rows)
            rng.shuffle(rows)
            relations.append(Relation(name, tables[name].schema, rows))
        return relations

    def reference_rows(self) -> List[tuple]:
        lineitem, partsupp, part = (r.rows for r in self.relations)
        return reference.grouped_rows(
            reference.tpch_brand_count(lineitem, partsupp, part))


class InputsChanged(RuntimeError):
    """Generated inputs no longer match their pinned digest."""


# -- the open-loop serving workload -----------------------------------------


@dataclass
class Episode:
    """One resident topology's life in the stream-serve workload."""

    setup_s: float
    #: due-to-pop latency of every insertion delta at the probe (s)
    samples: List[float]
    recovery_s: Optional[float]
    #: events released by the kill, over the window they were due in
    released: int
    window_s: float
    #: CPU time of the benchmark process over the schedule
    cpu_s: float
    #: CPU time of the benchmark process and its workers over the
    #: whole episode, set-up and teardown included
    cpu_total_s: float
    backlog_max: int
    resident: object
    sources: Dict[str, ScheduledSource]
    subscriptions: list
    broker: object


@dataclass
class EpisodeStats:
    """The numbers kept from one episode once its topology is gone."""

    setup_s: float
    p50_ms: float
    p99_ms: float
    samples: int
    recovery_s: Optional[float]
    released: int
    window_s: float
    cpu_s: float
    cpu_total_s: float
    events: int

    @classmethod
    def of(cls, episode: Episode) -> "EpisodeStats":
        samples = [s * 1000.0 for s in episode.samples]
        try:
            p50, p99 = percentile(samples, 50), percentile(samples, 99)
        except ValueError as exc:
            raise RuntimeError(f"stream-serve episode: {exc}") from None
        return cls(
            setup_s=episode.setup_s, p50_ms=p50, p99_ms=p99,
            samples=len(samples), recovery_s=episode.recovery_s,
            released=episode.released, window_s=episode.window_s,
            cpu_s=episode.cpu_s, cpu_total_s=episode.cpu_total_s,
            events=sum(len(s) for s in episode.sources.values()))


class StreamServe:
    """An unwindowed R ⋈ S equi-join fed on a fixed schedule, served to
    several subscribers across tenants, with one worker killed after
    each latency window.

    The only workload that exercises the streaming pump, checkpoint
    commit and restore, delta fan-out, the obs metrics path and the
    join's delete path.  A run is a warm-up episode plus several
    measured episodes; each episode starts a fresh topology, releases a
    WINDOW_S schedule, kills a worker and recovers over TAIL_S more.
    The unwindowed join's state grows for as long as a topology lives,
    so episodes of fixed length keep every run's state, checkpoint size
    and latency comparable whatever ``--seconds`` is.
    """

    name = "stream-serve"
    sql = "SELECT R.k, R.id, R.due, S.k, S.id, S.due FROM R, S WHERE R.k = S.k"
    #: insert events per second, R and S together
    RATE = 4000.0
    #: key-range drift (keys per second) and width: each key is live for
    #: width / drift = 1 s, so the match rate stays constant
    DRIFT = 2000.0
    WIDTH = 2000
    #: events falling due together
    BURST = 1000
    #: latency window of one episode; the kill comes at its end
    WINDOW_S = 2.0
    #: schedule after the kill, whose first deltas time the recovery
    TAIL_S = 0.75
    #: the kill comes this long before the burst due at WINDOW_S
    KILL_LEAD_S = 0.01
    SUBSCRIBERS = 16
    TENANTS = 4
    MACHINES = 4
    #: give up on an episode this long after its schedule ends
    GRACE_S = 60.0

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.episodes = max(3, round(seconds / self.WINDOW_S))
        self.session = SqlSession(
            options=OptimizerOptions(machines=self.MACHINES))
        for name in ("R", "S"):
            self.session.register(
                Relation(name, Schema.of("k", "id", "due"), []))

    def schedule(self, index: int):
        """Episode ``index``'s schedule and its reference result: the
        R rows never retracted, joined with every S row."""
        schedule = join_schedule(self.seed * 1000 + index,
                                 self.WINDOW_S + self.TAIL_S, self.RATE,
                                 self.DRIFT, self.WIDTH, burst=self.BURST)
        retracted = schedule.retracted
        kept_r = [row for _due, stream, row in schedule.r_events
                  if stream == "R" and row not in retracted]
        s_rows = [row for _due, _stream, row in schedule.s_events]
        return schedule, reference.equi_join(kept_r, s_rows, 0, 0)

    def options(self) -> ExecutionOptions:
        return ExecutionOptions(
            executor="processes", parallelism=PARALLELISM,
            observe="metrics", max_buffer=1 << 16)

    def attach(self, plan, schedule, outcome: Outcome):
        """Admit the query and attach every subscriber; returns the
        broker, subscriptions, sources and the set-up time (submission
        until the first poll of the benchmark's source)."""
        sources = {"R": ScheduledSource(schedule.r_events),
                   "S": ScheduledSource(schedule.s_events)}
        broker = QueryBroker(
            max_topologies=1, max_subscribers_per_topology=self.SUBSCRIBERS,
            max_subscribers_per_tenant=self.SUBSCRIBERS)
        options = self.options()
        subscriptions = []
        started = perf_counter()
        for i in range(self.SUBSCRIBERS):
            outcome.attempted += 1
            try:
                subscriptions.append(broker.subscribe_plan(
                    plan, options=options, tenant=f"tenant{i % self.TENANTS}",
                    sources=sources))
            except AdmissionError as exc:
                outcome.fail(1, f"admission refused: {exc}")
        attached = perf_counter()
        deadline = attached + self.GRACE_S
        while all(s.first_poll is None for s in sources.values()):
            if perf_counter() > deadline:
                raise RuntimeError("the query never polled its sources")
            time.sleep(0.0002)
        first_poll = min(s.first_poll for s in sources.values()
                         if s.first_poll is not None)
        return broker, subscriptions, sources, max(attached, first_poll) - started

    def episode(self, plan, index: int, outcome: Outcome,
                sample_backlog: bool = False) -> Episode:
        """Set up, release the schedule, consume every feed, kill a
        worker when the latency window closes, and check every
        subscriber's final state against the reference."""
        schedule, expected = self.schedule(index)
        expected_rows = sum(expected.values())
        # collect the previous episode's garbage now, not mid-window
        gc.collect()
        cpu_total = cpu_seconds()
        broker, subscriptions, sources, setup = self.attach(
            plan, schedule, outcome)
        if not subscriptions:
            raise RuntimeError("no subscriber was admitted")
        probe_index = len(subscriptions) - 1
        probe = subscriptions[probe_index]
        resident = probe.resident
        folds = [Counter() for _ in subscriptions]
        live = set(range(len(subscriptions)))
        # the probe is drained first in every cycle: its latency should
        # measure the system, not the consumer's turn order
        order = [probe_index] + list(range(probe_index))
        samples: List[float] = []
        backlog_max = 0
        released = 0
        shed = 0
        killed: Optional[float] = None
        recovery: Optional[float] = None

        def take(index: int, delta):
            nonlocal recovery
            folds[index][delta.row] += delta.sign
            if index == probe_index and delta.sign > 0:
                now = perf_counter()
                due = start + max(delta.row[2], delta.row[5]) * 1e-6
                if killed is None:
                    samples.append(now - due)
                elif recovery is None and due > killed:
                    recovery = now - killed

        cpu_started = time.process_time()
        start = perf_counter() + 0.002
        for source in sources.values():
            source.start(start)
        # a burst falls due KILL_LEAD_S after the kill: the recovery is
        # timed on that burst, not on the gap before the next one
        kill_at = start + self.WINDOW_S - self.KILL_LEAD_S
        give_up = kill_at + self.TAIL_S + self.GRACE_S
        while True:
            popped = 0
            if sample_backlog:
                backlog_max = max([backlog_max] + [
                    subscriptions[i].subscription.backlog for i in live])
            for i in order:
                if i not in live:
                    continue
                subscription = subscriptions[i]
                while True:
                    try:
                        delta = subscription.pop()
                    except SubscriberOverflow:
                        shed += 1
                        live.discard(i)
                        break
                    if delta is None:
                        break
                    popped += 1
                    take(i, delta)
            now = perf_counter()
            if killed is None and now >= kill_at:
                released = sum(s.cursor for s in sources.values())
                os.kill(resident.query.worker_pids()[0], signal.SIGKILL)
                killed = perf_counter()
            if all(subscriptions[i].closed for i in live):
                break
            if now > give_up:
                outcome.fail(1, "the query did not finish its schedule")
                break
            if not popped and probe_index in live:
                try:
                    delta = probe.pop(block=True, timeout=0.002)
                except SubscriberOverflow:
                    continue  # handled by the next cycle's drain
                if delta is not None:
                    take(probe_index, delta)
        cpu = time.process_time() - cpu_started
        broker.close()
        cpu_total = cpu_seconds() - cpu_total
        if resident.error:
            outcome.fail(1, f"the query failed: {resident.error}")
        outcome.fail(shed, "subscribers shed")
        for i, fold in enumerate(folds):
            outcome.attempted += expected_rows
            if i not in live:
                outcome.fail(expected_rows, f"subscriber {i} was shed")
                continue
            negative = -sum(count for count in fold.values() if count < 0)
            bad = negative + reference.mismatches(expected, +fold)
            outcome.fail(bad, f"subscriber {i}: rows lost or duplicated")
        if killed is None:
            outcome.fail(1, "the schedule ended before the kill")
        elif recovery is None:
            outcome.fail(1, "no delta for an event due after the kill")
        return Episode(
            setup_s=setup, samples=samples, recovery_s=recovery,
            released=released, window_s=(killed or perf_counter()) - start,
            cpu_s=cpu, cpu_total_s=cpu_total, backlog_max=backlog_max,
            resident=resident,
            sources=sources, subscriptions=subscriptions, broker=broker)

    def summary(self, episodes: List["EpisodeStats"],
                outcome: Outcome) -> Dict[str, float]:
        """Latency and recovery over episodes measured untraced: each
        episode's percentile, then the median over episodes."""
        p50 = [e.p50_ms for e in episodes]
        p99 = [e.p99_ms for e in episodes]
        recoveries = [e.recovery_s for e in episodes
                      if e.recovery_s is not None]
        counts = [e.samples for e in episodes]
        outcome.notes.append(
            f"{len(episodes)} untraced episodes of {self.WINDOW_S:g} s at "
            f"{self.RATE:.0f} inserts/s in bursts of {self.BURST} (plus "
            f"retractions); latency percentiles are medians over episodes "
            f"of each episode's percentile, from {min(counts)}-"
            f"{max(counts)} insertion deltas per episode at the probe")
        outcome.notes.append(
            "per episode p50 ms: " + " ".join(f"{v:.2f}" for v in p50))
        outcome.notes.append(
            "per episode p99 ms: " + " ".join(f"{v:.2f}" for v in p99))
        outcome.notes.append(
            "per episode recovery s: "
            + " ".join(f"{v:.4f}" for v in recoveries))
        return {
            "latency_p50_ms": statistics.median(p50),
            "latency_p99_ms": statistics.median(p99),
            "recovery_s": (statistics.median(recoveries)
                           if recoveries else 0.0),
        }

    def measure(self, seconds: float) -> Outcome:
        outcome = Outcome()
        plan = self.session.plan(self.sql)
        self.episode(plan, 0, outcome)  # warm-up, checked but not reported
        # keep numbers only: a retained topology would grow the heap
        # every later episode's garbage collections have to scan
        episodes = [EpisodeStats.of(self.episode(plan, index, outcome))
                    for index in range(1, self.episodes + 1)]
        summary = self.summary(episodes, outcome)
        outcome.metrics.update({
            "setup_s": (statistics.median(e.setup_s for e in episodes), "s"),
            "rows_per_s": (sum(e.released for e in episodes)
                           / sum(e.window_s for e in episodes), "rows/s"),
            "cpu_us_per_row": (sum(e.cpu_total_s for e in episodes) * 1e6
                               / sum(e.events for e in episodes), "us/row"),
            "peak_rss_mb": (peak_rss_mb(), "MiB"),
            "latency_p50_ms": (summary["latency_p50_ms"], "ms"),
            "latency_p99_ms": (summary["latency_p99_ms"], "ms"),
            "recovery_s": (summary["recovery_s"], "s"),
        })
        return outcome

    def trace(self, seconds: float, out_dir: str) -> Outcome:
        outcome = Outcome()
        plan = self.session.plan(self.sql)
        self.episode(plan, 0, outcome)  # warm-up
        untraced, traced = [], []
        index = 1
        run = None
        deadline = perf_counter() + seconds
        while run is None or perf_counter() < deadline:
            untraced.append(EpisodeStats.of(self.episode(plan, index, outcome)))
            tracer = Tracer(fresh_dir(out_dir))
            layers.install(tracer)
            try:
                tracer.open("sql.compile")
                traced_plan = self.session.plan(self.sql)
                tracer.close()
                run = self.episode(traced_plan, index + 1, outcome,
                                   sample_backlog=True)
            finally:
                tracer.uninstall()
            tracer.dump()
            traced.append(run.cpu_s)
            index += 2
        traces = load_traces(out_dir)
        coordinator = next(t for t in traces if t["process"] == "coordinator")
        spans = coordinator["spans"]
        values, counters = per_layer(
            traces, "streaming.driver", root_wall(spans, "streaming.driver"),
            outcome)
        values["sql.compile_s"] = root_wall(spans, "sql.compile")
        query = run.resident.query
        metrics = query.cluster.metrics
        total = metrics.columnar_rows + metrics.row_rows
        values["core.columnar_share"] = (
            metrics.columnar_rows / total if total else 0.0)
        values["joins.work"] = float(counters["joins.work"])
        values["joins.state_rows"] = float(counters["joins.state_rows"])
        values["partitioning.skew_degree"] = metrics.skew_degree("join")
        values["partitioning.replication_factor"] = \
            metrics.replication_factor("join", ["R", "S"])
        events = sum(len(s) for s in run.sources.values())
        values["storm.executor.bytes_per_row"] = (
            counters["storm.executor.pipe_bytes"] / events)
        rounds = durations(spans, "streaming.round")
        values["streaming.rounds"] = float(len(rounds))
        values["streaming.round_s_p50"] = tail(rounds, 50)
        values["streaming.round_s_p99"] = tail(rounds, 99)
        lags = [lag * 1000.0 for s in run.sources.values() for lag in s.lags]
        values["streaming.source_lag_p99_ms"] = tail(lags, 99)
        values["streaming.backlog_max_rows"] = float(
            max(s.backlog_max for s in run.sources.values()))
        checkpoints = query.checkpoint_stats()
        values["checkpoint.commits"] = float(checkpoints["commits"])
        partitions = (checkpoints["partitions_persisted"]
                      + checkpoints["partitions_skipped"])
        values["checkpoint.bytes_per_commit"] = (
            checkpoints["bytes_persisted"] / checkpoints["commits"]
            if checkpoints["commits"] else 0.0)
        values["checkpoint.skip_ratio"] = (
            checkpoints["partitions_skipped"] / partitions
            if partitions else 0.0)
        values["checkpoint.replayed_rows"] = float(checkpoints["replayed_rows"])
        values["serving.deltas_published"] = float(sum(
            s.subscription.published for s in run.subscriptions))
        values["serving.ring_backlog_max"] = float(run.backlog_max)
        values["serving.shed"] = float(sum(
            counters.get("shed", 0) for counters in
            run.broker.metrics.snapshot().values()))
        values.update(self.summary(untraced, outcome))
        values["trace.overhead"] = (
            statistics.median(traced)
            / statistics.median(e.cpu_s for e in untraced) - 1.0)
        report_layers(outcome, values)
        outcome.notes.append(
            f"{len(traced)} traced and {len(untraced)} untraced episodes; "
            f"trace.overhead compares the benchmark process's CPU time per "
            f"episode; spans of the last traced episode written to "
            f"{out_dir}")
        return outcome


FINITE = {ChainInline.name: ChainInline, SkewProcesses.name: SkewProcesses}
NAMES = (ChainInline.name, SkewProcesses.name, StreamServe.name)


def make(name: str, seed: int, seconds: float):
    if name == StreamServe.name:
        return StreamServe(seed, seconds)
    return FINITE[name](seed)
