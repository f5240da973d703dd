"""Throughput of the parallel execution backends vs the inline loop.

Runs the CPU-bound multi-way join workload of :mod:`repro.bench` (the
R-S-T chain join whose compute sits in 8 hypercube-partitioned joiner
tasks) through every backend at parallelism 4 and micro-batch size 512.

The per-backend timings are recorded through the ``benchmark`` fixture so
the CI bench job's ``--benchmark-json`` output contains them; the gating
script (``benchmarks/check_regression.py``) compares those stats against
the committed ``BENCH_baseline.json``.

The headline assertion -- the shared-nothing process backend beats the
single-threaded inline loop by >= 1.5x -- needs real cores; on fewer than
four the bound scales down and on a single core it is skipped (forked
workers cannot beat one thread on one core).
"""

import os
from collections import Counter

import pytest

from repro.bench import multiway_join_plan
from repro.core.options import ExecutionOptions
from repro.engine import run_plan

from benchmarks.conftest import record_table

N_ROWS = 4000
MACHINES = 8
BATCH_SIZE = 512
PARALLELISM = 4
ROUNDS = 3

#: executor -> (min seconds, result multiset), filled by the benchmarks
#: below and consumed by the assertion tests (pytest runs files in order)
_MEASURED = {}

BACKENDS = [
    ("inline", None),
    ("processes", PARALLELISM),
]


@pytest.mark.parametrize("executor,parallelism", BACKENDS,
                         ids=[name for name, _p in BACKENDS])
def test_throughput_multiway_join(benchmark, executor, parallelism):
    plan = multiway_join_plan(n_rows=N_ROWS, machines=MACHINES)
    outputs = []

    def run():
        result = run_plan(plan, options=ExecutionOptions(
            batch_size=BATCH_SIZE, executor=executor, parallelism=parallelism))
        outputs.append(Counter(result.results))
        return result

    benchmark.extra_info["executor"] = executor
    benchmark.extra_info["parallelism"] = parallelism or 1
    benchmark.extra_info["cpus"] = os.cpu_count() or 1
    benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
    assert len(set(map(frozenset, (c.items() for c in outputs)))) == 1
    _MEASURED[executor] = (benchmark.stats.stats.min, outputs[0])


def _require_measurements():
    missing = {name for name, _p in BACKENDS} - set(_MEASURED)
    if missing:
        pytest.skip(f"needs the backend benchmarks in this module to have "
                    f"run first (missing: {sorted(missing)})")


def test_all_backends_produce_identical_results():
    _require_measurements()
    multisets = [results for _seconds, results in _MEASURED.values()]
    assert all(m == multisets[0] for m in multisets[1:])
    assert multisets[0]  # not vacuous


def test_process_backend_beats_inline_on_multiple_cores():
    _require_measurements()
    total_rows = 3 * N_ROWS
    rows = []
    inline_seconds = _MEASURED["inline"][0]
    for name, _parallelism in BACKENDS:
        seconds = _MEASURED[name][0]
        rows.append([
            name,
            f"{seconds * 1000:.1f}",
            f"{total_rows / seconds:,.0f}",
            f"{inline_seconds / seconds:.2f}x",
        ])
    cpus = os.cpu_count() or 1
    record_table(
        "throughput_parallel",
        f"Execution backend throughput, R-S-T chain join + aggregation "
        f"({N_ROWS} rows/relation, {MACHINES} joiners, parallelism "
        f"{PARALLELISM}, {cpus} cores, best of {ROUNDS})",
        ["backend", "runtime (ms)", "rows/sec", "speedup"],
        rows,
        notes="all backends produce the identical result multiset; the "
              "process backend's speedup needs physical cores.",
    )

    if cpus < 2:
        pytest.skip("single core: forked workers cannot beat one thread")
    # the acceptance bound at >= 4 cores; proportionally weaker below
    required = 1.5 if cpus >= 4 else 1.1
    speedup = inline_seconds / _MEASURED["processes"][0]
    assert speedup >= required, (
        f"processes backend speedup {speedup:.2f}x < {required}x "
        f"on {cpus} cores"
    )
