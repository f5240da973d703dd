"""Summary statistics, resource readings and the machine-speed probe."""

from __future__ import annotations

import gc
import math
import resource
import time
from typing import Sequence

#: a reported high percentile needs at least this many samples beyond it
MIN_SAMPLES_BEYOND = 10

#: what :func:`calibrate` takes at the reference machine speed (seconds)
CALIBRATION_REFERENCE_S = 0.035


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``.

    Raises ValueError when fewer than :data:`MIN_SAMPLES_BEYOND`
    samples lie above the rank, so a tail figure is never reported from
    a sample too small to hold it.
    """
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    n = len(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has {n - rank} beyond it; "
            f"at least {MIN_SAMPLES_BEYOND} are needed")
    return sorted(values)[rank - 1]


def calibrate() -> float:
    """Wall time of a fixed pure-Python hash join and count.

    The shared host's speed drifts by tens of percent over minutes.
    Interleaved with a workload's runs, the median of these probes
    measures the speed the runs saw, independently of the program."""
    rows = [(i * 7919 % 19_997, i) for i in range(80_000)]
    # the collector's cost depends on the caller's heap, not the host
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        index: dict = {}
        for key, value in rows:
            index.setdefault(key, []).append(value)
        total = 0
        for key, value in rows:
            for other in index[key]:
                total += other ^ value
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child
    (the worker processes), in MiB.  Linux reports ``ru_maxrss`` in KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its reaped children
    (the worker processes)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime
