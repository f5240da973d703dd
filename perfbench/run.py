"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload chain-inline --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the separate traced run and reports the per-layer
metrics, writing each process's spans under ``perfbench/out/``.  Every
metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``, which holds exactly the metrics ``BENCHMARK.json`` (at
the checkout root) lists for the mode.

The program under test is the checkout's own ``src/`` tree; without it
the benchmark exits with a non-zero status and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def load_program():
    """Import the checkout's ``repro`` package, and nothing else."""
    package = os.path.join(SRC, "repro", "__init__.py")
    if not os.path.isfile(package):
        raise SystemExit(f"no program to measure: {package} is missing")
    sys.path[:0] = [SRC, ROOT]
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        raise SystemExit(f"imported repro from {repro.__file__}, not {SRC}")


def expected_metrics(trace: bool):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    from perfbench import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.NAMES)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    expected = expected_metrics(bool(args.trace))

    workload = workloads.make(args.workload, args.seed, args.seconds)
    if args.trace:
        out_dir = os.path.join(ROOT, "perfbench", "out", args.workload)
        outcome = workload.trace(args.seconds, out_dir)
    else:
        outcome = workload.measure(args.seconds)

    missing = sorted(set(expected) - set(outcome.metrics))
    if missing:
        raise SystemExit(f"metrics named in BENCHMARK.json were not "
                         f"measured: {missing}")
    for name, unit in expected.items():
        if outcome.metrics[name][1] != unit:
            raise SystemExit(f"{name}: unit {outcome.metrics[name][1]!r}, "
                             f"BENCHMARK.json says {unit!r}")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}  "
          f"{args.seconds:g} s")
    for name in expected:
        value, unit = outcome.metrics[name]
        print(f"  {name:<34}{value:>16.6g} {unit}")
    # measured too, but reported in the other mode's JSON or not at all
    for name, (value, unit) in outcome.metrics.items():
        if name not in expected:
            print(f"  {name:<34}{value:>16.6g} {unit}  (not in this "
                  f"mode's JSON)")
    print(f"  {'error_rate':<34}{outcome.error_rate:>16.6g} "
          f"(failed {outcome.failed} / attempted {outcome.attempted})")
    for note in outcome.notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name][0], "unit": unit}
                    for name, unit in expected.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
