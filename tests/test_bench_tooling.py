"""The bench tooling: regression gate script and repro.bench helpers."""

import json

import pytest

from benchmarks.check_regression import main as check_main
from repro.bench import multiway_join_plan, speedup_table
from repro.core.options import ExecutionOptions


def write_bench_json(path, minima):
    payload = {
        "benchmarks": [
            {"fullname": name, "stats": {"min": value}}
            for name, value in minima.items()
        ]
    }
    path.write_text(json.dumps(payload))
    return str(path)


class TestCheckRegression:
    def test_identical_runs_pass(self, tmp_path, capsys):
        base = write_bench_json(tmp_path / "base.json", {"a": 1.0, "b": 0.5})
        assert check_main([base, base]) == 0
        assert "OK" in capsys.readouterr().out

    def test_small_slowdown_within_threshold_passes(self, tmp_path):
        base = write_bench_json(tmp_path / "base.json", {"a": 1.0})
        cur = write_bench_json(tmp_path / "cur.json", {"a": 1.15})
        assert check_main([base, cur, "--threshold", "0.20"]) == 0

    def test_large_slowdown_fails(self, tmp_path, capsys):
        base = write_bench_json(tmp_path / "base.json", {"a": 1.0, "b": 1.0})
        cur = write_bench_json(tmp_path / "cur.json", {"a": 1.5, "b": 1.0})
        assert check_main([base, cur, "--threshold", "0.20"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_new_and_retired_benchmarks_never_fail(self, tmp_path):
        base = write_bench_json(tmp_path / "base.json", {"old": 1.0})
        cur = write_bench_json(tmp_path / "cur.json", {"new": 9.9})
        assert check_main([base, cur]) == 0

    def test_committed_baseline_matches_current_bench_names(self):
        """The seeded baseline must gate the benchmarks that exist."""
        with open("benchmarks/BENCH_baseline.json") as handle:
            names = {b["fullname"] for b in json.load(handle)["benchmarks"]}
        assert any("test_throughput_multiway_join[inline]" in n for n in names)
        assert any("test_throughput_multiway_join[processes]" in n
                   for n in names)


class TestBenchHelpers:
    def test_multiway_join_plan_is_deterministic(self):
        a = multiway_join_plan(n_rows=50)
        b = multiway_join_plan(n_rows=50)
        assert a.sources[0].relation.rows == b.sources[0].relation.rows
        assert a.joins[0].machines == b.joins[0].machines

    def test_speedup_table_reports_relative_throughput(self):
        table = speedup_table([("inline", 2.0), ("processes x4", 0.5)],
                              n_rows=100, machines=8)
        assert "inline" in table and "processes x4" in table
        assert "4.00x" in table  # 2.0s / 0.5s

    def test_plan_runs_under_every_backend(self):
        from collections import Counter

        from repro.engine import run_plan

        plan = multiway_join_plan(n_rows=120)
        expected = None
        for executor in ("inline", "processes"):
            result = run_plan(plan, options=ExecutionOptions(
                batch_size=32, executor=executor, parallelism=2))
            counted = Counter(result.results)
            if expected is None:
                expected = counted
            assert counted == expected
        assert expected


@pytest.mark.parametrize("args", [["--help"]])
def test_bench_cli_help_exits_cleanly(args, capsys):
    from repro.bench import main

    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 0
    assert "speedup" in capsys.readouterr().out


def _attribute(owner, attr):
    """What the tracer replaces: a class's own attribute (so a method
    inherited under the wrapped name does not count) or a module global."""
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


def test_perfbench_layers_still_find_the_attributes_they_wrap():
    """The traced benchmark wraps program functions by name; renaming
    one must fail here, not only in the traced bench run."""
    from perfbench import layers
    from perfbench.trace import Tracer

    tracer = Tracer()
    originals = {}
    try:
        layers.install(tracer)
        for owner, attr, raw in tracer._installed:
            originals.setdefault((owner, attr), raw)
            assert _attribute(owner, attr) is not raw, (owner, attr)
    finally:
        tracer.uninstall()
    wrapped = {(getattr(owner, "__name__", owner), attr)
               for owner, attr in originals}
    assert {("Observer", "on_execute"), ("WorkerObs", "record"),
            ("StreamingCluster", "step"), ("_ProcessWorker", "send"),
            ("ResidentWorker", "send"),
            ("repro.storm.executor", "worker_loop"),
            ("repro.storm.executor", "resident_worker_loop")} <= wrapped
    for (owner, attr), raw in originals.items():
        assert _attribute(owner, attr) is raw, (owner, attr)
