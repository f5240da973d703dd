"""Span bookkeeping: self times add up to the root's wall time, and
installed wrappers come off cleanly."""

import time

from perfbench.trace import Tracer, accounting, root_wall, self_times


class Layer:
    def outer(self):
        time.sleep(0.002)
        self.inner()
        return "done"

    def inner(self):
        time.sleep(0.003)

    @classmethod
    def build(cls, value):
        return (cls, value)


def test_self_times_account_for_the_root():
    tracer = Tracer()
    tracer.span(Layer, "outer", "outer")
    tracer.span(Layer, "inner", "inner")
    try:
        started = time.perf_counter()
        tracer.open("root")
        for _ in range(3):
            assert Layer().outer() == "done"
        tracer.close()
        wall = time.perf_counter() - started
    finally:
        tracer.uninstall()
    layers = self_times(tracer.spans, "root")
    assert set(layers) == {"root", "outer", "inner"}
    assert layers["inner"] >= 3 * 0.003
    assert abs(sum(layers.values()) - root_wall(tracer.spans, "root")) < 1e-9
    assert accounting(layers, wall)["ok"]


def test_uninstall_restores_the_originals():
    original = Layer.__dict__["build"]
    inner = Layer.inner
    tracer = Tracer()
    tracer.span(Layer, "build", "build")
    tracer.span(Layer, "inner", "inner")
    assert Layer.build(3) == (Layer, 3)  # classmethods stay classmethods
    assert [span[2] for span in tracer.spans] == ["build"]
    tracer.uninstall()
    assert Layer.__dict__["build"] is original
    assert Layer.inner is inner


def test_spans_of_one_batch_share_an_identifier():
    tracer = Tracer()
    first = tracer.open("scan")
    tracer.new_batch(first)
    tracer.close()
    tracer.open("join")
    tracer.close()
    tracer.new_batch()
    tracer.open("join")
    tracer.close()
    batches = [span[6] for span in tracer.spans]
    assert batches[0] == batches[1] != batches[2]


def test_accounting_flags_an_unexplained_remainder():
    assert not accounting({"a": 0.5}, 1.0)["ok"]
    assert accounting({"a": 0.995}, 1.0)["ok"]
