"""The open-loop source: due times fixed by the start instant, a read
cursor that never moves backwards, and a deterministic schedule."""

import pytest

from perfbench.source import ScheduledSource, join_schedule


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


def make(n=10, step=0.1, clock=None):
    events = [(i * step, "R", (i,)) for i in range(n)]
    return ScheduledSource(events, clock=clock or FakeClock())


def test_nothing_is_released_before_start():
    clock = FakeClock(5.0)
    source = make(clock=clock)
    assert source.poll(100) == []
    assert source.cursor == 0
    assert source.first_poll == 5.0


def test_poll_before_the_start_instant_keeps_the_cursor_at_zero():
    # a first poll arriving before the start instant once turned into a
    # negative cursor that replayed rows from the end of the list
    clock = FakeClock(0.0)
    source = make(clock=clock)
    source.start(10.0)
    for now in (0.0, 9.0, 9.999):
        clock.now = now
        assert source.poll(100) == []
        assert source.cursor == 0
    clock.now = 10.0
    assert source.poll(100) == [("R", (0,))]


def test_due_times_depend_only_on_the_start_instant():
    clock = FakeClock(100.0)
    source = make(clock=clock)
    source.start(100.0)
    clock.now = 100.35
    assert [row for _s, row in source.poll(100)] == [(0,), (1,), (2,), (3,)]
    # a consumer that falls far behind still finds every due event
    clock.now = 100.95
    assert [row[0] for _s, row in source.poll(100)] == [4, 5, 6, 7, 8, 9]
    assert source.exhausted()


def test_cursor_never_moves_backwards():
    clock = FakeClock(0.0)
    source = make(clock=clock)
    source.start(0.0)
    clock.now = 0.55
    assert len(source.poll(100)) == 6
    for now in (0.2, -1.0, 0.55):
        clock.now = now
        assert source.poll(100) == []
        assert source.cursor == 6


def test_max_rows_caps_a_poll_and_records_the_backlog():
    clock = FakeClock(0.0)
    source = make(clock=clock)
    source.start(0.0)
    clock.now = 0.95
    assert len(source.poll(4)) == 4
    assert source.backlog_max == 6
    assert len(source.poll(4)) == 4
    assert len(source.poll(4)) == 2
    assert source.exhausted()


def test_lag_is_measured_from_the_oldest_released_event():
    clock = FakeClock(0.0)
    source = make(clock=clock)
    source.start(0.0)
    clock.now = 0.25
    source.poll(100)
    assert source.lags == [pytest.approx(0.25)]


def test_events_must_be_sorted():
    with pytest.raises(ValueError):
        ScheduledSource([(1.0, "R", (1,)), (0.5, "R", (2,))])


def test_start_is_fixed_once():
    source = make()
    source.start(1.0)
    with pytest.raises(RuntimeError):
        source.start(2.0)


def test_schedule_is_deterministic_per_seed():
    a = join_schedule(7, 2.0, 1000, drift=500, width=500)
    b = join_schedule(7, 2.0, 1000, drift=500, width=500)
    c = join_schedule(8, 2.0, 1000, drift=500, width=500)
    assert a == b
    assert a.r_events != c.r_events


def test_schedule_retracts_only_rows_it_inserted_earlier():
    schedule = join_schedule(3, 2.0, 1000, drift=500, width=500)
    inserted = {}
    for due, stream, row in schedule.r_events:
        if stream == "R":
            inserted[row] = due
        else:
            assert stream == "R:retract"
            assert inserted[row] < due
    assert schedule.retracted
    share = len(schedule.retracted) / len(inserted)
    assert 0.05 < share < 0.15
    # keys drift: a late event never draws a key from the first second
    late = [row[0] for due, _s, row in schedule.s_events if due > 1.5]
    assert min(late) >= 500
