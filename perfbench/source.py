"""Open-loop event schedules and the push source that releases them.

The stream-serve workload is an open loop: every event has a due time
fixed by the schedule, measured from one start instant, and the source
releases it when that time has passed whether or not the system kept up.
A slow pipeline therefore accumulates a backlog instead of receiving
less load, and each event's latency is measured from its due time.
"""

from __future__ import annotations

import bisect
import random
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.streaming.sources import PushSource

#: one scheduled event: (due offset from the start instant in seconds,
#: stream name, row)
Event = Tuple[float, str, tuple]


class ScheduledSource(PushSource):
    """A push source that releases a fixed event schedule on time.

    Due times depend only on the start instant set by :meth:`start`,
    never on how far the consumer has got.  Before the start instant a
    poll releases nothing.  The read cursor only moves forward: it is
    advanced to the number of events due by now, capped by ``max_rows``,
    and a clock reading earlier than a previous one cannot pull it back.
    """

    def __init__(self, events: Sequence[Event],
                 clock: Callable[[], float] = time.perf_counter):
        offsets = [event[0] for event in events]
        if any(b < a for a, b in zip(offsets, offsets[1:])):
            raise ValueError("events must be sorted by due offset")
        self._offsets = offsets
        self._emissions = [(stream, row) for _due, stream, row in events]
        self._clock = clock
        self._start: Optional[float] = None
        self._cursor = 0
        #: clock reading of the first poll (the end of set-up)
        self.first_poll: Optional[float] = None
        #: per released batch: how late its oldest event was, in seconds
        self.lags: List[float] = []
        #: most events found due but left for a later poll by max_rows
        self.backlog_max = 0

    @property
    def cursor(self) -> int:
        """Events released so far."""
        return self._cursor

    def __len__(self) -> int:
        return len(self._offsets)

    def start(self, instant: float):
        """Fix the start instant every due time is measured from."""
        if self._start is not None:
            raise RuntimeError("the schedule has already started")
        self._start = instant

    def due_count(self, now: float) -> int:
        """Events whose due time is at or before ``now`` (never fewer
        than already released)."""
        if self._start is None or now < self._start:
            return self._cursor
        return bisect.bisect_right(self._offsets, now - self._start,
                                   lo=self._cursor)

    def poll(self, max_rows: int):
        now = self._clock()
        if self.first_poll is None:
            self.first_poll = now
        begin = self._cursor
        due = self.due_count(now)
        end = min(due, begin + max(0, max_rows))
        self.backlog_max = max(self.backlog_max, due - end)
        if end <= begin:
            return []
        self.lags.append(now - (self._start + self._offsets[begin]))
        self._cursor = end
        return self._emissions[begin:end]

    def exhausted(self) -> bool:
        return self._cursor >= len(self._offsets)


@dataclass(frozen=True)
class JoinSchedule:
    """The two event streams of the stream-serve workload.

    R rows are ``(k, id, due_us)`` and S rows ``(k, id, due_us)``, where
    ``due_us`` is the row's due offset in whole microseconds, so every
    join output row carries both due times.
    """

    r_events: List[Event]
    s_events: List[Event]
    #: R rows that a later ``R:retract`` event removes
    retracted: frozenset


def join_schedule(seed: int, seconds: float, rate: float,
                  drift: float, width: int,
                  retract_share: float = 0.1,
                  retract_delay: float = 0.5,
                  burst: int = 1) -> JoinSchedule:
    """Build a seeded R/S schedule at ``rate`` insert events per second.

    Events alternate between R and S and arrive in bursts of ``burst``
    events that fall due together, ``burst / rate`` seconds apart.  An
    event due at offset ``t`` draws its key uniformly from
    ``[int(t * drift), int(t * drift) + width)``: the key range drifts
    with time, so each key is live for ``width / drift`` seconds and the
    expected number of matches per event stays constant however long the
    stream runs.  About ``retract_share`` of the R rows are retracted on
    ``R:retract`` ``retract_delay`` seconds after they were inserted.
    """
    rng = random.Random(seed)
    n = int(seconds * rate)
    r_events: List[Event] = []
    s_events: List[Event] = []
    retractions: List[Event] = []
    for i in range(n):
        due = (i // burst) * burst / rate
        key = int(due * drift) + rng.randrange(width)
        row = (key, i, int(due * 1_000_000))
        if i % 2 == 0:
            r_events.append((due, "R", row))
            if rng.random() < retract_share:
                retractions.append((due + retract_delay, "R:retract", row))
        else:
            s_events.append((due, "S", row))
    horizon = n / rate
    retractions = [event for event in retractions if event[0] < horizon]
    merged = sorted(r_events + retractions, key=lambda event: event[0])
    return JoinSchedule(merged, s_events,
                        frozenset(event[2] for event in retractions))
