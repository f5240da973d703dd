"""The continuous streaming runtime: long-lived queries over push sources.

The finite engine (:func:`repro.engine.runner.run_plan`) drains a plan
and stops; this package keeps the same topology *resident* and pumps
unbounded push sources through the same micro-batch dataplane, with
watermark punctuations driving window expiration and incremental
``(+row / -row)`` delta feeds at the sink.  Entry points:

- :func:`stream_plan` -- compile any physical plan for continuous
  execution (the engine behind ``SqlSession.stream`` and the functional
  API's ``.stream()``);
- :class:`StreamingCluster` -- run an arbitrary topology over push
  sources (the inline pump loop, or resident checkpointed worker
  processes);
- :class:`ReplaySource` / :class:`CallbackSource` -- event-time replays
  of stored data and generator/push-driven feeds.
"""

from repro.streaming.cluster import SourcePump, StreamingCluster
from repro.streaming.deltas import (
    Delta,
    DeltaSink,
    SubscriberOverflow,
    Subscription,
)
from repro.streaming.runner import DeltaAggBolt, StreamingQuery, stream_plan
from repro.streaming.sources import (
    Backpressure,
    CallbackSource,
    PushSource,
    ReplaySource,
)
from repro.streaming.watermarks import WatermarkTracker

__all__ = [
    "Backpressure",
    "CallbackSource",
    "Delta",
    "DeltaAggBolt",
    "DeltaSink",
    "PushSource",
    "ReplaySource",
    "SourcePump",
    "StreamingCluster",
    "StreamingQuery",
    "SubscriberOverflow",
    "Subscription",
    "WatermarkTracker",
    "stream_plan",
]
