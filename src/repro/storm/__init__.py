"""An in-process simulator of the Storm substrate Squall runs on.

Storm executes *topologies*: graphs of spouts (data sources) and bolts
(computation).  An edge is a *stream grouping* -- the partitioning of a
stream among the tasks of the downstream bolt.  Squall maps every physical
query-plan component to a spout or bolt and builds its partitioning schemes
as stream groupings (paper section 2).

The simulator preserves exactly what the paper's results depend on: which
task receives which tuples (load, replication, skew degree) and how many
tuples cross the network, while running in a single process.
"""

from repro.storm.topology import (
    Bolt,
    ListSpout,
    Spout,
    Topology,
    TopologyBuilder,
    TopologyError,
)
from repro.storm.groupings import (
    AllGrouping,
    CustomGrouping,
    FieldsGrouping,
    GlobalGrouping,
    Grouping,
    HypercubeGrouping,
    KeyMappedGrouping,
    ShuffleGrouping,
)
from repro.storm.cluster import LocalCluster
from repro.storm.executor import (
    EXECUTOR_NAMES,
    ExecutorError,
    ProcessExecutor,
    Router,
)
from repro.storm.metrics import TopologyMetrics

__all__ = [
    "EXECUTOR_NAMES",
    "ExecutorError",
    "ProcessExecutor",
    "Router",
    "Bolt",
    "ListSpout",
    "Spout",
    "Topology",
    "TopologyBuilder",
    "TopologyError",
    "Grouping",
    "ShuffleGrouping",
    "FieldsGrouping",
    "AllGrouping",
    "GlobalGrouping",
    "CustomGrouping",
    "HypercubeGrouping",
    "KeyMappedGrouping",
    "LocalCluster",
    "TopologyMetrics",
]
