"""Physical-plan components: pipelines of co-located operators.

A *component* is Squall's execution unit: a pipeline of co-located
operators scaled out to many machines (paper section 2).  A data source
followed by a selection is one component; a multi-way joiner is another;
a final aggregation a third.  The runner maps each component to one Storm
spout or bolt with the component's parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from repro.core.expressions import Expression, Predicate
from repro.core.predicates import JoinSpec
from repro.core.schema import Relation, Schema
from repro.engine.operators import AggregateSpec, projection_schema
from repro.engine.windows import WindowSpec
from repro.partitioning.base import Partitioner


@dataclass
class SourceComponent:
    """A data source with optionally co-located selection and projection.

    The selection/projection run inside the source tasks (no network hop),
    implementing the optimiser's push-down and co-location rules.
    """

    name: str
    relation: Relation
    predicate: Optional[Predicate] = None
    #: cost class of the selection ('int', 'date', 'noop') for the cost model
    selection_cost_class: str = "int"
    projection: Optional[Sequence[Expression]] = None
    projection_names: Optional[Sequence[str]] = None
    parallelism: int = 1

    def output_schema(self) -> Schema:
        if self.projection is None:
            return self.relation.schema
        return projection_schema(self.projection, self.relation.schema,
                                 self.projection_names)


@dataclass
class JoinComponent:
    """A (possibly multi-way) join: partitioning scheme x local algorithm.

    ``spec`` relation names must match upstream component names (sources or
    earlier joins).  ``output_positions`` implements the output scheme: only
    those flattened columns are sent downstream."""

    name: str
    spec: JoinSpec
    machines: int
    scheme: Union[str, Partitioner] = "hybrid"
    local_join: str = "dbtoaster"
    window: Optional[WindowSpec] = None
    output_positions: Optional[Sequence[int]] = None
    seed: int = 0


@dataclass
class AggComponent:
    """Grouped aggregation over the final join output."""

    name: str
    group_positions: Sequence[int]
    aggregates: Sequence[AggregateSpec]
    parallelism: int = 1
    #: predefined small key domain: use round-robin key mapping (section 5)
    key_domain: Optional[Sequence] = None
    online: bool = False
    window: Optional[WindowSpec] = None


@dataclass
class SinkComponent:
    """Collects the final results of a plan."""

    name: str = "sink"


@dataclass
class PhysicalPlan:
    """An executable physical plan: sources -> joins... -> [aggregation]."""

    sources: List[SourceComponent]
    joins: List[JoinComponent] = field(default_factory=list)
    aggregation: Optional[AggComponent] = None
    sink: SinkComponent = field(default_factory=SinkComponent)

    def component_names(self) -> List[str]:
        names = [source.name for source in self.sources]
        names.extend(join.name for join in self.joins)
        if self.aggregation is not None:
            names.append(self.aggregation.name)
        names.append(self.sink.name)
        return names

    def validate(self):
        names = self.component_names()
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate component names in plan: {names}")
        known = {source.name for source in self.sources}
        for join in self.joins:
            for rel_name in join.spec.relation_names:
                if rel_name not in known:
                    raise ValueError(
                        f"join {join.name!r} references {rel_name!r}, which is "
                        f"not an upstream component ({sorted(known)})"
                    )
            known.add(join.name)
        if self.aggregation is not None and not self.joins and not self.sources:
            raise ValueError("aggregation needs an upstream component")
        return self

    def last_data_component(self) -> str:
        if self.aggregation is not None:
            return self.aggregation.name
        if self.joins:
            return self.joins[-1].name
        return self.sources[-1].name
