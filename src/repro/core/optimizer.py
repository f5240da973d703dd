"""The query optimizer: logical plan -> physical plan.

Responsibilities (paper section 2):

- push selections and projections as close to the data sources as possible
  (scans already carry pushed-down filters; in aggregating join plans the
  optimizer additionally projects each source down to the attributes read
  downstream -- join, GROUP BY, aggregate and event-time columns.  Plain
  join plans ship whole rows: ``LogicalPlan`` carries no SELECT list);
- collect statistics *after* the pushed-down selections and mark skewed
  join attributes (section 3.4: the distribution that matters is the one
  the joiner actually sees);
- choose the partitioning scheme ('auto' picks the Hybrid-Hypercube,
  which subsumes Hash- and Random-Hypercube);
- assign component parallelism so producers and consumers are balanced;
- compute the join's output scheme (only group-by/aggregate columns cross
  the network to the aggregation component);
- optionally compile a *pipeline of 2-way joins* instead of one multi-way
  join (the baseline the paper compares against), using hash partitioning
  for skew-free equi-joins and 1-Bucket otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.expressions import Column
from repro.core.logical import LogicalPlan, ScanDef, resolve_column
from repro.core.predicates import JoinCondition, JoinSpec, RelationInfo
from repro.core.schema import Relation, Schema, split_qualified
from repro.core.statistics import SkewDetector, profile_column
from repro.engine.component import (
    AggComponent,
    JoinComponent,
    PhysicalPlan,
    SourceComponent,
)
from repro.engine.operators import AggregateSpec
from repro.engine.windows import WindowClause, WindowSpec
from repro.joins.base import JoinSchema


class Catalog:
    """Named base relations available to queries."""

    def __init__(self, relations: Optional[Dict[str, Relation]] = None):
        self._relations: Dict[str, Relation] = dict(relations or {})

    def register(self, relation: Relation):
        self._relations[relation.name] = relation

    def get(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise KeyError(
                f"unknown table {name!r}; registered: {sorted(self._relations)}"
            ) from None

    def names(self) -> List[str]:
        return sorted(self._relations)

    def __contains__(self, name: str) -> bool:
        return name in self._relations


@dataclass
class OptimizerOptions:
    """Tuning knobs of the optimizer."""

    machines: int = 8
    scheme: str = "auto"  # 'auto' | 'hash' | 'random' | 'hybrid'
    local_join: str = "dbtoaster"
    mode: str = "multiway"  # 'multiway' | 'pipeline'
    seed: int = 0
    #: budget of tasks to spread across source components
    source_budget: int = 4
    agg_parallelism: Optional[int] = None
    window: Optional[WindowSpec] = None
    #: window over the final aggregation (column-name based; the optimizer
    #: resolves it to a positional WindowSpec on the agg component)
    agg_window: Optional[WindowClause] = None
    #: SkewDetector heavy-key factor
    heavy_factor: float = 2.0
    #: sample cap per relation when profiling
    profile_cap: int = 50_000


class Optimizer:
    """Compiles :class:`LogicalPlan` into :class:`PhysicalPlan`."""

    def __init__(self, catalog: Catalog, options: Optional[OptimizerOptions] = None):
        self.catalog = catalog
        self.options = options or OptimizerOptions()

    # -- public API ---------------------------------------------------------

    def compile(self, logical: LogicalPlan) -> PhysicalPlan:
        schemas = {
            scan.alias: self.catalog.get(scan.table).schema for scan in logical.scans
        }
        logical.validate(schemas)
        sources = [self._source_component(scan) for scan in logical.scans]
        filtered_rows = {
            source.name: self._filtered_rows(source) for source in sources
        }
        if len(logical.scans) == 1 and not logical.conditions:
            return self._single_relation_plan(logical, sources, schemas)
        window = self.options.window
        if logical.aggregates or logical.group_by:
            window = self._push_projections(logical, schemas, sources)
        infos = self._relation_infos(logical, schemas, sources, filtered_rows)
        if self.options.mode == "pipeline":
            joins = self._pipeline_joins(logical, infos, window)
        else:
            joins = [self._multiway_join(logical, infos, window)]
        aggregation = self._aggregation(logical, schemas, joins[-1], filtered_rows)
        plan = PhysicalPlan(sources=sources, joins=joins, aggregation=aggregation)
        return plan.validate()

    # -- sources ---------------------------------------------------------------

    def _source_component(self, scan: ScanDef) -> SourceComponent:
        relation = self.catalog.get(scan.table)
        predicate = None
        if scan.predicates:
            predicate = scan.predicates[0]
            for extra in scan.predicates[1:]:
                predicate = predicate & extra
        parallelism = self._source_parallelism(relation.size)
        return SourceComponent(
            name=scan.alias,
            relation=Relation(scan.alias, relation.schema, relation.rows),
            predicate=predicate,
            selection_cost_class=scan.cost_class,
            parallelism=parallelism,
        )

    def _push_projections(self, logical: LogicalPlan,
                          schemas: Dict[str, Schema],
                          sources: List[SourceComponent]
                          ) -> Optional[WindowSpec]:
        """Project every source down to the attributes the query reads.

        Only aggregating plans are projected: their output is the
        GROUP BY and aggregate columns, while a plain join's SELECT list
        is not part of the logical plan.  Each source keeps, in schema
        order, its join-condition attributes, GROUP BY and aggregate
        columns, and the event-time columns of the aggregation window and
        of the join window.  Returns the join window with its
        ``ts_positions`` remapped to the projected layout.
        """
        needed: Dict[str, set] = {alias: set() for alias in schemas}
        for cond in logical.conditions:
            for alias, attr in (cond.left, cond.right):
                needed[alias].add(attr)
        columns = list(logical.group_by)
        columns.extend(item.column for item in logical.aggregates
                       if item.column is not None)
        clause = self.options.agg_window
        if clause is not None and clause.ts_column is not None:
            columns.append(clause.ts_column)
        for name in columns:
            alias, attr = resolve_column(name, schemas)
            needed[alias].add(attr)
        window = self.options.window
        ts_positions = (window.ts_positions or {}) if window is not None else {}
        for alias, position in ts_positions.items():
            if alias in schemas:
                needed[alias].add(schemas[alias].fields[position].name)
        for source in sources:
            names = [name for name in schemas[source.name].names
                     if name in needed[source.name]]
            # nothing to prune, or nothing left to ship: keep raw rows
            if names and len(names) < schemas[source.name].arity:
                source.projection = [Column(name) for name in names]
                source.projection_names = names
        if window is None or not ts_positions:
            return window
        projected = {source.name: source.output_schema() for source in sources}
        return WindowSpec(window.kind, window.size, {
            alias: (projected[alias].index_of(
                schemas[alias].fields[position].name)
                if alias in projected else position)
            for alias, position in ts_positions.items()
        })

    def _source_parallelism(self, size: int) -> int:
        """Universal producer-consumer balance: bigger inputs get more
        reader tasks, within the source budget."""
        budget = max(1, self.options.source_budget)
        if size <= 0:
            return 1
        # one task per ~50k rows, capped by the budget
        return max(1, min(budget, (size // 50_000) + 1))

    def _filtered_rows(self, source: SourceComponent) -> List[tuple]:
        rows = source.relation.rows
        if source.predicate is None:
            return rows
        fn = source.predicate.compile(source.relation.schema)
        return [row for row in rows if fn(row)]

    # -- statistics & skew marking -------------------------------------------

    def _relation_infos(
        self,
        logical: LogicalPlan,
        schemas: Dict[str, Schema],
        sources: List[SourceComponent],
        filtered_rows: Dict[str, List[tuple]],
    ) -> Dict[str, RelationInfo]:
        detector = SkewDetector(self.options.heavy_factor)
        machines = self.options.machines
        infos: Dict[str, RelationInfo] = {}
        output_schemas = {source.name: source.output_schema()
                          for source in sources}
        join_attrs: Dict[str, set] = {alias: set() for alias in schemas}
        for cond in logical.conditions:
            join_attrs[cond.left[0]].add(cond.left[1])
            join_attrs[cond.right[0]].add(cond.right[1])
        for alias, schema in schemas.items():
            rows = filtered_rows[alias]
            sample = rows[: self.options.profile_cap]
            skewed = set()
            top_freq: Dict[str, float] = {}
            for attr in sorted(join_attrs[alias]):
                position = schema.index_of(attr)
                stats = profile_column(value[position] for value in sample)
                top_freq[attr] = stats.top_frequency
                if detector.is_skewed(stats, machines):
                    skewed.add(attr)
            infos[alias] = RelationInfo(
                alias, output_schemas[alias], len(rows), frozenset(skewed),
                top_freq
            )
        return infos

    # -- joins ---------------------------------------------------------------

    def _choose_scheme(self, spec: JoinSpec) -> str:
        if self.options.scheme != "auto":
            return self.options.scheme
        return "hybrid"  # subsumes hash- and random-hypercube

    def _multiway_join(self, logical: LogicalPlan,
                       infos: Dict[str, RelationInfo],
                       window: Optional[WindowSpec]) -> JoinComponent:
        spec = JoinSpec(
            [infos[alias] for alias in logical.alias_names()], logical.conditions
        )
        return JoinComponent(
            name="join",
            spec=spec,
            machines=self.options.machines,
            scheme=self._choose_scheme(spec),
            local_join=self.options.local_join,
            window=window,
            seed=self.options.seed,
        )

    def _join_order(self, logical: LogicalPlan,
                    infos: Dict[str, RelationInfo]) -> List[str]:
        """Greedy heuristic join order: smallest relation first, then the
        smallest relation connected to what has been joined so far."""
        remaining = set(logical.alias_names())
        adjacency: Dict[str, set] = {alias: set() for alias in remaining}
        for cond in logical.conditions:
            adjacency[cond.left[0]].add(cond.right[0])
            adjacency[cond.right[0]].add(cond.left[0])
        order = [min(remaining, key=lambda a: (infos[a].size, a))]
        remaining.discard(order[0])
        while remaining:
            connected = [
                alias for alias in remaining
                if any(other in adjacency[alias] for other in order)
            ]
            pool = connected or sorted(remaining)
            chosen = min(pool, key=lambda a: (infos[a].size, a))
            order.append(chosen)
            remaining.discard(chosen)
        return order

    def _pipeline_joins(self, logical: LogicalPlan,
                        infos: Dict[str, RelationInfo],
                        window: Optional[WindowSpec]) -> List[JoinComponent]:
        """Left-deep pipeline of 2-way joins (the paper's baseline)."""
        order = self._join_order(logical, infos)
        joins: List[JoinComponent] = []
        # current intermediate: name, RelationInfo, and the mapping from
        # original (alias, attr) to the intermediate's qualified attr name
        current_name = order[0]
        current_info = infos[current_name]
        attr_map: Dict[Tuple[str, str], Tuple[str, str]] = {
            (current_name, f.name): (current_name, f.name)
            for f in current_info.schema.fields
        }
        joined = {current_name}
        for step, alias in enumerate(order[1:], start=1):
            conditions = []
            for cond in logical.conditions:
                sides = {cond.left[0], cond.right[0]}
                if alias in sides and (sides - {alias}) <= joined:
                    oriented = cond if cond.right[0] == alias else cond.flipped()
                    left = attr_map[oriented.left]
                    conditions.append(_rebind(oriented, left))
            spec = JoinSpec([current_info, infos[alias]], conditions)
            is_skew_free_equi = spec.is_equi_join and not any(
                info.skewed for info in spec.relations
            )
            scheme = "hash" if is_skew_free_equi else "random"
            join_name = f"join{step}"
            component = JoinComponent(
                name=join_name,
                spec=spec,
                machines=self.options.machines,
                scheme=scheme,
                local_join=self.options.local_join,
                window=window,
                seed=self.options.seed,
            )
            joins.append(component)
            # the intermediate output becomes the left input of the next join
            out_schema = JoinSchema.from_spec(spec).output_schema()
            new_map: Dict[Tuple[str, str], Tuple[str, str]] = {}
            for (orig_alias, orig_attr), (prev_rel, prev_attr) in attr_map.items():
                qualified = f"{current_info.name}.{prev_attr}" if prev_rel == current_info.name else None
                new_map[(orig_alias, orig_attr)] = (
                    join_name, f"{prev_rel}.{prev_attr}"
                )
            for f in infos[alias].schema.fields:
                new_map[(alias, f.name)] = (join_name, f"{alias}.{f.name}")
            attr_map = new_map
            estimated = _estimate_join_size(current_info, infos[alias], conditions)
            current_info = RelationInfo(join_name, out_schema, estimated)
            joined.add(alias)
        # remember the final attribute mapping for aggregation rewiring
        self._pipeline_attr_map = attr_map
        return joins

    # -- aggregation --------------------------------------------------------------

    def _aggregation(
        self,
        logical: LogicalPlan,
        schemas: Dict[str, Schema],
        last_join: Optional[JoinComponent],
        filtered_rows: Dict[str, List[tuple]],
    ) -> Optional[AggComponent]:
        if not logical.aggregates and not logical.group_by:
            return None
        if last_join is None:
            raise ValueError("aggregation without join is compiled separately")
        output_schema = JoinSchema.from_spec(last_join.spec).output_schema()

        def qualified_output_name(name: str) -> str:
            alias, attr = resolve_column(name, schemas)
            if self.options.mode == "pipeline":
                rel, mapped = self._pipeline_attr_map[(alias, attr)]
                return mapped
            return f"{alias}.{attr}"

        group_cols = [qualified_output_name(name) for name in logical.group_by]
        agg_cols = [
            qualified_output_name(item.column)
            for item in logical.aggregates if item.column is not None
        ]
        clause = self.options.agg_window
        ts_cols = []
        if clause is not None and clause.ts_column is not None:
            ts_cols = [qualified_output_name(clause.ts_column)]
        # output scheme: ship only the needed columns out of the joiner
        # (the window's event-time column must survive the projection)
        needed: List[str] = []
        for name in group_cols + agg_cols + ts_cols:
            if name not in needed:
                needed.append(name)
        positions = [output_schema.index_of(name) for name in needed]
        last_join.output_positions = positions
        projected_index = {name: i for i, name in enumerate(needed)}
        group_positions = [projected_index[name] for name in group_cols]
        aggregates = []
        for item in logical.aggregates:
            if item.kind == "count" or item.column is None:
                # AggItem.__post_init__ guarantees non-count items carry a
                # column, so the None arm only ever matches COUNT(*)
                aggregates.append(AggregateSpec("count"))
            else:
                aggregates.append(
                    AggregateSpec(item.kind,
                                  projected_index[qualified_output_name(item.column)])
                )
        parallelism = self.options.agg_parallelism or max(
            1, min(4, self.options.machines // 2)
        )
        key_domain = self._small_key_domain(
            logical, schemas, filtered_rows, parallelism
        )
        window = None
        if clause is not None:
            ts_positions = None
            if ts_cols:
                ts_positions = {"": projected_index[ts_cols[0]]}
            window = WindowSpec(clause.kind, clause.size, ts_positions)
        return AggComponent(
            name="agg",
            group_positions=group_positions,
            aggregates=aggregates,
            parallelism=parallelism,
            key_domain=key_domain,
            window=window,
        )

    def _small_key_domain(self, logical, schemas, filtered_rows, parallelism):
        """If the single group-by column has a small known domain, return it
        so the runner can use the round-robin key mapping (section 5)."""
        if len(logical.group_by) != 1:
            return None
        alias, attr = resolve_column(logical.group_by[0], schemas)
        position = schemas[alias].index_of(attr)
        values = {row[position] for row in filtered_rows[alias][:10_000]}
        if 0 < len(values) <= max(32, 3 * parallelism):
            return sorted(values, key=repr)
        return None

    # -- degenerate plans -----------------------------------------------------

    def _single_relation_plan(self, logical: LogicalPlan,
                              sources: List[SourceComponent],
                              schemas: Dict[str, Schema]) -> PhysicalPlan:
        aggregation = None
        if logical.aggregates or logical.group_by:
            schema = sources[0].output_schema()
            group_positions = [
                schema.index_of(split_qualified(n)[1]) for n in logical.group_by
            ]
            aggregates = []
            for item in logical.aggregates:
                if item.kind == "count" or item.column is None:
                    aggregates.append(AggregateSpec("count"))
                else:
                    aggregates.append(
                        AggregateSpec(
                            item.kind,
                            schema.index_of(split_qualified(item.column)[1]),
                        )
                    )
            window = None
            clause = self.options.agg_window
            if clause is not None:
                ts_positions = None
                if clause.ts_column is not None:
                    ts_positions = {
                        "": schema.index_of(split_qualified(clause.ts_column)[1])
                    }
                window = WindowSpec(clause.kind, clause.size, ts_positions)
            aggregation = AggComponent(
                name="agg",
                group_positions=group_positions,
                aggregates=aggregates,
                parallelism=self.options.agg_parallelism or 1,
                window=window,
            )
        return PhysicalPlan(sources=sources, joins=[], aggregation=aggregation).validate()


def _rebind(cond: JoinCondition, new_left: Tuple[str, str]) -> JoinCondition:
    """Replace the left attribute reference of an oriented condition."""
    import dataclasses

    return dataclasses.replace(cond, left=new_left)


def _estimate_join_size(left: RelationInfo, right: RelationInfo,
                        conditions: Sequence[JoinCondition]) -> int:
    """Rough cardinality estimate used only for pipeline scheme shaping."""
    if not conditions:
        return left.size * right.size
    if any(cond.is_equi for cond in conditions):
        # |L >< R| ~ |L| * |R| / max(distinct)  with distinct unknown, use a
        # conservative containment assumption
        return max(left.size, right.size)
    return (left.size * right.size) // 4
