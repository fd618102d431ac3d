"""DAG planner: bound query graph -> physical execution DAG.

This is the "traditional single-machine query optimization that produces
an execution DAG" stage of the paper's two-stage optimizer (§3.2): join
ordering (left-deep DP), physical operator selection, exchange placement
with partitioning-property propagation, and two-phase aggregation.  DOP
assignment is deliberately *not* decided here — that is the DOP planner's
job, applied to this DAG (and to its bushy variants) afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.catalog.catalog import Catalog
from repro.errors import OptimizerError
from repro.optimizer.cardinality import (
    DEFAULT_SELECTIVITY,
    CardinalityEstimator,
    EstimatedRelation,
)
from repro.optimizer.join_order import JoinTree, Leaf, connecting_edges, order_joins
from repro.plan.expressions import ColumnRef, Expr, make_and, referenced_columns
from repro.plan.physical import (
    AggMode,
    ExchangeKind,
    PhysAggregate,
    PhysExchange,
    PhysFilter,
    PhysHashJoin,
    PhysLimit,
    PhysNode,
    PhysProject,
    PhysScan,
    PhysSort,
)
from repro.sql.binder import BoundQuery, JoinEdge
from repro.util.units import MB

#: Build sides smaller than this (estimated bytes) are broadcast.
DEFAULT_BROADCAST_THRESHOLD = 32 * MB

#: Reference DOP used for static partial-aggregate output estimates; the
#: cost models recompute this term once the actual DOP is known.
REFERENCE_DOP = 8


@dataclass
class _Stream:
    """A planned sub-result: physical node + estimate + partitioning."""

    node: PhysNode
    rel: EstimatedRelation
    partition_cols: frozenset[str]


class DagPlanner:
    """Plans bound queries into annotated physical DAGs."""

    def __init__(
        self,
        catalog: Catalog,
        *,
        broadcast_threshold: float = DEFAULT_BROADCAST_THRESHOLD,
        left_deep_only: bool = True,
    ) -> None:
        self.catalog = catalog
        self.estimator = CardinalityEstimator(catalog)
        self.broadcast_threshold = broadcast_threshold
        self.left_deep_only = left_deep_only
        # Table predicates and base-relation estimates of the query
        # planned last (every join-tree variant of one query re-plans the
        # same scans; the optimizer makes one planner per walk), dropped
        # when the catalog version moves so they are never stale.
        self._memo: tuple = (None, None, {})  # (query, catalog version, memo)

    def _query_memo(self, query: BoundQuery) -> dict:
        version = self.catalog.version
        memo = self._memo
        if memo[0] is not query or memo[1] != version:
            memo = self._memo = (query, version, {})
        return memo[2]

    def _table_predicate(self, query: BoundQuery, table: str) -> Expr | None:
        memo = self._query_memo(query)
        key = ("predicate", table)
        if key not in memo:
            memo[key] = make_and(query.filters.get(table, []))
        return memo[key]

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #
    def plan(self, query: BoundQuery) -> PhysNode:
        """Plan with the DP-chosen join order."""
        tree = self.choose_join_tree(query)
        return self.plan_with_tree(query, tree)

    def choose_join_tree(self, query: BoundQuery) -> JoinTree | Leaf:
        base = {
            ref.name: self.base_relation(query, ref.name) for ref in query.tables
        }
        tree, _ = order_joins(
            base,
            query.join_edges,
            self.estimator,
            left_deep_only=self.left_deep_only,
        )
        return tree

    def plan_with_tree(self, query: BoundQuery, tree: JoinTree | Leaf) -> PhysNode:
        """Plan with an explicit join tree (used by bushy-variant search)."""
        stream = self._plan_join_tree(query, tree)
        stream = self._apply_residuals(query, stream)
        stream = self._plan_aggregation(query, stream)
        stream = self._plan_projection(query, stream)
        stream = self._plan_distinct(query, stream)
        stream = self._plan_order_and_limit(query, stream)
        return self._gather(stream).node

    # ------------------------------------------------------------------ #
    # Scans
    # ------------------------------------------------------------------ #
    def base_relation(self, query: BoundQuery, table: str) -> EstimatedRelation:
        memo = self._query_memo(query)
        key = ("base", table)
        found = memo.get(key)
        if found is None:
            found = self.estimator.base_relation(
                table,
                self._table_predicate(query, table),
                query.columns_needed(table),
            )
            memo[key] = found
        return found

    def _plan_scan(self, query: BoundQuery, table: str) -> _Stream:
        entry = self.catalog.table(table)
        predicate = self._table_predicate(query, table)
        columns = query.columns_needed(table)
        if not columns:
            # A table used only for its existence (e.g. key-only join):
            # keep its primary key so the scan has output.
            columns = tuple(entry.schema.primary_key) or (entry.schema.columns[0].name,)
            rel = self.estimator.base_relation(table, predicate, columns)
        else:
            rel = self.base_relation(query, table)
        memo = self._query_memo(query)
        fraction_key = ("fraction", table)
        fraction = memo.get(fraction_key)
        if fraction is None:
            fraction = self.estimator.scan_partition_fraction(table, predicate)
            memo[fraction_key] = fraction

        read_columns = set(columns)
        if predicate is not None:
            read_columns |= referenced_columns(predicate)
        read_width = sum(
            entry.schema.column(c).dtype.width_bytes for c in read_columns
        )
        scan = PhysScan(
            table=table,
            columns=columns,
            predicate=predicate,
            partition_fraction=fraction,
        )
        scan.input_rows = entry.row_count * fraction
        scan.input_bytes = (
            entry.storage_bytes
            * fraction
            * (read_width / max(1, entry.schema.row_width_bytes))
        )
        scan.est_rows = rel.rows
        scan.est_bytes = rel.bytes
        return _Stream(node=scan, rel=rel, partition_cols=frozenset())

    # ------------------------------------------------------------------ #
    # Joins
    # ------------------------------------------------------------------ #
    def _plan_join_tree(self, query: BoundQuery, tree: JoinTree | Leaf) -> _Stream:
        if isinstance(tree, Leaf):
            return self._plan_scan(query, tree.table)
        left = self._plan_join_tree(query, tree.left)
        right = self._plan_join_tree(query, tree.right)
        edges = list(tree.edges)
        if not edges:
            raise OptimizerError("join tree node without edges")
        return self._build_hash_join(left, right, edges, query=query)

    def _join_relation(
        self,
        build: _Stream,
        probe: _Stream,
        edges: list[JoinEdge],
        query: BoundQuery | None,
    ) -> EstimatedRelation:
        """Join cardinality estimate, memoized per query.

        Bushy variants of one query share join prefixes; the estimate
        is a pure function of the two input relations and the edges.
        The key uses the input relations' *object identities*: scans
        and joins are themselves memoized per query, so structurally
        identical subtrees hand back the same relation objects, while
        differently-shaped subtrees over the same tables (which carry
        different rows/ndv) get distinct keys.  The memo holds strong
        references to every keyed relation, so ids cannot be recycled
        while the entry lives.
        """
        if query is None:
            return self.estimator.join(build.rel, probe.rel, edges)
        memo = self._query_memo(query)
        key = ("join", id(build.rel), id(probe.rel), tuple(edges))
        entry = memo.get(key)
        if entry is None:
            entry = (
                self.estimator.join(build.rel, probe.rel, edges),
                build.rel,
                probe.rel,
            )
            memo[key] = entry
        return entry[0]

    def _build_hash_join(
        self,
        left: _Stream,
        right: _Stream,
        edges: list[JoinEdge],
        query: BoundQuery | None = None,
    ) -> _Stream:
        # Build on the smaller estimated side.
        if left.rel.bytes <= right.rel.bytes:
            build, probe = left, right
        else:
            build, probe = right, left

        build_keys: list[ColumnRef] = []
        probe_keys: list[ColumnRef] = []
        for edge in edges:
            a, b = edge.tables()
            if a in build.rel.tables and b in probe.rel.tables:
                build_keys.append(edge.left)
                probe_keys.append(edge.right)
            elif b in build.rel.tables and a in probe.rel.tables:
                build_keys.append(edge.right)
                probe_keys.append(edge.left)
            else:
                raise OptimizerError(f"edge {edge} does not connect join inputs")

        joined_rel = self._join_relation(build, probe, edges, query)
        broadcast = build.rel.bytes < self.broadcast_threshold

        build_node = build.node
        probe_node = probe.node
        if broadcast:
            build_node = self._exchange(build_node, build.rel, ExchangeKind.BROADCAST)
            partition_cols = probe.partition_cols
        else:
            anchor_build = build_keys[0].name
            anchor_probe = probe_keys[0].name
            if anchor_build not in build.partition_cols:
                build_node = self._exchange(
                    build_node, build.rel, ExchangeKind.SHUFFLE, keys=(anchor_build,)
                )
                build_partition = frozenset([anchor_build])
            else:
                build_partition = build.partition_cols
            if anchor_probe not in probe.partition_cols:
                probe_node = self._exchange(
                    probe_node, probe.rel, ExchangeKind.SHUFFLE, keys=(anchor_probe,)
                )
                probe_partition = frozenset([anchor_probe])
            else:
                probe_partition = probe.partition_cols
            # The join key values coincide on both sides, so the output is
            # partitioned on the whole equivalence class.
            partition_cols = build_partition | probe_partition

        join = PhysHashJoin(
            build=build_node,
            probe=probe_node,
            build_keys=tuple(build_keys),
            probe_keys=tuple(probe_keys),
            broadcast_build=broadcast,
        )
        join.est_rows = joined_rel.rows
        join.est_bytes = joined_rel.bytes
        return _Stream(node=join, rel=joined_rel, partition_cols=partition_cols)

    def _exchange(
        self,
        node: PhysNode,
        rel: EstimatedRelation,
        kind: ExchangeKind,
        keys: tuple[str, ...] = (),
    ) -> PhysNode:
        exchange = PhysExchange(child=node, kind=kind, keys=keys)
        exchange.est_rows = rel.rows
        exchange.est_bytes = rel.bytes
        return exchange

    # ------------------------------------------------------------------ #
    # Residual predicates
    # ------------------------------------------------------------------ #
    def _apply_residuals(self, query: BoundQuery, stream: _Stream) -> _Stream:
        if not query.residuals:
            return stream
        predicate = make_and(query.residuals)
        assert predicate is not None
        node = PhysFilter(child=stream.node, predicate=predicate)
        selectivity = DEFAULT_SELECTIVITY ** len(query.residuals)
        rel = replace(stream.rel, rows=stream.rel.rows * selectivity)
        node.est_rows = rel.rows
        node.est_bytes = rel.bytes
        return _Stream(node=node, rel=rel, partition_cols=stream.partition_cols)

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def _plan_aggregation(self, query: BoundQuery, stream: _Stream) -> _Stream:
        if not query.has_aggregation:
            return stream
        keys = tuple(query.group_keys)
        key_names = tuple(k.name for k in keys)
        aggregates = tuple(query.aggregates)
        agg_names = tuple(query.agg_names)
        groups = self.estimator.group_count(stream.rel, key_names)
        out_width = (len(key_names) + len(agg_names)) * 8.0

        already_partitioned = bool(set(key_names) & stream.partition_cols)
        if already_partitioned:
            # Input partitioned on a group key: single-phase local agg.
            final = PhysAggregate(
                child=stream.node,
                group_keys=keys,
                aggregates=aggregates,
                agg_names=agg_names,
                mode=AggMode.SINGLE,
            )
            final.est_rows = groups
            final.est_bytes = groups * out_width
            rel = EstimatedRelation(
                rows=groups,
                ndv={name: min(groups, stream.rel.ndv.get(name, groups)) for name in key_names},
                width_bytes=out_width,
                tables=stream.rel.tables,
            )
            for name in agg_names:
                rel.ndv[name] = groups
            return self._apply_having(
                query, _Stream(final, rel, stream.partition_cols)
            )

        partial = PhysAggregate(
            child=stream.node,
            group_keys=keys,
            aggregates=aggregates,
            agg_names=agg_names,
            mode=AggMode.PARTIAL,
        )
        partial.est_rows = min(stream.rel.rows, groups * REFERENCE_DOP)
        partial.est_bytes = partial.est_rows * out_width

        partial_rel = EstimatedRelation(
            rows=partial.est_rows,
            ndv=dict(stream.rel.ndv),
            width_bytes=out_width,
            tables=stream.rel.tables,
        )
        if key_names:
            exchange = self._exchange(
                partial, partial_rel, ExchangeKind.SHUFFLE, keys=(key_names[0],)
            )
            partition_cols = frozenset([key_names[0]])
        else:
            exchange = self._exchange(partial, partial_rel, ExchangeKind.GATHER)
            partition_cols = frozenset()

        final = PhysAggregate(
            child=exchange,
            group_keys=keys,
            aggregates=aggregates,
            agg_names=agg_names,
            mode=AggMode.FINAL,
        )
        final.est_rows = groups
        final.est_bytes = groups * out_width
        rel = EstimatedRelation(
            rows=groups,
            ndv={name: min(groups, stream.rel.ndv.get(name, groups)) for name in key_names},
            width_bytes=out_width,
            tables=stream.rel.tables,
        )
        for name in agg_names:
            rel.ndv[name] = groups
        stream = _Stream(final, rel, partition_cols)
        return self._apply_having(query, stream)

    def _apply_having(self, query: BoundQuery, stream: _Stream) -> _Stream:
        if query.having is None:
            return stream
        node = PhysFilter(child=stream.node, predicate=query.having)
        rel = replace(stream.rel, rows=stream.rel.rows * DEFAULT_SELECTIVITY)
        node.est_rows = rel.rows
        node.est_bytes = rel.bytes
        return _Stream(node, rel, stream.partition_cols)

    # ------------------------------------------------------------------ #
    # Projection, distinct, ordering
    # ------------------------------------------------------------------ #
    def _plan_projection(self, query: BoundQuery, stream: _Stream) -> _Stream:
        exprs = tuple(query.select_exprs)
        names = tuple(query.select_names)
        # Skip the projection when it is an identity over current columns.
        if all(
            isinstance(e, ColumnRef) and e.name == n for e, n in zip(exprs, names)
        ) and len(exprs) == len(stream.node.output_columns()):
            return stream
        node = PhysProject(child=stream.node, exprs=exprs, names=names)
        width = len(names) * 8.0
        rel = EstimatedRelation(
            rows=stream.rel.rows,
            ndv={name: stream.rel.rows for name in names},
            width_bytes=width,
            tables=stream.rel.tables,
        )
        for expr, name in zip(exprs, names):
            if isinstance(expr, ColumnRef) and expr.name in stream.rel.ndv:
                rel.ndv[name] = stream.rel.ndv[expr.name]
        node.est_rows = rel.rows
        node.est_bytes = rel.bytes
        partition = stream.partition_cols & frozenset(names)
        return _Stream(node, rel, partition)

    def _plan_distinct(self, query: BoundQuery, stream: _Stream) -> _Stream:
        if not query.distinct:
            return stream
        names = tuple(query.select_names)
        keys = tuple(ColumnRef(name=n) for n in names)
        groups = self.estimator.group_count(stream.rel, names)
        node = PhysAggregate(
            child=stream.node,
            group_keys=keys,
            aggregates=(),
            agg_names=(),
            mode=AggMode.SINGLE,
        )
        node.est_rows = groups
        node.est_bytes = groups * stream.rel.width_bytes
        rel = replace(stream.rel, rows=groups)
        return _Stream(node, rel, stream.partition_cols)

    def _plan_order_and_limit(self, query: BoundQuery, stream: _Stream) -> _Stream:
        node = stream.node
        rel = stream.rel
        if query.order_by:
            keys = tuple(name for name, _ in query.order_by)
            ascending = tuple(asc for _, asc in query.order_by)
            sort = PhysSort(
                child=node, keys=keys, ascending=ascending, limit=query.limit
            )
            rows = rel.rows if query.limit is None else min(rel.rows, float(query.limit))
            sort.est_rows = rows
            sort.est_bytes = rows * rel.width_bytes
            rel = replace(rel, rows=rows)
            return _Stream(sort, rel, stream.partition_cols)
        if query.limit is not None:
            limit = PhysLimit(child=node, limit=query.limit)
            rows = min(rel.rows, float(query.limit))
            limit.est_rows = rows
            limit.est_bytes = rows * rel.width_bytes
            rel = replace(rel, rows=rows)
            return _Stream(limit, rel, stream.partition_cols)
        return stream

    def _gather(self, stream: _Stream) -> _Stream:
        node = self._exchange(stream.node, stream.rel, ExchangeKind.GATHER)
        return _Stream(node, stream.rel, frozenset())
