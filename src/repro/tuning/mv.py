"""Materialized-view candidates, hypothetical registration, and rewriting.

The §4 running example prices an MV by the computation it saves when
substituted into queries.  A candidate here is an aggregate MV over an
inner-join: group-by columns are the workload's group keys *plus* its
filter columns (so parameterized recurring queries can still filter), and
each aggregate is stored in decomposed form (sum/count/min/max) so query
aggregates — including avg — are derivable from the view.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar

from repro.catalog.catalog import Catalog, MaterializedViewDef, TableEntry
from repro.catalog.schema import Column, DataType, TableSchema
from repro.catalog.statistics import ColumnStats, TableStats
from repro.errors import TuningError
from repro.optimizer.cardinality import CardinalityEstimator
from repro.plan.expressions import (
    AggCall,
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    Literal,
    UnaryOp,
    referenced_columns,
)
from repro.sql.binder import BoundQuery, JoinEdge, TableRef
from repro.storage.micropartition import COMPRESSION_RATIO


@dataclass(frozen=True)
class MVCandidate:
    """A candidate aggregate materialized view; applying it builds and
    registers the view."""

    kind: ClassVar[str] = "materialized-view"

    name: str
    base_tables: tuple[str, ...]
    join_edges: tuple[tuple[str, str], ...]  # normalized "t.col" pairs
    group_by: tuple[str, ...]  # unqualified column names (unique schema-wide)
    agg_sources: tuple[str, ...]  # source aggregate expressions (sql text)
    agg_calls: tuple[AggCall, ...] = ()
    est_rows: float = 0.0
    est_bytes: float = 0.0

    def sum_column(self, index: int) -> str:
        return f"mv{index}_sum"

    def min_column(self, index: int) -> str:
        return f"mv{index}_min"

    def max_column(self, index: int) -> str:
        return f"mv{index}_max"

    @property
    def count_column(self) -> str:
        return "mv_count"

    def to_view_def(self, sql: str = "") -> MaterializedViewDef:
        return MaterializedViewDef(
            name=self.name,
            base_tables=self.base_tables,
            join_keys=self.join_edges,
            group_by=self.group_by,
            aggregates=self.agg_sources,
            sql=sql,
            row_count=int(self.est_rows),
            storage_bytes=int(self.est_bytes),
        )


def _normalize_edge(edge: JoinEdge) -> tuple[str, str]:
    a = f"{edge.left.table}.{edge.left.name}"
    b = f"{edge.right.table}.{edge.right.name}"
    return tuple(sorted((a, b)))  # type: ignore[return-value]


def mv_candidate_from_query(
    query: BoundQuery,
    catalog: Catalog,
    name: str,
    *,
    estimator: CardinalityEstimator | None = None,
) -> MVCandidate:
    """Derive an MV candidate generalizing one recurring query family.

    Group-by = the query's group keys plus every filtered column, so any
    parameterization of the template can be answered from the view.
    """
    if not query.aggregates:
        raise TuningError("MV candidates require an aggregating query")
    if len(query.tables) < 2:
        raise TuningError("MV candidates require at least one join")
    estimator = estimator or CardinalityEstimator(catalog)

    group_cols: list[str] = [k.name for k in query.group_keys]
    for table, predicates in query.filters.items():
        for predicate in predicates:
            for column in sorted(referenced_columns(predicate)):
                if column not in group_cols:
                    group_cols.append(column)

    # Estimate output cardinality: groups over the un-filtered join.
    remaining = list(query.join_edges)
    rels = {
        ref.name: estimator.base_relation(
            ref.name, None, _all_column_names(catalog, ref.name)
        )
        for ref in query.tables
    }
    joined = rels[query.tables[0].name]
    merged = {query.tables[0].name}
    progress = True
    while remaining and progress:
        progress = False
        for edge in list(remaining):
            a, b = edge.tables()
            other = None
            if a in merged and b not in merged:
                other = b
            elif b in merged and a not in merged:
                other = a
            elif a in merged and b in merged:
                remaining.remove(edge)
                progress = True
                continue
            if other is not None:
                joined = estimator.join(joined, rels[other], [edge])
                merged.add(other)
                remaining.remove(edge)
                progress = True
    groups = estimator.group_count(joined, tuple(group_cols))

    num_aggs = len(query.aggregates)
    width = (len(group_cols) + 2 * num_aggs + 1) * 8.0
    return MVCandidate(
        name=name,
        base_tables=tuple(sorted(t.name for t in query.tables)),
        join_edges=tuple(sorted(_normalize_edge(e) for e in query.join_edges)),
        group_by=tuple(group_cols),
        agg_sources=tuple(a.sql() for a in query.aggregates),
        agg_calls=tuple(query.aggregates),
        est_rows=groups,
        est_bytes=groups * width,
    )


def _all_column_names(catalog: Catalog, table: str) -> tuple[str, ...]:
    return catalog.table(table).schema.column_names


# ---------------------------------------------------------------------- #
# Hypothetical registration
# ---------------------------------------------------------------------- #
def mv_schema(candidate: MVCandidate, catalog: Catalog) -> TableSchema:
    """Physical schema of the materialized view table."""
    columns: list[Column] = []
    for name in candidate.group_by:
        source = _find_column(catalog, candidate.base_tables, name)
        columns.append(Column(name, source.dtype))
    for index, agg in enumerate(candidate.agg_calls):
        if agg.func in ("sum", "avg", "count") and agg.arg is not None:
            columns.append(Column(candidate.sum_column(index), DataType.FLOAT64))
        if agg.func == "min":
            columns.append(Column(candidate.min_column(index), DataType.FLOAT64))
        if agg.func == "max":
            columns.append(Column(candidate.max_column(index), DataType.FLOAT64))
    columns.append(Column(candidate.count_column, DataType.INT64))
    return TableSchema(candidate.name, tuple(columns))


def _find_column(catalog: Catalog, tables: tuple[str, ...], name: str) -> Column:
    for table in tables:
        schema = catalog.table(table).schema
        if schema.has_column(name):
            return schema.column(name)
    raise TuningError(f"column {name!r} not found in MV base tables {tables}")


def register_hypothetical_mv(
    overlay: Catalog, candidate: MVCandidate, catalog: Catalog
) -> TableEntry:
    """Register the MV as a table in a what-if catalog overlay."""
    schema = mv_schema(candidate, catalog)
    rows = max(1, int(candidate.est_rows))
    column_stats: dict[str, ColumnStats] = {}
    dictionaries: dict[str, tuple[str, ...]] = {}
    for column in schema.columns:
        if column.name in candidate.group_by:
            source_table = _owning_table(catalog, candidate.base_tables, column.name)
            source_stats = catalog.table(source_table).stats
            if source_stats.has_column(column.name):
                base = source_stats.column(column.name)
                column_stats[column.name] = ColumnStats(
                    column=column,
                    row_count=rows,
                    ndv=min(base.ndv, rows),
                    min_value=base.min_value,
                    max_value=base.max_value,
                    histogram=base.histogram,
                )
            source_dict = catalog.table(source_table).dictionaries.get(column.name)
            if source_dict is not None:
                dictionaries[column.name] = source_dict
        else:
            column_stats[column.name] = ColumnStats(
                column=column,
                row_count=rows,
                ndv=rows,
                min_value=0.0,
                max_value=float(rows),
            )
    entry = TableEntry(
        schema=schema,
        stats=TableStats(table=candidate.name, row_count=rows, column_stats=column_stats),
        storage_bytes=int(candidate.est_bytes / COMPRESSION_RATIO),
        num_partitions=max(1, rows // 64_000),
        dictionaries=dictionaries,
    )
    overlay.register_table(entry)
    overlay.register_view(candidate.to_view_def())
    return entry


def _owning_table(catalog: Catalog, tables: tuple[str, ...], column: str) -> str:
    for table in tables:
        if catalog.table(table).schema.has_column(column):
            return table
    raise TuningError(f"column {column!r} not found in {tables}")


# ---------------------------------------------------------------------- #
# Query rewriting
# ---------------------------------------------------------------------- #
def matches(candidate: MVCandidate, query: BoundQuery) -> bool:
    """Structural containment: can ``query`` be answered from the view?"""
    if not query.aggregates or query.distinct:
        return False
    if tuple(sorted(t.name for t in query.tables)) != candidate.base_tables:
        return False
    query_edges = {(_normalize_edge(e)) for e in query.join_edges}
    if query_edges != set(candidate.join_edges):
        return False
    group_set = set(candidate.group_by)
    if any(k.name not in group_set for k in query.group_keys):
        return False
    for predicates in query.filters.values():
        for predicate in predicates:
            if not referenced_columns(predicate) <= group_set:
                return False
    if query.residuals:
        return False
    sources = {sql: i for i, sql in enumerate(candidate.agg_sources)}
    for agg in query.aggregates:
        if agg.distinct:
            return False
        if agg.sql() not in sources and not _derivable(agg, sources):
            return False
    return True


def _derivable(agg: AggCall, sources: dict[str, int]) -> bool:
    """count(*) and avg/sum/count over a stored source are derivable."""
    if agg.func == "count" and agg.arg is None:
        return True
    if agg.arg is None:
        return False
    for func in ("sum", "avg"):
        if AggCall(func=func, arg=agg.arg).sql() in sources:
            return agg.func in ("sum", "avg", "count")
    return False


def try_rewrite(query: BoundQuery, candidate: MVCandidate) -> BoundQuery | None:
    """Rewrite ``query`` to scan the MV instead of joining base tables."""
    if not matches(candidate, query):
        return None
    mv = candidate.name
    source_index = _source_index(candidate)

    new_aggs: list[AggCall] = []
    new_names: list[str] = []
    replacement: dict[str, Expr] = {}

    def register(agg: AggCall) -> str:
        name = f"agg{len(new_aggs)}"
        new_aggs.append(agg)
        new_names.append(name)
        return name

    for agg, old_name in zip(query.aggregates, query.agg_names):
        index = source_index.get(_source_key(agg))
        if agg.func == "count":
            name = register(
                AggCall(func="sum", arg=ColumnRef(candidate.count_column, mv))
            )
            replacement[old_name] = ColumnRef(name)
        elif agg.func == "sum":
            assert index is not None
            name = register(
                AggCall(func="sum", arg=ColumnRef(candidate.sum_column(index), mv))
            )
            replacement[old_name] = ColumnRef(name)
        elif agg.func == "avg":
            assert index is not None
            sum_name = register(
                AggCall(func="sum", arg=ColumnRef(candidate.sum_column(index), mv))
            )
            count_name = register(
                AggCall(func="sum", arg=ColumnRef(candidate.count_column, mv))
            )
            replacement[old_name] = BinaryOp(
                "/", ColumnRef(sum_name), ColumnRef(count_name)
            )
        elif agg.func == "min":
            assert index is not None
            name = register(
                AggCall(func="min", arg=ColumnRef(candidate.min_column(index), mv))
            )
            replacement[old_name] = ColumnRef(name)
        elif agg.func == "max":
            assert index is not None
            name = register(
                AggCall(func="max", arg=ColumnRef(candidate.max_column(index), mv))
            )
            replacement[old_name] = ColumnRef(name)
        else:  # pragma: no cover - matches() filters these out
            return None

    rebound_filters: list[Expr] = []
    for predicates in query.filters.values():
        for predicate in predicates:
            rebound_filters.append(_rebind(predicate, mv))

    select_exprs = [_substitute(e, replacement, mv) for e in query.select_exprs]
    having = (
        _substitute(query.having, replacement, mv)
        if query.having is not None
        else None
    )
    return BoundQuery(
        sql=f"/* rewritten over {mv} */ {query.sql}",
        tables=[TableRef(name=mv, alias=mv)],
        filters={mv: rebound_filters},
        join_edges=[],
        residuals=[],
        group_keys=[ColumnRef(k.name, mv) for k in query.group_keys],
        aggregates=new_aggs,
        agg_names=new_names,
        select_exprs=select_exprs,
        select_names=list(query.select_names),
        having=having,
        order_by=list(query.order_by),
        limit=query.limit,
    )


def _source_key(agg: AggCall) -> str:
    if agg.arg is None:
        return "count(*)"
    return AggCall(func="sum", arg=agg.arg).sql() if agg.func in ("sum", "avg", "count") else agg.sql()


def _source_index(candidate: MVCandidate) -> dict[str, int]:
    index: dict[str, int] = {}
    for i, agg in enumerate(candidate.agg_calls):
        index[agg.sql()] = i
        if agg.arg is not None and agg.func in ("sum", "avg"):
            index[AggCall(func="sum", arg=agg.arg).sql()] = i
    return index


def _rebind(expr: Expr, table: str) -> Expr:
    """Re-point column refs at the MV table."""
    if isinstance(expr, ColumnRef):
        return ColumnRef(expr.name, table)
    if isinstance(expr, BinaryOp):
        return BinaryOp(expr.op, _rebind(expr.left, table), _rebind(expr.right, table))
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, _rebind(expr.operand, table))
    if isinstance(expr, FuncCall):
        return FuncCall(expr.name, tuple(_rebind(a, table) for a in expr.args))
    if isinstance(expr, InList):
        return InList(_rebind(expr.operand, table), expr.values, expr.negated)
    return expr


def _substitute(expr: Expr, replacement: dict[str, Expr], mv: str) -> Expr:
    """Replace old aggregate-output refs; leave group-key refs bare."""
    if isinstance(expr, ColumnRef):
        if expr.name in replacement:
            return replacement[expr.name]
        return ColumnRef(expr.name)
    if isinstance(expr, BinaryOp):
        return BinaryOp(
            expr.op,
            _substitute(expr.left, replacement, mv),
            _substitute(expr.right, replacement, mv),
        )
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, _substitute(expr.operand, replacement, mv))
    if isinstance(expr, FuncCall):
        return FuncCall(
            expr.name, tuple(_substitute(a, replacement, mv) for a in expr.args)
        )
    if isinstance(expr, InList):
        return InList(
            _substitute(expr.operand, replacement, mv), expr.values, expr.negated
        )
    return expr


def mv_build_sql(candidate: MVCandidate) -> str:
    """SQL that materializes the view's contents (for real application)."""
    select_parts: list[str] = list(candidate.group_by)
    for index, agg in enumerate(candidate.agg_calls):
        assert agg.arg is not None or agg.func == "count"
        if agg.func in ("sum", "avg", "count") and agg.arg is not None:
            select_parts.append(
                f"sum({agg.arg.sql()}) AS {candidate.sum_column(index)}"
            )
        elif agg.func == "min":
            select_parts.append(f"min({agg.arg.sql()}) AS {candidate.min_column(index)}")
        elif agg.func == "max":
            select_parts.append(f"max({agg.arg.sql()}) AS {candidate.max_column(index)}")
    select_parts.append(f"count(*) AS {candidate.count_column}")

    joins = " AND ".join(f"{a} = {b}" for a, b in candidate.join_edges)
    sql = (
        f"SELECT {', '.join(select_parts)} "
        f"FROM {', '.join(candidate.base_tables)} "
    )
    if joins:
        sql += f"WHERE {joins} "
    sql += f"GROUP BY {', '.join(candidate.group_by)}"
    return sql
