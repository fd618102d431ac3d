"""Binder: unbound AST + catalog -> bound query graph.

The binder resolves names, type-checks string comparisons against sorted
column dictionaries, splits the WHERE clause into per-table filters and
equi-join edges, and extracts aggregates — producing the
:class:`BoundQuery` "query graph" that the DAG planner optimizes.
Representing the query as a graph (rather than a fixed operator tree)
is what lets join ordering and bushy-plan generation (§3.2) explore
shapes freely.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from repro.catalog.catalog import Catalog
from repro.catalog.schema import DataType
from repro.errors import BindError
from repro.plan.expressions import (
    AggCall,
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    Literal,
    UnaryOp,
    conjuncts,
    contains_aggregate,
    referenced_columns,
    walk,
)
from repro.sql.ast_nodes import (
    AstBetween,
    AstBinary,
    AstColumn,
    AstExpr,
    AstFuncCall,
    AstInList,
    AstLiteral,
    AstSelect,
    AstUnary,
)
from repro.sql.parser import parse, parse_parameterized


@dataclass(frozen=True)
class TableRef:
    """A base table participating in the query."""

    name: str
    alias: str


@dataclass(frozen=True)
class JoinEdge:
    """An equi-join predicate between two tables' columns."""

    left: ColumnRef
    right: ColumnRef

    def tables(self) -> tuple[str, str]:
        assert self.left.table is not None and self.right.table is not None
        return (self.left.table, self.right.table)


@dataclass(eq=False)
class BoundQuery:
    """A bound query graph ready for optimization.

    For aggregating queries, ``select_exprs`` and ``having`` live in the
    *post-aggregate* namespace: group keys keep their column names and
    each aggregate is exposed under its generated name in ``agg_names``.

    Identity semantics (``eq=False``): bound queries are compared and
    hashed by object identity so the optimizer's DAG-planning memo can
    key weak per-query entries on them.
    """

    sql: str
    tables: list[TableRef]
    filters: dict[str, list[Expr]]
    join_edges: list[JoinEdge]
    residuals: list[Expr]
    group_keys: list[ColumnRef]
    aggregates: list[AggCall]
    agg_names: list[str]
    select_exprs: list[Expr]
    select_names: list[str]
    having: Expr | None
    order_by: list[tuple[str, bool]]
    limit: int | None
    distinct: bool = False

    @property
    def has_aggregation(self) -> bool:
        return bool(self.aggregates) or bool(self.group_keys)

    @property
    def table_names(self) -> list[str]:
        return [t.name for t in self.tables]

    def columns_needed(self, table: str) -> tuple[str, ...]:
        """Columns of ``table`` referenced anywhere in the query.

        Memoized per table: the planner asks once per join-tree variant
        and the query graph is immutable after binding.
        """
        cache = self.__dict__.setdefault("_columns_needed", {})
        found = cache.get(table)
        if found is None:
            found = self._compute_columns_needed(table)
            cache[table] = found
        return found

    def _compute_columns_needed(self, table: str) -> tuple[str, ...]:
        needed: set[str] = set()
        exprs: list[Expr] = []
        exprs.extend(self.filters.get(table, []))
        exprs.extend(self.residuals)
        for edge in self.join_edges:
            exprs.extend([edge.left, edge.right])
        exprs.extend(self.group_keys)
        for agg in self.aggregates:
            if agg.arg is not None:
                exprs.append(agg.arg)
        if not self.has_aggregation:
            exprs.extend(self.select_exprs)
        for expr in exprs:
            for node in walk(expr):
                if isinstance(node, ColumnRef) and node.table == table:
                    needed.add(node.name)
        return tuple(sorted(needed))


class Binder:
    """Binds parsed statements against a catalog."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

    def bind_sql(self, sql: str) -> BoundQuery:
        return self.bind(parse(sql), sql=sql)

    def bind_parameterized(
        self, template_key: str, constants: tuple, sql: str = ""
    ) -> BoundQuery:
        """Bind a ``(template_key, constants)`` pair via the template-AST
        cache — recurring templates skip lexing and parsing entirely."""
        return self.bind(parse_parameterized(template_key, constants, sql), sql=sql)

    # ------------------------------------------------------------------ #
    # Statement binding
    # ------------------------------------------------------------------ #
    def bind(self, stmt: AstSelect, sql: str = "") -> BoundQuery:
        tables, alias_map = self._bind_tables(stmt)
        owners = self._column_owners(tables)

        scope = _Scope(self.catalog, alias_map, owners)

        # WHERE plus JOIN..ON conditions all feed one conjunct pool.
        predicates: list[Expr] = []
        if stmt.where is not None:
            predicates.extend(conjuncts(scope.bind(stmt.where)))
        for join in stmt.joins:
            predicates.extend(conjuncts(scope.bind(join.condition)))

        filters: dict[str, list[Expr]] = {t.name: [] for t in tables}
        join_edges: list[JoinEdge] = []
        residuals: list[Expr] = []
        for predicate in predicates:
            edge = _as_join_edge(predicate)
            if edge is not None:
                join_edges.append(edge)
                continue
            pred_tables = {
                node.table
                for node in walk(predicate)
                if isinstance(node, ColumnRef) and node.table
            }
            if len(pred_tables) == 1:
                filters[pred_tables.pop()].append(predicate)
            elif not pred_tables:
                raise BindError(f"constant predicate not supported: {predicate.sql()}")
            else:
                residuals.append(predicate)

        group_keys = [scope.bind_column(col) for col in stmt.group_by]

        # Select list: bind, then extract aggregates.
        raw_items: list[tuple[Expr, str]] = []
        for index, item in enumerate(stmt.items):
            bound = scope.bind(item.expr)
            name = item.alias or _default_name(bound, index)
            raw_items.append((bound, name))

        extractor = _AggregateExtractor()
        select_exprs: list[Expr] = []
        select_names: list[str] = []
        for bound, name in raw_items:
            select_exprs.append(extractor.rewrite(bound))
            select_names.append(name)
        if len(set(select_names)) != len(select_names):
            raise BindError(f"duplicate output column names: {select_names}")

        aggregates = extractor.aggregates
        agg_names = extractor.names

        has_agg = bool(aggregates) or bool(group_keys)
        if has_agg:
            self._check_grouping(select_exprs, group_keys, agg_names)

        having: Expr | None = None
        if stmt.having is not None:
            if not has_agg:
                raise BindError("HAVING requires GROUP BY or aggregates")
            bound_having = scope.bind(stmt.having)
            having = extractor.rewrite(bound_having)
            aggregates = extractor.aggregates
            agg_names = extractor.names
            self._check_grouping([having], group_keys, agg_names)

        distinct = stmt.distinct
        if distinct and has_agg:
            raise BindError("DISTINCT with aggregation is not supported")

        order_by = self._bind_order_by(stmt, scope, select_exprs, select_names, has_agg)

        return BoundQuery(
            sql=sql,
            tables=tables,
            filters=filters,
            join_edges=join_edges,
            residuals=residuals,
            group_keys=group_keys,
            aggregates=list(aggregates),
            agg_names=list(agg_names),
            select_exprs=select_exprs,
            select_names=select_names,
            having=having,
            order_by=order_by,
            limit=stmt.limit,
            distinct=distinct,
        )

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _bind_tables(self, stmt: AstSelect) -> tuple[list[TableRef], dict[str, str]]:
        refs: list[TableRef] = []
        alias_map: dict[str, str] = {}
        all_tables = list(stmt.tables) + [j.table for j in stmt.joins]
        for ast_ref in all_tables:
            if not self.catalog.has_table(ast_ref.name):
                raise BindError(f"unknown table {ast_ref.name!r}")
            alias = ast_ref.alias or ast_ref.name
            if alias in alias_map:
                raise BindError(f"duplicate table alias {alias!r}")
            if any(r.name == ast_ref.name for r in refs):
                raise BindError(
                    f"table {ast_ref.name!r} appears twice; self-joins are "
                    "not supported"
                )
            alias_map[alias] = ast_ref.name
            refs.append(TableRef(name=ast_ref.name, alias=alias))
        return refs, alias_map

    def _column_owners(self, tables: list[TableRef]) -> dict[str, list[str]]:
        owners: dict[str, list[str]] = {}
        for ref in tables:
            entry = self.catalog.table(ref.name)
            for column in entry.schema.columns:
                owners.setdefault(column.name, []).append(ref.name)
        return owners

    @staticmethod
    def _check_grouping(
        exprs: list[Expr], group_keys: list[ColumnRef], agg_names: list[str]
    ) -> None:
        """Non-aggregate references must be group keys or aggregate outputs."""
        allowed = {k.name for k in group_keys} | set(agg_names)
        for expr in exprs:
            for name in referenced_columns(expr):
                if name not in allowed:
                    raise BindError(
                        f"column {name!r} must appear in GROUP BY or inside "
                        "an aggregate"
                    )

    @staticmethod
    def _bind_order_by(
        stmt: AstSelect,
        scope: "_Scope",
        select_exprs: list[Expr],
        select_names: list[str],
        has_agg: bool,
    ) -> list[tuple[str, bool]]:
        order_by: list[tuple[str, bool]] = []
        for item in stmt.order_by:
            expr = item.expr
            if isinstance(expr, AstColumn) and expr.qualifier is None:
                name = expr.name
                if name in select_names:
                    order_by.append((name, item.ascending))
                    continue
            bound = scope.bind(expr) if not has_agg else None
            if bound is not None:
                # Allow ordering by a bare column that is already projected.
                for sel, sel_name in zip(select_exprs, select_names):
                    if sel == bound:
                        order_by.append((sel_name, item.ascending))
                        break
                else:
                    raise BindError(
                        f"ORDER BY expression {item.expr} must appear in the "
                        "select list"
                    )
            else:
                raise BindError(
                    f"ORDER BY {item.expr} must reference an output column"
                )
        return order_by


def _default_name(expr: Expr, index: int) -> str:
    if isinstance(expr, ColumnRef):
        return expr.name
    return f"col{index}"


def _as_join_edge(predicate: Expr) -> JoinEdge | None:
    if not (isinstance(predicate, BinaryOp) and predicate.op == "="):
        return None
    left, right = predicate.left, predicate.right
    if not (isinstance(left, ColumnRef) and isinstance(right, ColumnRef)):
        return None
    if left.table is None or right.table is None or left.table == right.table:
        return None
    return JoinEdge(left=left, right=right)


class _AggregateExtractor:
    """Replaces AggCall subtrees with refs to generated output names."""

    def __init__(self) -> None:
        self.aggregates: list[AggCall] = []
        self.names: list[str] = []

    def rewrite(self, expr: Expr) -> Expr:
        if isinstance(expr, AggCall):
            return ColumnRef(name=self._register(expr))
        if isinstance(expr, BinaryOp):
            return BinaryOp(expr.op, self.rewrite(expr.left), self.rewrite(expr.right))
        if isinstance(expr, UnaryOp):
            return UnaryOp(expr.op, self.rewrite(expr.operand))
        if isinstance(expr, FuncCall):
            return FuncCall(expr.name, tuple(self.rewrite(a) for a in expr.args))
        if isinstance(expr, InList):
            return InList(self.rewrite(expr.operand), expr.values, expr.negated)
        return expr

    def _register(self, agg: AggCall) -> str:
        for existing, name in zip(self.aggregates, self.names):
            if existing == agg:
                return name
        name = f"agg{len(self.aggregates)}"
        self.aggregates.append(agg)
        self.names.append(name)
        return name


class _Scope:
    """Expression binding scope: resolves columns and encodes strings."""

    def __init__(
        self,
        catalog: Catalog,
        alias_map: dict[str, str],
        owners: dict[str, list[str]],
    ) -> None:
        self.catalog = catalog
        self.alias_map = alias_map
        self.owners = owners

    # -------------------------- column resolution ---------------------- #
    def bind_column(self, ast: AstColumn) -> ColumnRef:
        if ast.qualifier is not None:
            table = self.alias_map.get(ast.qualifier)
            if table is None:
                raise BindError(f"unknown table alias {ast.qualifier!r}")
            if not self.catalog.table(table).schema.has_column(ast.name):
                raise BindError(f"table {table!r} has no column {ast.name!r}")
            return ColumnRef(name=ast.name, table=table)
        candidates = self.owners.get(ast.name, [])
        if not candidates:
            raise BindError(f"unknown column {ast.name!r}")
        if len(candidates) > 1:
            raise BindError(
                f"ambiguous column {ast.name!r} (in tables {candidates})"
            )
        return ColumnRef(name=ast.name, table=candidates[0])

    def column_type(self, ref: ColumnRef) -> DataType:
        assert ref.table is not None
        return self.catalog.table(ref.table).schema.column(ref.name).dtype

    def dictionary(self, ref: ColumnRef) -> tuple[str, ...]:
        assert ref.table is not None
        entry = self.catalog.table(ref.table)
        dictionary = entry.dictionaries.get(ref.name)
        if dictionary is None:
            raise BindError(
                f"string column {ref.table}.{ref.name} has no dictionary; "
                "cannot compare against string literals"
            )
        return dictionary

    # ----------------------------- binding ----------------------------- #
    def bind(self, ast: AstExpr) -> Expr:
        if isinstance(ast, AstColumn):
            return self.bind_column(ast)
        if isinstance(ast, AstLiteral):
            if isinstance(ast.value, str):
                # Bare string literal outside a comparison context: defer;
                # comparisons intercept these before binding.
                return Literal(ast.value)
            return Literal(ast.value)
        if isinstance(ast, AstBinary):
            return self._bind_binary(ast)
        if isinstance(ast, AstUnary):
            op = ast.op
            return UnaryOp(op, self.bind(ast.operand))
        if isinstance(ast, AstBetween):
            lo = AstBinary(">=", ast.operand, ast.low)
            hi = AstBinary("<=", ast.operand, ast.high)
            both = AstBinary("and", lo, hi)
            bound = self.bind(both)
            return UnaryOp("not", bound) if ast.negated else bound
        if isinstance(ast, AstInList):
            return self._bind_in_list(ast)
        if isinstance(ast, AstFuncCall):
            return self._bind_func(ast)
        raise BindError(f"cannot bind expression {ast!r}")

    def _bind_func(self, ast: AstFuncCall) -> Expr:
        from repro.plan.expressions import AGGREGATE_FUNCS, SCALAR_FUNCS

        if ast.name in AGGREGATE_FUNCS:
            if ast.star:
                return AggCall(func="count", arg=None, distinct=False)
            if len(ast.args) != 1:
                raise BindError(f"aggregate {ast.name} takes one argument")
            return AggCall(
                func=ast.name, arg=self.bind(ast.args[0]), distinct=ast.distinct
            )
        if ast.name in SCALAR_FUNCS:
            return FuncCall(ast.name, tuple(self.bind(a) for a in ast.args))
        raise BindError(f"unknown function {ast.name!r}")

    def _bind_binary(self, ast: AstBinary) -> Expr:
        if ast.op in ("and", "or"):
            return BinaryOp(ast.op, self.bind(ast.left), self.bind(ast.right))
        # String comparison: column vs string literal -> dictionary codes.
        string_side = None
        if isinstance(ast.right, AstLiteral) and isinstance(ast.right.value, str):
            string_side = "right"
        elif isinstance(ast.left, AstLiteral) and isinstance(ast.left.value, str):
            string_side = "left"
        if string_side is not None and ast.op in ("=", "<>", "<", "<=", ">", ">="):
            if string_side == "right":
                column_ast, literal_ast, op = ast.left, ast.right, ast.op
            else:
                column_ast, literal_ast, op = ast.right, ast.left, _flip(ast.op)
            column = self.bind(column_ast)
            if not isinstance(column, ColumnRef):
                raise BindError(
                    f"string literal comparison requires a plain column, got "
                    f"{column.sql()}"
                )
            if self.column_type(column) is not DataType.STRING:
                raise BindError(
                    f"cannot compare non-string column {column.sql()} with a "
                    "string literal"
                )
            assert isinstance(literal_ast, AstLiteral)
            assert isinstance(literal_ast.value, str)
            return self._encode_string_comparison(column, op, literal_ast.value)
        return BinaryOp(ast.op, self.bind(ast.left), self.bind(ast.right))

    def _encode_string_comparison(
        self, column: ColumnRef, op: str, value: str
    ) -> Expr:
        dictionary = self.dictionary(column)
        position = bisect.bisect_left(dictionary, value)
        exact = position < len(dictionary) and dictionary[position] == value
        if op == "=":
            if not exact:
                return _impossible(column)
            return BinaryOp("=", column, Literal(position))
        if op == "<>":
            if not exact:
                return _always_true(column)
            return BinaryOp("<>", column, Literal(position))
        if op == "<":
            return BinaryOp("<", column, Literal(position))
        if op == "<=":
            if exact:
                return BinaryOp("<=", column, Literal(position))
            return BinaryOp("<", column, Literal(position))
        if op == ">":
            if exact:
                return BinaryOp(">", column, Literal(position))
            return BinaryOp(">=", column, Literal(position))
        if op == ">=":
            return BinaryOp(">=", column, Literal(position))
        raise BindError(f"unsupported string comparison operator {op!r}")

    def _bind_in_list(self, ast: AstInList) -> Expr:
        operand = self.bind(ast.operand)
        raw_values = [lit.value for lit in ast.values]
        if any(isinstance(v, str) for v in raw_values):
            if not isinstance(operand, ColumnRef):
                raise BindError("string IN-list requires a plain column")
            if self.column_type(operand) is not DataType.STRING:
                raise BindError(
                    f"cannot apply string IN-list to {operand.sql()}"
                )
            dictionary = self.dictionary(operand)
            codes = tuple(
                dictionary.index(v)  # type: ignore[arg-type]
                for v in raw_values
                if isinstance(v, str) and v in dictionary
            )
            if not codes:
                return (
                    _always_true(operand) if ast.negated else _impossible(operand)
                )
            return InList(operand, codes, negated=ast.negated)
        return InList(operand, tuple(raw_values), negated=ast.negated)  # type: ignore[arg-type]


def _flip(op: str) -> str:
    return {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}[op]


def _impossible(column: ColumnRef) -> Expr:
    """A predicate on ``column`` that never matches (codes are >= 0)."""
    return BinaryOp("<", column, Literal(-1))


def _always_true(column: ColumnRef) -> Expr:
    """A predicate on ``column`` that always matches."""
    return BinaryOp(">=", column, Literal(-1))
