"""Binder: unbound AST + catalog -> bound query graph.

The binder resolves names, type-checks string comparisons against sorted
column dictionaries, splits the WHERE clause into per-table filters and
equi-join edges, and extracts aggregates — producing the
:class:`BoundQuery` "query graph" that the DAG planner optimizes.
Representing the query as a graph (rather than a fixed operator tree)
is what lets join ordering and bushy-plan generation (§3.2) explore
shapes freely.

Templates
---------

Report traffic re-issues one SQL shape with new literals, so the binder
binds each template — a template key plus the kinds of its literals —
once per catalog version and records where every literal slot lands in
the bound query.  Each instance is then built by filling its constants
into those slots with the binder's own literal rules (a string compared
with a column becomes a dictionary code or an always-false /
always-true predicate, a string IN list its codes, a date its epoch
day, a LIMIT its row count); expressions without a slot, and the
``columns_needed`` memo, are shared between instances.  Two things a
literal's *value* can change are checked, not assumed: a template whose
bound query drops a slot (a literal inside ORDER BY, or in an aggregate
the binder merged with an equal one) is not kept, so its instances bind
in full, and so does an instance whose literals make two of the
template's aggregates equal.  A template is bound from a parse of the
instance at hand (``parse_parameterized`` reads the template key's
words, with no lexing and no memo), so another query's literals never
decide this one's outcome.  Filled or bound in full, the result equals
binding a full parse of the text, field for field.
"""

from __future__ import annotations

import bisect
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable

from repro.catalog.catalog import Catalog
from repro.catalog.schema import DataType
from repro.errors import BindError, ParseError
from repro.plan.expressions import (
    COMPARISON_OPS,
    AggCall,
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    Literal,
    UnaryOp,
    conjuncts,
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
from repro.sql.parameterize import bind_constants, parameterize_sql
from repro.sql.parser import TemplateParse, parse, parse_parameterized

#: Bound templates one binder keeps; the least recently used leaves
#: first.  A template is a pure function of its key and the catalog
#: version, so an eviction only costs binding it again.  One holds
#: ~8 KB on the ad-hoc shapes: 256, the plan caches' default capacity,
#: is ~2 MB.
TEMPLATE_CAPACITY = 256


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
    hashed by object identity, which is what keys a planning walk's
    join-tree variants (``CostEstimator.planned`` on the walk's scratch)
    and the :class:`~repro.optimizer.dag_planner.DagPlanner`'s
    per-query memo — two bindings of one SQL string are two entries.
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


class BindingCache:
    """The binder's bound templates: a bounded LRU keyed on ``(template
    key, literal kinds)``.  Each entry carries the catalog version it was
    bound under; a stale one is bound again and replaced."""

    def __init__(self, capacity: int = TEMPLATE_CAPACITY) -> None:
        self.capacity = capacity
        self.lock = threading.Lock()
        self._entries: OrderedDict[Hashable, object] = OrderedDict()

    def lookup(self, key: Hashable):
        with self.lock:
            found = self._entries.get(key)
            if found is not None:
                self._entries.move_to_end(key)
            return found

    def store(self, key: Hashable, template: object) -> None:
        with self.lock:
            self._entries[key] = template
            self._entries.move_to_end(key)
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)


class Binder:
    """Binds parsed statements against a catalog."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self.templates = BindingCache()

    def bind_sql(self, sql: str) -> BoundQuery:
        parameterized = parameterize_sql(sql)
        return self.bind_parameterized(
            parameterized.template_key, parameterized.constants, sql
        )

    def bind_parameterized(
        self, template_key: str, constants: tuple, sql: str = ""
    ) -> BoundQuery:
        """Bind a ``(template_key, constants)`` pair: fill the constants
        into the template's bound form, binding the template first when
        this catalog version has not (see the module docstring)."""
        key = (template_key, tuple(kind for kind, _ in constants))
        version = self.catalog.version
        template = self.templates.lookup(key)
        if template is None or template.version != version:
            template, bound = self._bind_template(template_key, constants, sql, version)
            if template.fillable:
                self.templates.store(key, template)
            return bound
        bound = template.fill(constants, sql)
        if bound is None:
            bound = self.bind(parse_parameterized(template_key, constants).stmt, sql=sql)
        return bound

    def _bind_template(
        self, template_key: str, constants: tuple, sql: str, version: int
    ) -> tuple["_BoundTemplate", BoundQuery]:
        """The template bound from this instance's parse, and this
        instance's bound query."""
        try:
            parsed = parse_parameterized(template_key, constants)
        except ParseError:
            # The same error, at its offset into the text.
            parse(sql or bind_constants(template_key, constants))
            raise
        bound, produced = self._bind(parsed.stmt, sql, parsed.slots)
        template = _BoundTemplate(bound, produced, parsed, version)
        bound.__dict__["_columns_needed"] = template.columns_needed
        return template, bound

    # ------------------------------------------------------------------ #
    # Statement binding
    # ------------------------------------------------------------------ #
    def bind(self, stmt: AstSelect, sql: str = "") -> BoundQuery:
        return self._bind(stmt, sql)[0]

    def _bind(
        self, stmt: AstSelect, sql: str, slots: dict[int, int] | None = None
    ) -> tuple[BoundQuery, dict]:
        """Bind ``stmt``.  With ``slots`` (a template parse's), also
        return what each literal slot produced: ``id(node) -> (node,
        slot indices, build)``."""
        tables, alias_map = self._bind_tables(stmt)
        owners = self._column_owners(tables)

        scope = _Scope(self.catalog, alias_map, owners, slots)

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

        query = BoundQuery(
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
        return query, scope.produced

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


class _BoundTemplate:
    """A template's bound query, as ``fill`` needs it.

    Each expression list is kept as ``(base, patches)``: ``base`` the
    template's own expressions, shared by every instance where no slot
    lies under them, and ``patches`` the ``(position, build)`` pairs
    whose ``build(values)`` makes the rest from an instance's literal
    values.
    """

    def __init__(
        self, bound: BoundQuery, produced: dict, parsed: TemplateParse, version: int
    ) -> None:
        self.version = version
        self.readers = parsed.readers
        self.limit_slot = parsed.limit_slot
        self.tables = tuple(bound.tables)
        self.join_edges = tuple(bound.join_edges)
        self.group_keys = tuple(bound.group_keys)
        self.agg_names = tuple(bound.agg_names)
        self.select_names = tuple(bound.select_names)
        self.order_by = tuple(bound.order_by)
        self.limit = bound.limit
        self.distinct = bound.distinct
        used: set[int] = set()
        self.filters = [
            (table, _parts(exprs, produced, used))
            for table, exprs in bound.filters.items()
        ]
        self.residuals = _parts(bound.residuals, produced, used)
        self.aggregates = _parts(bound.aggregates, produced, used)
        self.select_exprs = _parts(bound.select_exprs, produced, used)
        having = [] if bound.having is None else [bound.having]
        self.having = _parts(having, produced, used)
        #: Every slot must reach the bound query for a fill to be whole;
        #: the binder keeps only fillable templates.
        self.fillable = len(used) == len(parsed.slots)
        #: Aggregates with a slot may coincide under other literals, and
        #: the binder would have merged them.
        self.check_aggregates = len(bound.aggregates) > 1 and bool(self.aggregates[1])
        #: ``BoundQuery.columns_needed`` reads column references only,
        #: which literals never change.
        self.columns_needed: dict[str, tuple[str, ...]] = {}

    def fill(self, constants: tuple, sql: str) -> BoundQuery | None:
        """The instance with ``constants`` (into a fillable template), or
        ``None`` when its literals make two aggregates equal and it must
        be bound in full."""
        values =[read(text) for read, (_, text) in zip(self.readers, constants)]
        aggregates = _fill(self.aggregates, values)
        if self.check_aggregates and len(set(aggregates)) < len(aggregates):
            return None
        having = _fill(self.having, values)
        query = BoundQuery(
            sql=sql,
            tables=list(self.tables),
            filters={table: _fill(parts, values) for table, parts in self.filters},
            join_edges=list(self.join_edges),
            residuals=_fill(self.residuals, values),
            group_keys=list(self.group_keys),
            aggregates=aggregates,
            agg_names=list(self.agg_names),
            select_exprs=_fill(self.select_exprs, values),
            select_names=list(self.select_names),
            having=having[0] if having else None,
            order_by=list(self.order_by),
            limit=self.limit if self.limit_slot is None else values[self.limit_slot],
            distinct=self.distinct,
        )
        query.__dict__["_columns_needed"] = self.columns_needed
        return query


def _parts(exprs: list[Expr], produced: dict, used: set[int]) -> tuple:
    """``(base, patches)`` for a list of bound expressions."""
    patches = []
    for index, expr in enumerate(exprs):
        compiled = _compile(expr, produced, used)
        if compiled is not expr:
            patches.append((index, compiled))
    return tuple(exprs), tuple(patches)


def _fill(parts: tuple, values: list) -> list[Expr]:
    base, patches = parts
    filled = list(base)
    for index, build in patches:
        filled[index] = build(values)
    return filled


def _compile(expr: Expr, produced: dict, used: set[int]):
    """``expr`` itself when no literal slot lies under it, else a
    function of the slot values that rebuilds it.  Adds the slots it
    reaches to ``used``."""
    entry = produced.get(id(expr))
    if entry is not None:
        used.update(entry[1])
        return entry[2]
    children = expr.children()
    patches = []
    for index, child in enumerate(children):
        part = _compile(child, produced, used)
        if part is not child:
            patches.append((index, part))
    if not patches:
        return expr

    def build(values: list) -> Expr:
        rebuilt = list(children)
        for index, part in patches:
            rebuilt[index] = part(values)
        return _with_children(expr, rebuilt)

    return build


def _with_children(expr: Expr, children: list[Expr]) -> Expr:
    if isinstance(expr, BinaryOp):
        return BinaryOp(expr.op, children[0], children[1])
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, children[0])
    if isinstance(expr, FuncCall):
        return FuncCall(expr.name, tuple(children))
    if isinstance(expr, AggCall):
        return AggCall(expr.func, children[0], expr.distinct)
    if isinstance(expr, InList):
        return InList(children[0], expr.values, expr.negated)
    raise BindError(f"cannot rebuild expression {expr!r}")


class _Scope:
    """Expression binding scope: resolves columns and encodes strings.

    With ``slots`` (``id()`` of each literal node -> its slot), every
    node made from a literal is recorded in ``produced`` with the slots
    it read and the function that makes it from other values.
    """

    def __init__(
        self,
        catalog: Catalog,
        alias_map: dict[str, str],
        owners: dict[str, list[str]],
        slots: dict[int, int] | None = None,
    ) -> None:
        self.catalog = catalog
        self.alias_map = alias_map
        self.owners = owners
        self.slots = slots
        self.produced: dict[int, tuple] = {}

    def _produced(
        self, node: Expr, indices: tuple[int, ...], build: Callable[[list], Expr]
    ) -> Expr:
        """Record ``node`` as what ``build(values)`` makes from the slots
        at ``indices`` (holding it, so its ``id`` stays its own while the
        template binds)."""
        self.produced[id(node)] = (node, indices, build)
        return node

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

    def is_string_column(self, expr: Expr) -> bool:
        return (
            isinstance(expr, ColumnRef)
            and expr.table is not None
            and self.column_type(expr) is DataType.STRING
        )

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
            # A string literal outside a comparison stays a string;
            # comparisons intercept theirs before binding.
            node = Literal(ast.value)
            if self.slots is None:
                return node
            index = self.slots[id(ast)]
            return self._produced(node, (index,), lambda values: Literal(values[index]))
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
        if string_side is not None and ast.op in COMPARISON_OPS:
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
            dictionary = self.dictionary(column)
            node = _encode_string_comparison(dictionary, column, op, literal_ast.value)
            if self.slots is None:
                return node
            index = self.slots[id(literal_ast)]
            return self._produced(
                node,
                (index,),
                lambda values: _encode_string_comparison(
                    dictionary, column, op, values[index]
                ),
            )
        left, right = self.bind(ast.left), self.bind(ast.right)
        if ast.op in COMPARISON_OPS:
            for column, other in ((left, right), (right, left)):
                if _is_number(other) and self.is_string_column(column):
                    raise BindError(
                        f"cannot compare string column {column.sql()} with a "
                        "number"
                    )
        return BinaryOp(ast.op, left, right)

    def _bind_in_list(self, ast: AstInList) -> Expr:
        operand = self.bind(ast.operand)
        negated = ast.negated
        strings = [isinstance(literal.value, str) for literal in ast.values]
        if any(strings) or self.is_string_column(operand):
            if not isinstance(operand, ColumnRef):
                raise BindError("string IN-list requires a plain column")
            if self.column_type(operand) is not DataType.STRING:
                raise BindError(
                    f"cannot apply string IN-list to {operand.sql()}"
                )
            if not all(strings):
                raise BindError(
                    f"IN-list on string column {operand.sql()} holds a "
                    "non-string value"
                )
            dictionary = self.dictionary(operand)

            def build(values: tuple) -> Expr:
                return _encode_in_list(dictionary, operand, values, negated)

        else:

            def build(values: tuple) -> Expr:
                return InList(operand, values, negated=negated)

        node = build(tuple(literal.value for literal in ast.values))
        if self.slots is None:
            return node
        indices = tuple(self.slots[id(literal)] for literal in ast.values)
        return self._produced(
            node, indices, lambda values: build(tuple([values[i] for i in indices]))
        )


def _is_number(expr: Expr) -> bool:
    """A numeric (or date) literal, negated or not."""
    if isinstance(expr, UnaryOp) and expr.op == "-":
        expr = expr.operand
    return isinstance(expr, Literal) and not isinstance(expr.value, str)


def _encode_string_comparison(
    dictionary: tuple[str, ...], column: ColumnRef, op: str, value: str
) -> Expr:
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


def _encode_in_list(
    dictionary: tuple[str, ...], operand: ColumnRef, values: tuple, negated: bool
) -> Expr:
    codes = tuple(dictionary.index(v) for v in values if v in dictionary)
    if not codes:
        return _always_true(operand) if negated else _impossible(operand)
    return InList(operand, codes, negated=negated)


def _flip(op: str) -> str:
    return {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}[op]


def _impossible(column: ColumnRef) -> Expr:
    """A predicate on ``column`` that never matches (codes are >= 0)."""
    return BinaryOp("<", column, Literal(-1))


def _always_true(column: ColumnRef) -> Expr:
    """A predicate on ``column`` that always matches."""
    return BinaryOp(">=", column, Literal(-1))
