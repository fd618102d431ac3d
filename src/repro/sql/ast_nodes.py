"""Unbound SQL AST produced by the parser, consumed by the binder.

These nodes mirror the textual query; names are unresolved and string
literals are raw.  The binder converts them into bound
:mod:`repro.plan.expressions` trees plus a :class:`~repro.sql.binder.BoundQuery`.
Every node is slotted: every template a binder binds is parsed afresh,
and an instance ``__dict__`` was most of a node's size.  They
never cross the planner-worker pipe, so the frozen ones' Python-level
pickle hooks cost nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class AstExpr:
    """Base class for unbound expressions."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class AstColumn(AstExpr):
    name: str
    qualifier: str | None = None

    def __str__(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True, slots=True)
class AstLiteral(AstExpr):
    value: float | int | str
    is_date: bool = False

    def __str__(self) -> str:
        if isinstance(self.value, str):
            prefix = "DATE " if self.is_date else ""
            return f"{prefix}'{self.value}'"
        return repr(self.value)


@dataclass(frozen=True, slots=True)
class AstBinary(AstExpr):
    op: str
    left: AstExpr
    right: AstExpr

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True, slots=True)
class AstUnary(AstExpr):
    op: str
    operand: AstExpr

    def __str__(self) -> str:
        return f"({self.op} {self.operand})"


@dataclass(frozen=True, slots=True)
class AstBetween(AstExpr):
    operand: AstExpr
    low: AstExpr
    high: AstExpr
    negated: bool = False

    def __str__(self) -> str:
        word = "NOT BETWEEN" if self.negated else "BETWEEN"
        return f"({self.operand} {word} {self.low} AND {self.high})"


@dataclass(frozen=True, slots=True)
class AstInList(AstExpr):
    operand: AstExpr
    values: tuple[AstLiteral, ...]
    negated: bool = False

    def __str__(self) -> str:
        word = "NOT IN" if self.negated else "IN"
        return f"({self.operand} {word} ({', '.join(map(str, self.values))}))"


@dataclass(frozen=True, slots=True)
class AstFuncCall(AstExpr):
    """Function call; covers aggregates and scalar functions uniformly.

    ``star`` marks ``count(*)``.
    """

    name: str
    args: tuple[AstExpr, ...]
    distinct: bool = False
    star: bool = False

    def __str__(self) -> str:
        if self.star:
            return f"{self.name}(*)"
        inner = ", ".join(map(str, self.args))
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.name}({inner})"


@dataclass(frozen=True, slots=True)
class AstTableRef:
    name: str
    alias: str | None = None


@dataclass(frozen=True, slots=True)
class AstJoin:
    table: AstTableRef
    condition: AstExpr


@dataclass(frozen=True, slots=True)
class AstOrderItem:
    expr: AstExpr
    ascending: bool = True


@dataclass(frozen=True, slots=True)
class AstSelectItem:
    expr: AstExpr
    alias: str | None = None


@dataclass(slots=True)
class AstSelect:
    """A full SELECT statement."""

    items: list[AstSelectItem] = field(default_factory=list)
    tables: list[AstTableRef] = field(default_factory=list)
    joins: list[AstJoin] = field(default_factory=list)
    where: AstExpr | None = None
    group_by: list[AstColumn] = field(default_factory=list)
    having: AstExpr | None = None
    order_by: list[AstOrderItem] = field(default_factory=list)
    limit: int | None = None
    distinct: bool = False
