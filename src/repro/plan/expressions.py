"""Scalar expression trees.

One expression representation is shared by the SQL binder, the optimizer
(selectivity estimation, predicate pushdown), and the local engine
(vectorized evaluation over numpy column batches).  Expressions are
immutable; evaluation takes a ``dict[str, np.ndarray]`` batch keyed by
column name and returns a numpy array (or a scalar broadcast by numpy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.errors import PlanError

# Comparison and arithmetic operators supported by BinaryOp.
COMPARISON_OPS = {"=", "<>", "<", "<=", ">", ">="}
ARITHMETIC_OPS = {"+", "-", "*", "/"}
LOGICAL_OPS = {"and", "or"}
_ALL_BINARY = COMPARISON_OPS | ARITHMETIC_OPS | LOGICAL_OPS

AGGREGATE_FUNCS = {"sum", "count", "avg", "min", "max"}
SCALAR_FUNCS = {"abs", "year"}


class Expr:
    """Base class for scalar expressions (immutable)."""

    def evaluate(self, batch: dict[str, np.ndarray]) -> np.ndarray:
        raise NotImplementedError

    def children(self) -> tuple["Expr", ...]:
        return ()

    def sql(self) -> str:
        """Render a SQL-ish string for reports and debugging."""
        raise NotImplementedError

    def __str__(self) -> str:
        return self.sql()


@dataclass(frozen=True)
class ColumnRef(Expr):
    """Reference to a column by its bound (unique) name.

    ``table`` records the owning base table when known; engine batches are
    keyed by bare column name, which the binder guarantees to be unique
    within a query.
    """

    name: str
    table: str | None = None

    def evaluate(self, batch: dict[str, np.ndarray]) -> np.ndarray:
        try:
            return batch[self.name]
        except KeyError:
            raise PlanError(f"batch has no column {self.name!r}") from None

    def sql(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Literal(Expr):
    """A constant value (int, float, bool, or dictionary-coded string)."""

    value: float | int | bool | str

    def evaluate(self, batch: dict[str, np.ndarray]) -> np.ndarray:
        if isinstance(self.value, str):
            raise PlanError(
                f"string literal {self.value!r} must be dictionary-encoded "
                "by the binder before evaluation"
            )
        return np.asarray(self.value)

    def sql(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return repr(self.value)


@dataclass(frozen=True)
class BinaryOp(Expr):
    """Binary arithmetic, comparison, or logical operator."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _ALL_BINARY:
            raise PlanError(f"unsupported binary operator {self.op!r}")

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def evaluate(self, batch: dict[str, np.ndarray]) -> np.ndarray:
        lhs = self.left.evaluate(batch)
        rhs = self.right.evaluate(batch)
        op = self.op
        if op == "+":
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        if op == "*":
            return lhs * rhs
        if op == "/":
            return np.divide(lhs, rhs, dtype=np.float64)
        if op == "=":
            return lhs == rhs
        if op == "<>":
            return lhs != rhs
        if op == "<":
            return lhs < rhs
        if op == "<=":
            return lhs <= rhs
        if op == ">":
            return lhs > rhs
        if op == ">=":
            return lhs >= rhs
        if op == "and":
            return np.logical_and(lhs, rhs)
        if op == "or":
            return np.logical_or(lhs, rhs)
        raise PlanError(f"unsupported binary operator {op!r}")

    def sql(self) -> str:
        op = self.op.upper() if self.op in LOGICAL_OPS else self.op
        return f"({self.left.sql()} {op} {self.right.sql()})"


@dataclass(frozen=True)
class UnaryOp(Expr):
    """Unary operator: ``not`` or numeric negation ``-``."""

    op: str
    operand: Expr

    def __post_init__(self) -> None:
        if self.op not in ("not", "-"):
            raise PlanError(f"unsupported unary operator {self.op!r}")

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def evaluate(self, batch: dict[str, np.ndarray]) -> np.ndarray:
        value = self.operand.evaluate(batch)
        if self.op == "not":
            return np.logical_not(value)
        return -value

    def sql(self) -> str:
        if self.op == "not":
            return f"(NOT {self.operand.sql()})"
        return f"(-{self.operand.sql()})"


@dataclass(frozen=True)
class InList(Expr):
    """``expr IN (v1, v2, ...)`` over literal values."""

    operand: Expr
    values: tuple[float | int | bool | str, ...]
    negated: bool = False

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def evaluate(self, batch: dict[str, np.ndarray]) -> np.ndarray:
        value = self.operand.evaluate(batch)
        if any(isinstance(v, str) for v in self.values):
            raise PlanError("string IN-list must be dictionary-encoded by the binder")
        mask = np.isin(value, np.asarray(self.values))
        return ~mask if self.negated else mask

    def sql(self) -> str:
        rendered = ", ".join(
            f"'{v}'" if isinstance(v, str) else repr(v) for v in self.values
        )
        keyword = "NOT IN" if self.negated else "IN"
        return f"({self.operand.sql()} {keyword} ({rendered}))"


@dataclass(frozen=True)
class FuncCall(Expr):
    """Scalar function call (``abs``, ``year`` over epoch-day dates)."""

    name: str
    args: tuple[Expr, ...]

    def __post_init__(self) -> None:
        if self.name not in SCALAR_FUNCS:
            raise PlanError(f"unsupported scalar function {self.name!r}")

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def evaluate(self, batch: dict[str, np.ndarray]) -> np.ndarray:
        args = [a.evaluate(batch) for a in self.args]
        if self.name == "abs":
            return np.abs(args[0])
        if self.name == "year":
            days = np.asarray(args[0]).astype("datetime64[D]")
            return days.astype("datetime64[Y]").astype(np.int64) + 1970
        raise PlanError(f"unsupported scalar function {self.name!r}")

    def sql(self) -> str:
        return f"{self.name}({', '.join(a.sql() for a in self.args)})"


@dataclass(frozen=True)
class AggCall(Expr):
    """Aggregate function call; only valid inside an aggregation operator.

    ``arg`` is None for ``count(*)``.  AggCall.evaluate is intentionally
    unsupported — aggregation is performed by the aggregate operators,
    which group rows first.
    """

    func: str
    arg: Expr | None = None
    distinct: bool = False

    def __post_init__(self) -> None:
        if self.func not in AGGREGATE_FUNCS:
            raise PlanError(f"unsupported aggregate {self.func!r}")
        if self.func != "count" and self.arg is None:
            raise PlanError(f"aggregate {self.func} requires an argument")

    def children(self) -> tuple[Expr, ...]:
        return (self.arg,) if self.arg is not None else ()

    def evaluate(self, batch: dict[str, np.ndarray]) -> np.ndarray:
        raise PlanError("AggCall must be evaluated by an aggregation operator")

    def sql(self) -> str:
        inner = "*" if self.arg is None else self.arg.sql()
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.func}({inner})"


# ---------------------------------------------------------------------- #
# Expression utilities
# ---------------------------------------------------------------------- #
def walk(expr: Expr) -> Iterator[Expr]:
    """Pre-order traversal of an expression tree."""
    yield expr
    for child in expr.children():
        yield from walk(child)


def referenced_columns(expr: Expr) -> set[str]:
    """All column names referenced anywhere in ``expr``."""
    return {node.name for node in walk(expr) if isinstance(node, ColumnRef)}


def contains_aggregate(expr: Expr) -> bool:
    return any(isinstance(node, AggCall) for node in walk(expr))


def conjuncts(expr: Expr | None) -> list[Expr]:
    """Split a predicate into its top-level AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "and":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def make_and(parts: Iterable[Expr]) -> Expr | None:
    """Combine predicates with AND; returns None for an empty iterable."""
    result: Expr | None = None
    for part in parts:
        result = part if result is None else BinaryOp("and", result, part)
    return result


def is_equi_join_condition(expr: Expr) -> tuple[ColumnRef, ColumnRef] | None:
    """Return the two column refs when ``expr`` is ``col_a = col_b`` between
    different tables, else None."""
    if not (isinstance(expr, BinaryOp) and expr.op == "="):
        return None
    left, right = expr.left, expr.right
    if not (isinstance(left, ColumnRef) and isinstance(right, ColumnRef)):
        return None
    if left.table is not None and left.table == right.table:
        return None
    return (left, right)
