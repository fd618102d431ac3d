"""Predicate analysis shared by pruning, cardinality estimation, and scans.

Extracts per-column value ranges from conjunctive predicates so that
zone-map pruning (storage), selectivity estimation (optimizer), and the
local engine's scan all interpret a predicate identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.plan.expressions import (
    BinaryOp,
    ColumnRef,
    Expr,
    Literal,
    conjuncts,
)


@dataclass
class ColumnRange:
    """Closed-interval constraint on one column; None = unbounded."""

    lo: float | None = None
    hi: float | None = None

    def tighten_lo(self, value: float) -> None:
        self.lo = value if self.lo is None else max(self.lo, value)

    def tighten_hi(self, value: float) -> None:
        self.hi = value if self.hi is None else min(self.hi, value)


def extract_column_ranges(predicate: Expr | None) -> dict[str, ColumnRange]:
    """Per-column [lo, hi] ranges implied by the AND-ed comparisons.

    Only simple ``column <op> literal`` conjuncts contribute; other
    conjuncts (IN lists, disjunctions, arithmetic) are ignored — the
    ranges are a *sound over-approximation* for pruning: a partition
    outside a range can never satisfy the predicate.
    """
    ranges: dict[str, ColumnRange] = {}
    for conjunct in conjuncts(predicate):
        simple = _as_simple_comparison(conjunct)
        if simple is None:
            continue
        column, op, value = simple
        column_range = ranges.setdefault(column, ColumnRange())
        if op == "=":
            column_range.tighten_lo(value)
            column_range.tighten_hi(value)
        elif op in ("<", "<="):
            column_range.tighten_hi(value)
        elif op in (">", ">="):
            column_range.tighten_lo(value)
    return ranges


def _as_simple_comparison(expr: Expr) -> tuple[str, str, float] | None:
    """Decompose ``col <op> literal`` (either orientation) if possible."""
    if not isinstance(expr, BinaryOp):
        return None
    op = expr.op
    if op not in ("=", "<", "<=", ">", ">="):
        return None
    left, right = expr.left, expr.right
    if isinstance(left, ColumnRef) and isinstance(right, Literal):
        if isinstance(right.value, str):
            return None
        return (left.name, op, float(right.value))
    if isinstance(left, Literal) and isinstance(right, ColumnRef):
        if isinstance(left.value, str):
            return None
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}[op]
        return (right.name, flipped, float(left.value))
    return None
