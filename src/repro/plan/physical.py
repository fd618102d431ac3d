"""Physical plan operators.

Output of the DAG-planning stage and input to DOP planning (paper §3.2):
relational operators with physical decisions made — join sides, exchange
placement (shuffle/broadcast/gather), aggregation phases — but *without*
DOP assignments, which the DOP planner attaches per pipeline afterwards.

Every node carries the optimizer's output-cardinality estimate
(``est_rows``/``est_bytes``); the distributed simulator later overrides
these with true values to model estimation error (§3.3).  Nodes are
slotted (no instance ``__dict__``): cached plans hold them for as long
as the plan caches keep the plan.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import PlanError
from repro.plan.expressions import AggCall, ColumnRef, Expr, referenced_columns

_node_ids = itertools.count(1)


class ExchangeKind(enum.Enum):
    """Data redistribution flavors between (or within) pipelines."""

    SHUFFLE = "shuffle"  # hash-partition rows on keys across dop nodes
    BROADCAST = "broadcast"  # replicate full input to every node
    GATHER = "gather"  # collect to a single node (result / final sort)


@dataclass(slots=True)
class PhysNode:
    """Base physical operator.

    ``est_rows``/``est_bytes`` describe the operator's *output*.  ``node_id``
    is unique per process and keys run-time feedback (true cardinalities)
    back to plan nodes.
    """

    est_rows: float = field(default=0.0, init=False)
    est_bytes: float = field(default=0.0, init=False)
    node_id: int = field(default_factory=lambda: next(_node_ids), init=False)

    def children(self) -> tuple["PhysNode", ...]:
        return ()

    def output_columns(self) -> tuple[str, ...]:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__

    def shape(self) -> str:
        """:meth:`describe` without literals, read bytes or fractions:
        what the operator is, not what one instance of it reads.  The
        cost drill-down keys its leaves by it, so a new literal never
        adds a leaf."""
        return self.describe()

    def pretty(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [
            f"{pad}{self.describe()} "
            f"[rows={self.est_rows:,.0f} bytes={self.est_bytes:,.0f}]"
        ]
        for child in self.children():
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)


@dataclass(slots=True)
class PhysScan(PhysNode):
    """Columnar scan of a base table (or materialized view).

    ``partition_fraction`` is the fraction of micro-partitions surviving
    zone-map pruning — the quantity reclustering (§4) improves.
    ``input_rows``/``input_bytes`` describe what is read from storage
    before the scan predicate filters rows.
    """

    table: str
    columns: tuple[str, ...]
    predicate: Expr | None = None
    is_view: bool = False
    partition_fraction: float = 1.0
    input_rows: float = 0.0
    input_bytes: float = 0.0

    def output_columns(self) -> tuple[str, ...]:
        return self.columns

    def describe(self) -> str:
        pred = f" filter={self.predicate.sql()}" if self.predicate else ""
        return (
            f"Scan({self.table}{pred} "
            f"read={self.input_bytes:,.0f}B frac={self.partition_fraction:.2f})"
        )

    def shape(self) -> str:
        return f"Scan({self.table})"


@dataclass(slots=True)
class PhysFilter(PhysNode):
    child: PhysNode
    predicate: Expr

    def children(self) -> tuple[PhysNode, ...]:
        return (self.child,)

    def output_columns(self) -> tuple[str, ...]:
        return self.child.output_columns()

    def describe(self) -> str:
        return f"Filter({self.predicate.sql()})"

    def shape(self) -> str:
        return f"Filter({', '.join(sorted(referenced_columns(self.predicate)))})"


@dataclass(slots=True)
class PhysProject(PhysNode):
    child: PhysNode
    exprs: tuple[Expr, ...]
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.exprs) != len(self.names):
            raise PlanError("project exprs/names length mismatch")

    def children(self) -> tuple[PhysNode, ...]:
        return (self.child,)

    def output_columns(self) -> tuple[str, ...]:
        return self.names

    def describe(self) -> str:
        return f"Project({', '.join(self.names)})"


@dataclass(slots=True)
class PhysExchange(PhysNode):
    """Streaming data redistribution within a pipeline."""

    child: PhysNode
    kind: ExchangeKind
    keys: tuple[str, ...] = ()

    def children(self) -> tuple[PhysNode, ...]:
        return (self.child,)

    def output_columns(self) -> tuple[str, ...]:
        return self.child.output_columns()

    def describe(self) -> str:
        keys = f" on {','.join(self.keys)}" if self.keys else ""
        return f"Exchange({self.kind.value}{keys})"


@dataclass(slots=True)
class PhysHashJoin(PhysNode):
    """Hash join; ``build`` is materialized, ``probe`` streams through."""

    build: PhysNode
    probe: PhysNode
    build_keys: tuple[ColumnRef, ...]
    probe_keys: tuple[ColumnRef, ...]
    residual: Expr | None = None
    broadcast_build: bool = False

    def __post_init__(self) -> None:
        if len(self.build_keys) != len(self.probe_keys):
            raise PlanError("join key arity mismatch")

    def children(self) -> tuple[PhysNode, ...]:
        return (self.build, self.probe)

    def output_columns(self) -> tuple[str, ...]:
        return self.probe.output_columns() + self.build.output_columns()

    def describe(self) -> str:
        keys = ", ".join(
            f"{b.sql()}={p.sql()}"
            for b, p in zip(self.build_keys, self.probe_keys)
        )
        mode = "broadcast" if self.broadcast_build else "partitioned"
        return f"HashJoin({keys}; {mode})"


class AggMode(enum.Enum):
    """Aggregation phase: single-node logical mode or distributed phases."""

    SINGLE = "single"  # one full aggregation (no pre-agg split)
    PARTIAL = "partial"  # streaming local pre-aggregation
    FINAL = "final"  # merge of partial states (pipeline breaker)


@dataclass(slots=True)
class PhysAggregate(PhysNode):
    child: PhysNode
    group_keys: tuple[ColumnRef, ...]
    aggregates: tuple[AggCall, ...]
    agg_names: tuple[str, ...]
    mode: AggMode = AggMode.SINGLE

    def __post_init__(self) -> None:
        if len(self.aggregates) != len(self.agg_names):
            raise PlanError("aggregate exprs/names length mismatch")

    def children(self) -> tuple[PhysNode, ...]:
        return (self.child,)

    def output_columns(self) -> tuple[str, ...]:
        return tuple(k.name for k in self.group_keys) + self.agg_names

    def describe(self) -> str:
        keys = ",".join(k.name for k in self.group_keys) or "<global>"
        return f"Aggregate[{self.mode.value}](by={keys})"


@dataclass(slots=True)
class PhysSort(PhysNode):
    """Full sort (pipeline breaker); ``limit`` enables top-k short-circuit."""

    child: PhysNode
    keys: tuple[str, ...]
    ascending: tuple[bool, ...]
    limit: int | None = None

    def children(self) -> tuple[PhysNode, ...]:
        return (self.child,)

    def output_columns(self) -> tuple[str, ...]:
        return self.child.output_columns()

    def describe(self) -> str:
        topk = f" limit={self.limit}" if self.limit is not None else ""
        return f"Sort({self._ordering()}{topk})"

    def shape(self) -> str:
        return f"Sort({self._ordering()})"

    def _ordering(self) -> str:
        return ", ".join(
            f"{k} {'ASC' if a else 'DESC'}" for k, a in zip(self.keys, self.ascending)
        )


@dataclass(slots=True)
class PhysLimit(PhysNode):
    child: PhysNode
    limit: int

    def children(self) -> tuple[PhysNode, ...]:
        return (self.child,)

    def output_columns(self) -> tuple[str, ...]:
        return self.child.output_columns()

    def describe(self) -> str:
        return f"Limit({self.limit})"

    def shape(self) -> str:
        return "Limit"


def walk_physical(node: PhysNode) -> Iterator[PhysNode]:
    """Pre-order traversal of a physical plan."""
    yield node
    for child in node.children():
        yield from walk_physical(child)


def plan_signature(node: PhysNode) -> str:
    """Stable structural string for plan-equality assertions in tests."""
    parts = [node.describe()]
    for child in node.children():
        parts.append(plan_signature(child))
    return "(" + " ".join(parts) + ")"
