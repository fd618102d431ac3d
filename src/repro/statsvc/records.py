"""Building the log record of one served query.

The record is the Statistics Service's ground truth *and* what the
tenant is billed from, so it carries the exact drill-down apportionment
of its dollars (:func:`cost_breakdown`) that :mod:`repro.obsvc` later
folds into cost snapshots.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.plan.expressions import referenced_columns
from repro.statsvc.logs import QueryLogStore, QueryRecord
from repro.util.units import to_ledger_units

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.bioptimizer import PlanChoice
    from repro.core.service import QueryRequest


def served_record(
    logs: QueryLogStore, request: "QueryRequest", timestamp: float, staged
) -> QueryRecord:
    """The Statistics Service log record of one served query, from its
    resolved request and what staging produced (``bound``, ``choice``,
    ``sim``).  Built under the ledger lock: it reads the log's tail and
    issues its id."""
    # Timestamps are assigned at *admission* (monotonic across the
    # warehouse), but concurrent sessions interleave their finalize
    # phases arbitrarily, so a later-admitted handle from one batch
    # can reach the log before an earlier-admitted one from another.
    # Clamp up to the last logged timestamp: the log stays
    # append-ordered and no finalize ever dies on the ordering check
    # (which would lose the record and fail a successful query).
    tail = logs.tail(1)
    if tail and timestamp < tail[0].timestamp:
        timestamp = tail[0].timestamp
    bound, choice, sim = staged.bound, staged.choice, staged.sim
    columns: set[str] = set()
    filter_columns: set[str] = set()
    for table in bound.table_names:
        for column in bound.columns_needed(table):
            columns.add(f"{table}.{column}")
        for predicate in bound.filters.get(table, []):
            for column in referenced_columns(predicate):
                filter_columns.add(column)
    edges = tuple(
        (
            f"{e.left.table}.{e.left.name}",
            f"{e.right.table}.{e.right.name}",
        )
        for e in bound.join_edges
    )
    spent = sim if sim is not None else choice.dop_plan.estimate
    bytes_scanned = sum(
        op.node.input_bytes
        for pipeline in choice.dag
        for op in pipeline.ops
        if hasattr(op.node, "input_bytes")
    )
    return QueryRecord(
        query_id=logs.next_query_id(),
        timestamp=timestamp,
        sql=request.sql,
        template=request.template,
        tables=tuple(bound.table_names),
        columns=tuple(sorted(columns)),
        join_edges=edges,
        group_keys=tuple(k.name for k in bound.group_keys),
        filter_columns=tuple(sorted(filter_columns)),
        aggregate_sqls=tuple(a.sql() for a in bound.aggregates),
        latency_s=spent.latency,
        machine_seconds=spent.machine_seconds,
        dollars=spent.total_dollars,
        bytes_scanned=bytes_scanned,
        sla_seconds=request.constraint.latency_sla,
        tenant=request.tenant,
        cost_breakdown=cost_breakdown(choice, spent.total_dollars),
    )


def cost_breakdown(
    choice: "PlanChoice", dollars: float
) -> tuple[tuple[str, str, int], ...]:
    """Apportion one query's spend over its plan's operators, exactly.

    Two-level largest-remainder split of ``to_ledger_units(dollars)``:
    pipelines weighted by their planned durations, operators within a
    pipeline by ``input_bytes`` (uniform when unknown).  Integer math
    throughout, so the returned ``(pipeline, operator, units)`` leaves
    always sum bitwise to the units the tenant's bill is charged —
    the invariant the drill-down navigator reconciles against.
    Zero-share leaves are dropped.
    """
    total_units = to_ledger_units(dollars)
    pipelines = list(choice.dag)
    if not pipelines:
        return ((("(plan)"), "(operator)", total_units),) if total_units else ()
    per_pipe = choice.dop_plan.estimate.pipelines
    pipe_weights = _int_weights(
        getattr(per_pipe.get(p.pipeline_id), "duration", 0.0)
        for p in pipelines
    )
    leaves: list[tuple[str, str, int]] = []
    for pipeline, pipe_units in zip(
        pipelines, _largest_remainder(total_units, pipe_weights)
    ):
        label = f"P{pipeline.pipeline_id}"
        ops = list(pipeline.ops)
        if not ops:
            if pipe_units:
                leaves.append((label, "(pipeline)", pipe_units))
            continue
        op_weights = _int_weights(
            float(getattr(op.node, "input_bytes", 0.0)) for op in ops
        )
        for op, op_units in zip(
            ops, _largest_remainder(pipe_units, op_weights)
        ):
            if op_units:
                leaves.append(
                    (label, f"{op.node.describe()}[{op.role}]", op_units)
                )
    return tuple(leaves)


def _int_weights(weights: "list[float]") -> list[int]:
    """Apportionment weights as integers (exact big-int arithmetic);
    all-zero weight vectors degrade to uniform."""
    scaled = [max(int(round(weight * 1e9)), 0) for weight in weights]
    if not any(scaled):
        return [1] * len(scaled)
    return scaled


def _largest_remainder(total: int, weights: list[int]) -> list[int]:
    """Split ``total`` integral units proportionally to ``weights`` with
    no unit created or lost: floor shares first, then one extra unit to
    the largest remainders (ties broken by position, so the split is
    deterministic)."""
    if not weights:
        return []
    if total <= 0:
        return [0] * len(weights)
    weight_sum = sum(weights)
    shares = [total * weight // weight_sum for weight in weights]
    remainders = [total * weight % weight_sum for weight in weights]
    leftover = total - sum(shares)
    for index in sorted(
        range(len(weights)), key=lambda i: (-remainders[i], i)
    )[:leftover]:
        shares[index] += 1
    return shares
