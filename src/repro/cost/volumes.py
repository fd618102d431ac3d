"""Per-operator data volumes within a pipeline.

Walks a pipeline's operator chain and derives, for each operator
occurrence, the rows/bytes flowing *into* and *out of* it — honoring
run-time cardinality overrides (true cardinalities observed by the DOP
monitor) and DOP-dependent partial-aggregate output.

Shared by the analytic cost estimator and the discrete-event simulator so
both price exactly the same data movement.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EstimationError
from repro.plan.physical import AggMode, PhysAggregate, PhysNode, PhysScan
from repro.plan.pipelines import (
    Pipeline,
    PipelineOp,
    ROLE_BUILD,
    ROLE_PROBE,
    ROLE_SINK_AGG,
    ROLE_SINK_SORT,
    ROLE_SOURCE_SCAN,
    ROLE_SOURCE_STATE,
    ROLE_STREAM,
)


@dataclass(frozen=True)
class OpVolume:
    """Data flow through one operator occurrence in a pipeline."""

    op: PipelineOp
    rows_in: float
    bytes_in: float
    rows_out: float
    bytes_out: float


#: Ceiling on the observed/expected input ratio a probe scales its output
#: by.  A plan-time estimate of almost no rows (``hypothesis`` found a
#: subnormal one) makes ``rows / expected_in`` overflow to ``inf``, and
#: ``0 * inf`` then priced every operator downstream at NaN — which
#: ``max`` silently drops from the pipeline's duration.  The models emit
#: finite numbers for finite cardinalities; no real ratio comes near the
#: ceiling, so every finite result is unchanged to the bit.
MAX_INPUT_SCALE = 1e30


def _node_rows(node: PhysNode, overrides: dict[int, float] | None) -> float:
    if overrides is not None and node.node_id in overrides:
        return float(overrides[node.node_id])
    return float(node.est_rows)


def _row_width(node: PhysNode) -> float:
    if node.est_rows > 0:
        return max(1.0, node.est_bytes / node.est_rows)
    return 8.0


def pipeline_volumes(
    pipeline: Pipeline,
    dop: int,
    overrides: dict[int, float] | None = None,
) -> list[OpVolume]:
    """Volumes for each operator of ``pipeline`` at the given DOP.

    ``overrides`` maps plan-node ids to observed true output rows; when a
    node's output is overridden, everything downstream scales accordingly.
    Partial aggregates emit ``min(rows_in, final_groups * dop)`` — the
    one place where volume itself depends on parallelism.
    """
    if dop < 1:
        raise EstimationError(f"dop must be >= 1, got {dop}")
    volumes: list[OpVolume] = []
    rows = 0.0
    nbytes = 0.0
    for index, op in enumerate(pipeline.ops):
        node = op.node
        role = op.role
        if role == ROLE_SOURCE_SCAN:
            assert isinstance(node, PhysScan)
            rows_out = _node_rows(node, overrides)
            width = _row_width(node)
            volume = OpVolume(
                op=op,
                rows_in=float(node.input_rows),
                bytes_in=float(node.input_bytes),
                rows_out=rows_out,
                bytes_out=rows_out * width,
            )
        elif role == ROLE_SOURCE_STATE:
            rows_out = _node_rows(node, overrides)
            width = _row_width(node)
            volume = OpVolume(
                op=op,
                rows_in=rows_out,
                bytes_in=rows_out * width,
                rows_out=rows_out,
                bytes_out=rows_out * width,
            )
        elif role in (ROLE_BUILD, ROLE_SINK_AGG, ROLE_SINK_SORT):
            # Sinks consume the stream; their materialized output is read
            # by the consumer pipeline via ROLE_SOURCE_STATE / ROLE_PROBE.
            volume = OpVolume(
                op=op, rows_in=rows, bytes_in=nbytes, rows_out=0.0, bytes_out=0.0
            )
        elif role == ROLE_PROBE:
            rows_out = _node_rows(node, overrides)
            width = _row_width(node)
            # Scale join output with the observed probe input when the
            # plan-time probe estimate was off.
            expected_in = _expected_stream_rows(pipeline, index)
            if expected_in > 0 and overrides is not None:
                rows_out *= min(rows / expected_in, MAX_INPUT_SCALE)
            volume = OpVolume(
                op=op,
                rows_in=rows,
                bytes_in=nbytes,
                rows_out=rows_out,
                bytes_out=rows_out * width,
            )
        elif role == ROLE_STREAM:
            if isinstance(node, PhysAggregate) and node.mode is AggMode.PARTIAL:
                groups = _final_groups(pipeline, index, overrides)
                rows_out = min(rows, groups * dop)
                width = _row_width(node)
            else:
                expected_in = _expected_stream_rows(pipeline, index)
                rows_out = _node_rows(node, overrides)
                width = _row_width(node)
                if overrides is not None and expected_in > 0:
                    if node.node_id not in overrides:
                        # No direct observation: keep the operator's
                        # estimated selectivity, applied to observed input.
                        selectivity = min(1.0, node.est_rows / expected_in)
                        rows_out = rows * selectivity
            volume = OpVolume(
                op=op,
                rows_in=rows,
                bytes_in=nbytes,
                rows_out=rows_out,
                bytes_out=rows_out * width,
            )
        else:
            raise EstimationError(f"unknown pipeline role {role!r}")
        volumes.append(volume)
        rows, nbytes = volume.rows_out, volume.bytes_out
    return volumes


def _expected_stream_rows(pipeline: Pipeline, index: int) -> float:
    """Plan-time estimate of the stream entering op ``index``."""
    if index == 0:
        return 0.0
    prev = pipeline.ops[index - 1].node
    return float(prev.est_rows)


def _final_groups(
    pipeline: Pipeline, partial_index: int, overrides: dict[int, float] | None
) -> float:
    """Group count of the FINAL/SINGLE aggregate downstream of a partial."""
    for op in pipeline.ops[partial_index + 1 :]:
        node = op.node
        if isinstance(node, PhysAggregate) and node.mode is not AggMode.PARTIAL:
            return _node_rows(node, overrides)
    # Partial aggregate whose final phase lives in the consumer pipeline
    # (global aggregation): fall back to its own estimate.
    return float(pipeline.ops[partial_index].node.est_rows)


def pipeline_output(
    pipeline: Pipeline, dop: int, overrides: dict[int, float] | None = None
) -> OpVolume:
    """Volume record of the pipeline's last operator."""
    volumes = pipeline_volumes(pipeline, dop, overrides)
    return volumes[-1]
