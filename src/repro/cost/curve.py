"""Compiled per-pipeline cost curves: the §3.1 models as closed forms in DOP.

The DOP search asks one question thousands of times: *how long does this
pipeline run at this DOP?*  For a fixed ``(pipeline, overrides)`` only
the DOP varies, so :func:`compile_curve` walks the operator chain once —
the same walk :func:`repro.cost.volumes.pipeline_volumes` performs — and
turns every operator into one flat tuple: an opcode with the constants
of its scalability model (the *term*) and a rule for what the operator
does to the row/byte stream (the *flow*).  :meth:`PipelineCurve.duration`
is then a loop over floats.

Almost every flow is a constant.  The exceptions are the one place the
volume itself depends on parallelism — a partial aggregate emits
``min(rows, groups * dop)`` — and, once cardinality overrides are in
play, the operators that apply their estimated selectivity to whatever
actually arrives.  Those keep their recipe, so any chain (including two
partial aggregates in a row) is priced by re-running the recipes per
DOP, never by assuming the suffix is static.

Bit-identity contract: the loop performs exactly the float operations
:meth:`repro.cost.operator_models.OperatorModels.op_time` performs over
the volumes ``pipeline_volumes`` produces, in the same order, so
``duration``, the bottleneck operator and ``source_rows`` equal the
reference to the last bit (``tests/cost/test_estimation_parity.py``
sweeps every TPC-H pipeline and generated ad-hoc shapes over DOP 1..64
and five override modes).  Constants are folded only where the
reference computes the same sub-expression first (``morsels *
overhead``, ``cores * sort_rate * log_ref``); ``dop * cores * rate``
stays a run-time product because folding it would round differently.

Lifetime: curves live in a cache keyed *weakly* by their pipeline, so a
curve must never reference the pipeline — it keeps the operator tuple
(for labels, rendered only when something reads them) and nothing else
from the plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cost.volumes import (
    MAX_INPUT_SCALE,
    _expected_stream_rows,
    _final_groups,
    _node_rows,
    _row_width,
)
from repro.errors import EstimationError
from repro.plan.physical import (
    AggMode,
    ExchangeKind,
    PhysAggregate,
    PhysExchange,
    PhysFilter,
    PhysLimit,
    PhysProject,
)
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

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.cost.hardware import HardwareCalibration
    from repro.cost.regression import ExchangeCalibration
    from repro.cost.timing_cache import TimingCacheStats


@dataclass(frozen=True)
class OpTime:
    """Streaming time (overlaps with the rest of the pipeline) plus fixed
    setup time (serializes with everything)."""

    stream_s: float
    fixed_s: float
    label: str


@dataclass
class PipelineTiming:
    """Predicted duration of one pipeline at one DOP."""

    duration: float
    bottleneck: str
    op_times: list[OpTime]
    source_rows: float


# Term opcodes: how an operator's stream time follows from its input and
# the DOP.  ``a``/``b``/``c`` below are the term's constants.
_RATE = 0  # rows / (dop * cores * a)
_SCAN = 1  # a / (dop * scan_bytes_per_node) + b / (dop * cores)
_STATE = 2  # a / (dop * cores * b)            (a = state rows, constant)
_PROJECT = 3  # rows / (dop * cores * a / b)
_SHUFFLE = 4  # a=transfer_scale, b=base_setup_s, c=per_peer_setup_s
_BROADCAST = 5
_GATHER = 6
_BUILD = 7  # rows / (dop * cores * a) * spill; b = build side broadcast
_SORT = 8  # a = cores * sort_rows_per_core * log2(reference rows)
_ZERO = 9  # limit: free
_EXCHANGES = (_SHUFFLE, _BROADCAST, _GATHER)

# Flow opcodes: what the operator emits downstream.
_CONST = 0  # rows, bytes = r1, r2
_SELECT = 1  # rows *= r1 (estimated selectivity); bytes = rows * r2
_PARTIAL = 2  # rows = min(rows, r1 * dop); bytes = rows * r2
_PROBE_SCALED = 3  # rows = r1[0] * min(rows / r1[1], ceiling); bytes = rows * r2

_NEG_INF = float("-inf")


class PipelineCurve:
    """Duration of one ``(pipeline, overrides)`` as a function of DOP.

    ``duration(dop)`` is memoized per DOP — the table the DOP search,
    the co-finish polish and the DOP monitor's replans all read.  The
    bottleneck label, per-operator times and :class:`PipelineTiming`
    are materialized on request only.
    """

    __slots__ = (
        "_ops",
        "_terms",
        "_constants",
        "_stats",
        "_durations",
        "_bottlenecks",
        "_details",
        "_labels",
        "_source_rows",
        "exchange_ops",
        "has_shuffle",
    )

    def __init__(
        self,
        ops: tuple[PipelineOp, ...],
        terms: tuple[tuple, ...],
        constants: tuple,
        stats: "TimingCacheStats",
    ) -> None:
        self._ops = ops
        self._terms = terms
        self._constants = constants
        self._stats = stats
        self._durations: dict[int, float] = {}
        self._bottlenecks: dict[int, int] = {}
        self._details: dict[int, list[tuple[float, float, float, float]]] = {}
        self._labels: list[str | None] = [None] * len(ops)
        # The source's output is a constant unless the chain opens with
        # a partial aggregate (never planned; priced correctly anyway).
        first = terms[0] if terms else None
        self._source_rows: float | None = (
            0.0 if first is None else first[5] if first[4] == _CONST else None
        )
        #: Per operator: is it an exchange (the simulator perturbs those
        #: differently from CPU operators).
        codes = [term[0] for term in terms]
        self.exchange_ops = tuple([code in _EXCHANGES for code in codes])
        self.has_shuffle = _SHUFFLE in codes

    def __len__(self) -> int:
        """Number of DOPs priced so far."""
        return len(self._durations)

    # ------------------------------------------------------------------ #
    # The hot path
    # ------------------------------------------------------------------ #
    def duration(self, dop: int) -> float:
        """Modeled pipeline duration at ``dop`` (memoized)."""
        found = self._durations.get(dop)
        if found is None:
            return self._evaluate(dop, None)
        self._stats.timing_hits += 1
        return found

    def _evaluate(self, dop: int, detail: list | None) -> float:
        """Price the chain at ``dop``.

        With ``detail`` set, also append per operator ``(stream_s,
        fixed_s, bytes_in, rows_out)`` — ``bytes_in`` is the stream
        entering the operator, what an exchange moves.
        """
        if dop < 1:
            raise EstimationError(f"dop must be >= 1, got {dop}")
        self._stats.timing_computations += 1
        (
            cores,
            scan_bytes_per_node,
            request_latency_s,
            network_bytes_per_node,
            broadcast_tree_factor,
            hash_table_bytes_per_row,
            hash_memory_per_node,
            spill_penalty,
            pipeline_startup_s,
        ) = self._constants
        dc = dop * cores
        rows = 0.0
        nbytes = 0.0
        stream = _NEG_INF
        bottleneck = 0
        fixed = 0.0
        for code, a, b, c, flow, r1, r2, index in self._terms:
            f = 0.0
            if code == _RATE:
                s = rows / (dc * a)
            elif code == _SCAN:
                s = a / (dop * scan_bytes_per_node) + b / dc
                f = request_latency_s
                fixed += f
            elif code == _STATE:
                s = a / (dc * b)
            elif code == _PROJECT:
                s = rows / (dc * a / b)
            elif code == _SHUFFLE:
                moved = nbytes * (dop - 1) / dop if dop > 1 else 0.0
                s = a * (moved / (dop * network_bytes_per_node))
                f = b + c * (dop - 1)
                fixed += f
            elif code == _BROADCAST:
                hops = 1.0 + broadcast_tree_factor * math.log2(dop)
                s = a * (nbytes * hops / network_bytes_per_node)
                f = b + c * (dop - 1)
                fixed += f
            elif code == _GATHER:
                s = a * (nbytes / network_bytes_per_node)
                f = b + c * (dop - 1)
                fixed += f
            elif code == _BUILD:
                s = rows / (dc * a)
                table_bytes = nbytes + rows * hash_table_bytes_per_row
                per_node = table_bytes if b else table_bytes / dop
                if per_node > hash_memory_per_node and per_node > 0:
                    overflow = (per_node - hash_memory_per_node) / per_node
                    s *= 1.0 + spill_penalty * overflow
            elif code == _SORT:
                per_node_rows = rows / dop
                if not per_node_rows > 2.0:
                    per_node_rows = 2.0
                s = per_node_rows / (a / math.log2(per_node_rows))
            else:  # _ZERO
                s = 0.0
            if s > stream:
                stream = s
                bottleneck = index
            bytes_in = nbytes
            if flow == _CONST:
                rows = r1
                nbytes = r2
            elif flow == _SELECT:
                rows = rows * r1
                nbytes = rows * r2
            elif flow == _PARTIAL:
                groups = r1 * dop
                if groups < rows:
                    rows = groups
                nbytes = rows * r2
            else:  # _PROBE_SCALED
                scale = rows / r1[1]
                if scale > MAX_INPUT_SCALE:
                    scale = MAX_INPUT_SCALE
                rows = r1[0] * scale
                nbytes = rows * r2
            if detail is not None:
                detail.append((s, f, bytes_in, rows))
        if stream == _NEG_INF:
            stream = 0.0
        duration = stream + (fixed + pipeline_startup_s)
        self._bottlenecks[dop] = bottleneck  # before the duration: readers key on it
        self._durations[dop] = duration
        return duration

    # ------------------------------------------------------------------ #
    # Materialized on request
    # ------------------------------------------------------------------ #
    def op_terms(self, dop: int) -> list[tuple[float, float, float, float]]:
        """Per operator ``(stream_s, fixed_s, bytes_in, rows_out)`` at
        ``dop`` (memoized; shared — treat as read-only)."""
        found = self._details.get(dop)
        if found is None:
            found = []
            self._evaluate(dop, found)
            self._details[dop] = found
        return found

    def source_rows(self, dop: int) -> float:
        """Rows the pipeline's source emits."""
        if self._source_rows is not None:
            return self._source_rows
        terms = self.op_terms(dop)
        return terms[0][3] if terms else 0.0

    def label(self, index: int) -> str:
        """``describe()[role]`` of operator ``index`` (rendered once)."""
        label = self._labels[index]
        if label is None:
            op = self._ops[index]
            label = self._labels[index] = f"{op.node.describe()}[{op.role}]"
        return label

    def summary(self, dop: int) -> tuple[float, str, float]:
        """``(duration, bottleneck label, source_rows)`` — what a
        :class:`~repro.cost.estimate.PipelineCost` records."""
        duration = self.duration(dop)
        bottleneck = self.label(self._bottlenecks[dop]) if self._ops else ""
        return duration, bottleneck, self.source_rows(dop)

    def timing(self, dop: int) -> PipelineTiming:
        """The full :class:`PipelineTiming`, per-operator times included."""
        duration, bottleneck, source_rows = self.summary(dop)
        op_times = [
            OpTime(stream_s, fixed_s, self.label(index))
            for index, (stream_s, fixed_s, _, _) in enumerate(self.op_terms(dop))
        ]
        return PipelineTiming(duration, bottleneck, op_times, source_rows)


def curve_constants(hw: "HardwareCalibration") -> tuple:
    """The hardware constants every curve of one calibration shares
    (derived rates are properties on ``hw``; resolve them once)."""
    return (
        hw.node.cores,
        hw.scan_bytes_per_node,
        hw.store.request_latency_s,
        hw.network_bytes_per_node,
        hw.broadcast_tree_factor,
        hw.hash_table_bytes_per_row,
        hw.hash_memory_per_node,
        hw.spill_penalty,
        hw.pipeline_startup_s,
    )


def compile_curve(
    pipeline: Pipeline,
    overrides: dict[int, float] | None,
    hw: "HardwareCalibration",
    exchange: "ExchangeCalibration",
    constants: tuple,
    stats: "TimingCacheStats",
) -> PipelineCurve:
    """One volume walk: every operator becomes a ``(term, flow)`` tuple.

    Mirrors :func:`~repro.cost.volumes.pipeline_volumes` for the flows
    and :meth:`~repro.cost.operator_models.OperatorModels.op_time` for
    the terms; both stay the readable statement of the models and the
    reference this compilation is tested against.
    """
    observed = overrides is not None
    terms: list[tuple] = []
    broadcast_seen = False
    for index, op in enumerate(pipeline.ops):
        node = op.node
        role = op.role
        a = b = c = 0.0

        # -- flow: what the operator emits (pipeline_volumes) ----------- #
        flow = _CONST
        if role in (ROLE_BUILD, ROLE_SINK_AGG, ROLE_SINK_SORT):
            r1 = r2 = 0.0
        elif role == ROLE_STREAM and (
            isinstance(node, PhysAggregate) and node.mode is AggMode.PARTIAL
        ):
            flow = _PARTIAL
            r1 = _final_groups(pipeline, index, overrides)
            r2 = _row_width(node)
        elif role in (ROLE_SOURCE_SCAN, ROLE_SOURCE_STATE, ROLE_PROBE, ROLE_STREAM):
            r1 = _node_rows(node, overrides)
            r2 = _row_width(node)
            expected_in = (
                _expected_stream_rows(pipeline, index)
                if role in (ROLE_PROBE, ROLE_STREAM)
                else 0.0
            )
            if observed and expected_in > 0:
                if role == ROLE_PROBE:
                    flow = _PROBE_SCALED
                    r1 = (r1, expected_in)
                elif node.node_id not in overrides:
                    flow = _SELECT
                    r1 = min(1.0, node.est_rows / expected_in)
            if flow == _CONST:
                r2 = r1 * r2
        else:
            raise EstimationError(f"unknown pipeline role {role!r}")

        # -- term: the operator's scalability model (op_time) ----------- #
        if role == ROLE_SOURCE_SCAN:
            code = _SCAN
            a = float(node.input_bytes)
            morsels = float(node.input_rows) / hw.morsel_rows
            b = morsels * hw.morsel_overhead_s
        elif role == ROLE_SOURCE_STATE:
            code, a, b = _STATE, r1, hw.state_scan_rows_per_core
        elif role == ROLE_BUILD:
            code, a, b = _BUILD, hw.hash_build_rows_per_core, broadcast_seen
        elif role == ROLE_PROBE:
            code, a = _RATE, hw.hash_probe_rows_per_core
        elif role == ROLE_SINK_AGG:
            code, a = _RATE, hw.agg_rows_per_core
        elif role == ROLE_SINK_SORT:
            code = _SORT
            log_ref = math.log2(max(2.0, hw.sort_reference_rows))
            a = hw.node.cores * hw.sort_rows_per_core * log_ref
        elif isinstance(node, PhysExchange):
            coeffs = exchange.coefficients(node.kind)
            a = coeffs.transfer_scale
            b = coeffs.base_setup_s
            c = coeffs.per_peer_setup_s
            if node.kind is ExchangeKind.SHUFFLE:
                code = _SHUFFLE
            elif node.kind is ExchangeKind.BROADCAST:
                code = _BROADCAST
            elif node.kind is ExchangeKind.GATHER:
                code = _GATHER
            else:  # pragma: no cover - exhaustive over enum
                raise EstimationError(f"unknown exchange kind {node.kind}")
        elif isinstance(node, PhysFilter):
            code, a = _RATE, hw.filter_rows_per_core
        elif isinstance(node, PhysProject):
            code = _PROJECT
            a, b = hw.project_rows_per_core_per_expr, max(1, len(node.exprs))
        elif isinstance(node, PhysLimit):
            code = _ZERO
        else:  # streaming (partial) aggregate and anything aggregate-like
            code, a = _RATE, hw.agg_rows_per_core
        terms.append((code, a, b, c, flow, r1, r2, index))
        if code == _BROADCAST:
            broadcast_seen = True  # a later build is replicated, not split
    return PipelineCurve(tuple(pipeline.ops), tuple(terms), constants, stats)
