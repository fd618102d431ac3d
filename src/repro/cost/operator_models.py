"""Per-operator scalability models (paper §3.1).

"For each physical operator, we design a scalability model that outputs
its processing throughput given the data size and the degree of
parallelism."  Simple closed-form formulas for CPU-bound operators;
network-bound exchanges use a linear model whose coefficients can be
recalibrated by regression on synthetic workloads
(:mod:`repro.cost.regression`).

A pipeline executes its operators concurrently (streaming), so pipeline
duration = max of per-operator stream times + accumulated fixed
overheads (setup costs that do not overlap with streaming).
"""

from __future__ import annotations

import math
from typing import Callable

from repro.cost.curve import (
    OpTime,
    PipelineCurve,
    PipelineTiming,
    compile_curve,
    curve_constants,
)
from repro.cost.hardware import HardwareCalibration
from repro.cost.regression import ExchangeCalibration
from repro.cost.timing_cache import TimingCache
from repro.cost.volumes import OpVolume
from repro.errors import EstimationError
from repro.plan.physical import (
    ExchangeKind,
    PhysExchange,
    PhysFilter,
    PhysLimit,
    PhysProject,
    PhysSort,
)
from repro.plan.pipelines import (
    Pipeline,
    ROLE_BUILD,
    ROLE_PROBE,
    ROLE_SINK_AGG,
    ROLE_SINK_SORT,
    ROLE_SOURCE_SCAN,
    ROLE_SOURCE_STATE,
    ROLE_STREAM,
)


class OperatorModels:
    """Evaluates operator and pipeline times from volumes and DOP.

    Every pipeline-level question is answered from the pipeline's
    compiled :class:`PipelineCurve`; :meth:`op_time` is the readable
    statement of the models, which the curves are held to bit for bit by
    the per-call evaluator in :mod:`repro.testing.reference`.
    """

    def __init__(
        self,
        hardware: HardwareCalibration | None = None,
        exchange_calibration: ExchangeCalibration | None = None,
    ) -> None:
        self.hw = hardware or HardwareCalibration()
        self.exchange = exchange_calibration or ExchangeCalibration.analytic(self.hw)
        self.cache = TimingCache()
        self._curve_constants: tuple = (None, ())  # (the hw they were read from, them)

    @property
    def timing_computations(self) -> int:
        """Count of actual timing-model evaluations (curve evaluations
        that missed the per-DOP memo)."""
        return self.cache.stats.timing_computations

    # ------------------------------------------------------------------ #
    # Pipeline-level API
    # ------------------------------------------------------------------ #
    def curve(
        self, pipeline: Pipeline, overrides: dict[int, float] | None = None
    ) -> PipelineCurve:
        """The pipeline's compiled cost curve under ``overrides``, shared
        through the cache."""
        return self.cache.curve(pipeline, overrides, self._compile)

    def _compile(
        self, pipeline: Pipeline, overrides: dict[int, float] | None
    ) -> PipelineCurve:
        hw = self.hw
        if self._curve_constants[0] is not hw:
            self._curve_constants = (hw, curve_constants(hw))
        return compile_curve(
            pipeline,
            overrides,
            hw,
            self.exchange,
            self._curve_constants[1],
            self.cache.stats,
        )

    def durations(
        self, pipeline: Pipeline, overrides: dict[int, float] | None = None
    ) -> Callable[[int], float]:
        """``dop -> duration`` for one pipeline: one lookup, then as many
        DOP probes as the caller likes."""
        return self.curve(pipeline, overrides).duration

    def pipeline_summary(
        self,
        pipeline: Pipeline,
        dop: int,
        overrides: dict[int, float] | None = None,
    ) -> tuple[float, str, float]:
        """``(duration, bottleneck label, source_rows)`` at ``dop`` —
        :meth:`pipeline_timing` without the per-operator breakdown."""
        return self.curve(pipeline, overrides).summary(dop)

    def pipeline_timing(
        self,
        pipeline: Pipeline,
        dop: int,
        overrides: dict[int, float] | None = None,
    ) -> PipelineTiming:
        """Duration of ``pipeline`` at ``dop`` (streaming bottleneck
        model) with its per-operator times."""
        return self.curve(pipeline, overrides).timing(dop)

    def invalidate_cache(self) -> None:
        """Drop compiled curves (after model recalibration)."""
        self.cache.invalidate()

    def throughput(
        self,
        pipeline: Pipeline,
        dop: int,
        overrides: dict[int, float] | None = None,
    ) -> float:
        """Source-rows-per-second throughput T(dop) of a pipeline.

        This is the throughput function the co-finish heuristic plugs
        into C1/T1(DOP1) ≈ C2/T2(DOP2) (§3.2).
        """
        duration, _, source_rows = self.pipeline_summary(pipeline, dop, overrides)
        if duration <= 0:
            return float("inf")
        return max(source_rows, 1.0) / duration

    # ------------------------------------------------------------------ #
    # Per-operator models
    # ------------------------------------------------------------------ #
    def op_time(
        self,
        volume: OpVolume,
        dop: int,
        *,
        pipeline: Pipeline | None = None,
        index: int | None = None,
    ) -> OpTime:
        role = volume.op.role
        node = volume.op.node
        hw = self.hw
        cores = hw.node.cores
        label = f"{node.describe()}[{role}]"

        if role == ROLE_SOURCE_SCAN:
            scan_s = volume.bytes_in / (dop * hw.scan_bytes_per_node)
            morsels = volume.rows_in / hw.morsel_rows
            sched_s = morsels * hw.morsel_overhead_s / (dop * cores)
            return OpTime(scan_s + sched_s, hw.store.request_latency_s, label)

        if role == ROLE_SOURCE_STATE:
            rate = dop * cores * hw.state_scan_rows_per_core
            return OpTime(volume.rows_out / rate, 0.0, label)

        if role == ROLE_STREAM:
            return self._stream_time(volume, dop, label)

        if role == ROLE_BUILD:
            rate = dop * cores * hw.hash_build_rows_per_core
            build_s = volume.rows_in / rate
            build_s *= self._spill_multiplier(volume, dop, pipeline, index)
            return OpTime(build_s, 0.0, label)

        if role == ROLE_PROBE:
            rate = dop * cores * hw.hash_probe_rows_per_core
            return OpTime(volume.rows_in / rate, 0.0, label)

        if role == ROLE_SINK_AGG:
            rate = dop * cores * hw.agg_rows_per_core
            return OpTime(volume.rows_in / rate, 0.0, label)

        if role == ROLE_SINK_SORT:
            per_node_rows = max(2.0, volume.rows_in / dop)
            log_ref = math.log2(max(2.0, hw.sort_reference_rows))
            rate = cores * hw.sort_rows_per_core * log_ref / math.log2(per_node_rows)
            return OpTime(per_node_rows / rate, 0.0, label)

        raise EstimationError(f"no model for pipeline role {role!r}")

    def _stream_time(self, volume: OpVolume, dop: int, label: str) -> OpTime:
        node = volume.op.node
        hw = self.hw
        cores = hw.node.cores
        if isinstance(node, PhysExchange):
            return self._exchange_time(node.kind, volume, dop, label)
        if isinstance(node, PhysFilter):
            rate = dop * cores * hw.filter_rows_per_core
            return OpTime(volume.rows_in / rate, 0.0, label)
        if isinstance(node, PhysProject):
            exprs = max(1, len(node.exprs))
            rate = dop * cores * hw.project_rows_per_core_per_expr / exprs
            return OpTime(volume.rows_in / rate, 0.0, label)
        if isinstance(node, PhysLimit):
            return OpTime(0.0, 0.0, label)
        # Streaming (partial) aggregate and anything aggregate-like.
        rate = dop * cores * hw.agg_rows_per_core
        return OpTime(volume.rows_in / rate, 0.0, label)

    def _exchange_time(
        self, kind: ExchangeKind, volume: OpVolume, dop: int, label: str
    ) -> OpTime:
        hw = self.hw
        coeffs = self.exchange.coefficients(kind)
        if kind is ExchangeKind.SHUFFLE:
            moved = volume.bytes_in * (dop - 1) / dop if dop > 1 else 0.0
            transfer = moved / (dop * hw.network_bytes_per_node)
        elif kind is ExchangeKind.BROADCAST:
            hops = 1.0 + hw.broadcast_tree_factor * math.log2(max(1, dop))
            transfer = volume.bytes_in * hops / hw.network_bytes_per_node
        elif kind is ExchangeKind.GATHER:
            transfer = volume.bytes_in / hw.network_bytes_per_node
        else:  # pragma: no cover - exhaustive over enum
            raise EstimationError(f"unknown exchange kind {kind}")
        stream = coeffs.transfer_scale * transfer
        fixed = coeffs.base_setup_s + coeffs.per_peer_setup_s * max(0, dop - 1)
        return OpTime(stream, fixed, label)

    def _spill_multiplier(
        self,
        volume: OpVolume,
        dop: int,
        pipeline: Pipeline | None,
        index: int | None,
    ) -> float:
        """Penalty when the hash build exceeds usable memory.

        A broadcast build is replicated on every node; a partitioned
        build is split across the DOP.
        """
        hw = self.hw
        table_bytes = volume.bytes_in + volume.rows_in * hw.hash_table_bytes_per_row
        broadcast = False
        if pipeline is not None and index is not None:
            broadcast = any(
                isinstance(op.node, PhysExchange)
                and op.node.kind is ExchangeKind.BROADCAST
                for op in pipeline.ops[:index]
            )
        per_node = table_bytes if broadcast else table_bytes / dop
        budget = hw.hash_memory_per_node
        if per_node <= budget or per_node <= 0:
            return 1.0
        overflow = (per_node - budget) / per_node
        return 1.0 + hw.spill_penalty * overflow
