"""Parity references: the slow, readable paths production is held to.

Production prices pipelines from compiled cost curves and searches DOPs
over tables and memos.  The classes here answer the same questions the
way the models are *stated* — ``pipeline_volumes`` then one ``op_time``
per operator, per call; every candidate DOP move fully re-estimated —
and keep nothing between calls.  ``tests/cost/`` and
``tests/properties/`` require production to match them bit for bit; no
production module may import them
(``tests/testing/test_production_imports.py``).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterator

from repro.core.bioptimizer import BiObjectiveOptimizer
from repro.cost import curve as curves
from repro.cost.estimator import CostEstimator, scan_request_dollars
from repro.cost.hardware import HardwareCalibration
from repro.cost.operator_models import OperatorModels
from repro.cost.query_simulator import ScheduleSweeper
from repro.cost.regression import ExchangeCalibration
from repro.cost.timing_cache import TimingCacheStats
from repro.cost.volumes import pipeline_volumes
from repro.dop.constraints import Constraint
from repro.dop.planner import DopPlan, DopPlanner
from repro.plan.pipelines import Pipeline, PipelineDag

Overrides = dict[int, float] | None


class ReferenceModels(OperatorModels):
    """Per-call ``pipeline_volumes`` + ``op_time``; no curve cache."""

    def __init__(self, hardware=None, exchange_calibration=None) -> None:
        # Not super().__init__(): that builds the curve cache.
        self.hw = hardware or HardwareCalibration()
        self.exchange = exchange_calibration or ExchangeCalibration.analytic(self.hw)
        self.stats = TimingCacheStats()

    @property
    def timing_computations(self) -> int:
        return self.stats.timing_computations

    def curve(
        self, pipeline: Pipeline, overrides: Overrides = None
    ) -> curves.PipelineCurve:
        """Compiled afresh per call, for consumers that read curves
        directly (the distributed simulator, the table-driven coster)."""
        constants = curves.curve_constants(self.hw)
        return curves.compile_curve(
            pipeline, overrides, self.hw, self.exchange, constants, self.stats
        )

    def durations(
        self, pipeline: Pipeline, overrides: Overrides = None
    ) -> Callable[[int], float]:
        return lambda dop: self.pipeline_timing(pipeline, dop, overrides).duration

    def pipeline_summary(
        self, pipeline: Pipeline, dop: int, overrides: Overrides = None
    ) -> tuple[float, str, float]:
        timing = self.pipeline_timing(pipeline, dop, overrides)
        return timing.duration, timing.bottleneck, timing.source_rows

    def pipeline_timing(
        self, pipeline: Pipeline, dop: int, overrides: Overrides = None
    ) -> curves.PipelineTiming:
        self.stats.timing_computations += 1
        volumes = pipeline_volumes(pipeline, dop, overrides)
        op_times = [
            self.op_time(volume, dop, pipeline=pipeline, index=i)
            for i, volume in enumerate(volumes)
        ]
        stream = max((t.stream_s for t in op_times), default=0.0)
        fixed = sum(t.fixed_s for t in op_times) + self.hw.pipeline_startup_s
        bottleneck = ""
        if op_times:
            bottleneck = max(op_times, key=lambda t: t.stream_s).label
        return curves.PipelineTiming(
            duration=stream + fixed,
            bottleneck=bottleneck,
            op_times=op_times,
            source_rows=volumes[0].rows_out if volumes else 0.0,
        )


class ReferenceEstimator(CostEstimator):
    """A :class:`CostEstimator` over :class:`ReferenceModels` with no
    scan-fee table, no sweeper table, no DOP-plan memo and no simulation
    memo."""

    def __init__(self, hardware=None, exchange_calibration=None) -> None:
        # Not super().__init__(): that builds the per-DAG tables.
        self.hw = hardware or HardwareCalibration()
        self.models = ReferenceModels(self.hw, exchange_calibration)
        self.price_per_node_second = self.hw.node.price_per_second

    def sweeper(self, dag: PipelineDag) -> ScheduleSweeper:
        return ScheduleSweeper(dag, self.models)

    def recall_plan(self, dag: PipelineDag, key: tuple) -> None:
        return None

    def remember_plan(self, dag: PipelineDag, key: tuple, *outcome) -> None:
        """Nothing is kept."""

    def recall_simulation(self, dag: PipelineDag, key: tuple) -> None:
        return None

    def remember_simulation(self, dag: PipelineDag, key: tuple, result) -> None:
        """Nothing is kept."""

    def scan_request_dollars(self, dag: PipelineDag) -> float:
        return scan_request_dollars(dag, self.hw.store)


class NaiveCoster:
    """Full re-estimation per candidate move: the coster the table-driven
    ``_IncrementalCoster`` must agree with, move for move."""

    def __init__(
        self, estimator: CostEstimator, dag: PipelineDag, overrides: Overrides
    ) -> None:
        self.estimator = estimator
        self.dag = dag
        self.overrides = overrides
        self.evaluations = 0

    def metrics(self, dops: dict[int, int]) -> tuple[float, float]:
        self.evaluations += 1
        estimate = self.estimator.estimate_dag(self.dag, dops, self.overrides)
        return estimate.latency, estimate.total_dollars

    def price_moves(
        self, dops: dict[int, int], candidates: list, prune_gainless: bool = False
    ) -> Iterator[tuple[float, float]]:
        for pid, new_dop in candidates:
            trial = dict(dops)
            trial[pid] = new_dop
            yield self.metrics(trial)


class NaiveDopPlanner(DopPlanner):
    """:class:`DopPlanner`'s search phases over a :class:`NaiveCoster`,
    never reading or writing the estimator's plan memo (and, being a
    reference, never raising for an infeasible strict SLA)."""

    def plan(
        self, dag: PipelineDag, constraint: Constraint, overrides: Overrides = None
    ) -> DopPlan:
        coster = NaiveCoster(self.estimator, dag, overrides)
        search = self._plan_for_sla if constraint.is_sla else self._plan_for_budget
        dops, feasible = search(dag, constraint, overrides, coster)
        return DopPlan(
            dops=dops,
            estimate=partial(self.estimator.estimate_dag, dag, dops, overrides),
            feasible=feasible,
            evaluations=coster.evaluations + 1,  # the final estimate
            constraint=constraint,
        )


def reference_optimizer(catalog, **options) -> BiObjectiveOptimizer:
    """A :class:`BiObjectiveOptimizer` whose every estimate and every
    DOP search takes the reference path."""
    optimizer = BiObjectiveOptimizer(catalog, ReferenceEstimator(), **options)
    optimizer.dop_planner = NaiveDopPlanner(
        optimizer.estimator, max_dop=optimizer.dop_planner.max_dop
    )
    return optimizer
