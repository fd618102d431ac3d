"""The cost estimator: plan + DOPs -> predicted time and dollars.

The one stateful cost object.  The rest of the system (the bi-objective
optimizer, the DOP planner and its co-finish polish, the DOP monitor,
the distributed simulator, the What-If Service) all "invoke the cost
estimator", and it holds everything their pricing reads:

- the **calibration**: the hardware, the exchange coefficients, and the
  node price, read from the hardware on every estimate;
- the **counters** (:class:`TimingCacheStats`);
- the tables one planning walk fills, all plain dictionaries keyed by
  pipeline or :class:`~repro.plan.pipelines.PipelineDag`: the compiled
  cost curves (one per pipeline and projected overrides, see
  :meth:`CostEstimator.curve`, keyed by :func:`overrides_key`), each
  DAG's object-store GET fees and the optimizer's variants
  (``planned``).

A DOP search keeps nothing here but the curves it compiled: each DAG is
searched once per walk, so the search builds and drops its own
:class:`~repro.cost.query_simulator.ScheduleSweeper`
(:mod:`repro.dop.planner`) and no outcome is memoized.  Nothing here
outlives a planning walk: a served plan's simulated executions live on
its :class:`~repro.core.bioptimizer.PlanChoice` (``simulations``).

Serving fills none of the warehouse's own walk tables: each planning
walk prices through a :meth:`CostEstimator.scratch` — one shallow copy
carrying the same calibration and counters over empty tables — for its
search *and* its simulation, and drops it with the handle.

Recalibrating is one assignment (``estimator.hw = ...`` or
``estimator.exchange = ...``) followed by
:meth:`CostEstimator.invalidate_caches`, which drops every table: they
bake in the calibration they were priced under.  The plans, and the
simulations they keep, go with
``CostIntelligentWarehouse.invalidate_plan_cache``.

:class:`repro.testing.reference.ReferenceEstimator` builds none of the
tables: the reference the parity suite compares against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.cost.curve import (
    PipelineCurve,
    PipelineTiming,
    compile_curve,
    curve_constants,
)
from repro.cost.estimate import CostEstimate
from repro.cost.hardware import HardwareCalibration
from repro.cost.query_simulator import simulate_dag
from repro.cost.regression import ExchangeCalibration
from repro.plan.physical import PhysScan
from repro.plan.pipelines import Pipeline, PipelineDag
from repro.util.units import MB

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.objectstore import ObjectStoreConfig

#: Scans read the object store in ranged GETs of this many bytes.
SCAN_GET_BYTES = 8 * MB


def overrides_key(overrides: dict[int, float] | None) -> tuple | None:
    """Hashable identity of a cardinality-overrides mapping.

    ``None`` and ``{}`` are deliberately distinct: passing any mapping —
    even an empty one — switches the volume model into
    observed-selectivity mode for un-overridden operators.
    """
    if overrides is None:
        return None
    return tuple(sorted(overrides.items()))


@dataclass
class TimingCacheStats:
    """Hit/miss counters (``describe_caches()["timing_cache"]``).

    ``timing_*`` count per-DOP duration lookups on the curves;
    ``curve_*`` count curve lookups and compilations (one volume walk
    each).  One instance is shared by an estimator and every scratch
    made from it.
    """

    curve_hits: int = 0
    curve_computations: int = 0
    timing_hits: int = 0
    timing_computations: int = 0

    def describe(self) -> str:
        return (
            f"timings: {self.timing_hits} hits / "
            f"{self.timing_computations} computed; "
            f"curves: {self.curve_hits} hits / "
            f"{self.curve_computations} compiled"
        )


def scan_request_dollars(dag: PipelineDag, store: ObjectStoreConfig) -> float:
    """Object-store GET fees for the plan's scans, each scan node counted
    once: the one fee formula, shared by the estimator (memoized per DAG)
    and the distributed simulator's bill."""
    dollars = 0.0
    seen: set[int] = set()
    for pipeline in dag:
        for op in pipeline.ops:
            node = op.node
            if isinstance(node, PhysScan) and node.node_id not in seen:
                seen.add(node.node_id)
                gets = max(1.0, node.input_bytes / SCAN_GET_BYTES)
                dollars += gets * store.price_per_get
    return dollars


class CostEstimator:
    """Predicts latency / machine time / dollars for plan fragments.

    Prices pipelines from compiled cost curves (:mod:`repro.cost.curve`)
    and memoizes them and per-DAG scan fees (see the module docstring);
    results are bit-identical to evaluating ``pipeline_volumes`` +
    ``op_time`` per call, which :mod:`repro.testing.reference` does for
    the parity suite.
    """

    def __init__(
        self,
        hardware: HardwareCalibration | None = None,
        exchange_calibration: ExchangeCalibration | None = None,
    ) -> None:
        self.hw = hardware or HardwareCalibration()
        self.exchange = exchange_calibration or ExchangeCalibration.analytic(self.hw)
        self.stats = TimingCacheStats()
        self._curve_constants: tuple = (None, ())  # (the hw they were read from, them)
        self._new_tables()

    def _new_tables(self) -> None:
        # pipeline -> (its plan-node ids, {overrides_key: PipelineCurve})
        self._curves: dict[Pipeline, tuple[frozenset, dict]] = {}
        self._scan_dollars: dict[PipelineDag, float] = {}
        self.planned: dict = {}  # the optimizer's variants, by bound query

    def scratch(self) -> "CostEstimator":
        """An estimator for one planning walk: this one's calibration
        and counters over empty tables of its own, which die with it
        (see the module docstring)."""
        # copy.copy without the reduce protocol: four times faster.
        child = object.__new__(type(self))
        child.__dict__.update(self.__dict__)
        child._new_tables()
        return child

    def invalidate_caches(self) -> None:
        """Drop every walk table (after hardware/model recalibration)."""
        self._new_tables()

    # ------------------------------------------------------------------ #
    # Main entry points
    # ------------------------------------------------------------------ #
    def estimate_dag(
        self,
        dag: PipelineDag,
        dops: dict[int, int],
        overrides: dict[int, float] | None = None,
    ) -> CostEstimate:
        """Estimate a pipeline DAG under a DOP assignment."""
        estimate = simulate_dag(dag, dops, self, overrides=overrides)
        estimate.scan_request_dollars = self.scan_request_dollars(dag)
        return estimate

    # ------------------------------------------------------------------ #
    # Pipeline timing
    # ------------------------------------------------------------------ #
    def curve(
        self, pipeline: Pipeline, overrides: dict[int, float] | None = None
    ) -> PipelineCurve:
        """The pipeline's compiled cost curve under ``overrides``,
        compiled once per estimator.

        Overrides are first restricted to the pipeline's own plan nodes:
        the volume model reads them only there, so a truth the DOP
        monitor learns about one node recompiles one pipeline, not the
        plan.  ``None`` stays ``None`` and a non-empty mapping may
        project to ``{}`` — any mapping switches the volume model into
        observed-selectivity mode.
        """
        entry = self._curves.get(pipeline)
        if entry is None:
            node_ids = frozenset(op.node.node_id for op in pipeline.ops)
            entry = self._curves[pipeline] = (node_ids, {})
        node_ids, curves = entry
        if overrides is not None and not overrides.keys() <= node_ids:
            overrides = {
                node_id: rows
                for node_id, rows in overrides.items()
                if node_id in node_ids
            }
        key = overrides_key(overrides)
        found = curves.get(key)
        if found is not None:
            self.stats.curve_hits += 1
            return found
        self.stats.curve_computations += 1
        hw = self.hw
        if self._curve_constants[0] is not hw:
            self._curve_constants = (hw, curve_constants(hw))
        found = curves[key] = compile_curve(
            pipeline,
            overrides,
            hw,
            self.exchange,
            self._curve_constants[1],
            self.stats,
        )
        return found

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
        """Timing of one pipeline, per-operator times included."""
        return self.curve(pipeline, overrides).timing(dop)

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
    # Secondary cost terms
    # ------------------------------------------------------------------ #
    def scan_request_dollars(self, dag: PipelineDag) -> float:
        """Object-store GET fees for the plan's scans (DOP-independent,
        memoized per DAG)."""
        dollars = self._scan_dollars.get(dag)
        if dollars is None:
            dollars = scan_request_dollars(dag, self.hw.store)
            self._scan_dollars[dag] = dollars
        return dollars
