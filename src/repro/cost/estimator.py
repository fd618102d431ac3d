"""The cost estimator facade: plan + DOPs -> predicted time and dollars.

Bundles the scalability models, exchange calibration, and the query-level
simulator behind one object with the interface the rest of the system
uses (the bi-objective optimizer, the DOP planner, the DOP monitor, and
the What-If Service all "invoke the cost estimator").

What is memoized here, beside the models' compiled curves: four tables
per :class:`~repro.plan.pipelines.PipelineDag`, each in a dictionary
keyed *weakly* by the DAG, so an entry lives exactly as long as the plan
it describes and :meth:`CostEstimator.invalidate_caches` drops all four
after a recalibration.

- the DAG's object-store GET fees (one float);
- its :class:`~repro.cost.query_simulator.ScheduleSweeper`;
- its **DOP-plan memo**: the outcome ``(dops, feasible, evaluations)``
  of every DOP search already run over the DAG, keyed by ``(constraint,
  overrides_key(overrides), max_dop, enforce_sla_strictly)``.  The
  search is a pure function of that key and the calibration, so a
  second DOP-monitor replan of a DAG under the same learned
  cardinalities is one lookup.  (A monitor that has learned nothing
  does not search at all, and a plan served again from the exact plan
  cache is answered by the simulation memo and never replans.)  Values
  never reference the DAG (a value that did would pin its own weak
  key).
- its **simulation memo**: the
  :class:`~repro.sim.distsim.SimResult` of every simulated execution of
  the DAG the warehouse has run, under the key the warehouse builds
  (see ``CostIntelligentWarehouse._simulate`` and the
  :mod:`repro.sim.distsim` module docstring for why that is a pure
  function).  Kept here because it has the lifetime of the other three:
  it dies with the plan and with the calibration (a ``SimResult`` holds
  pipeline ids, never the DAG, so it does not pin its own weak key).

:class:`repro.testing.reference.ReferenceEstimator` builds none of them:
the reference the parity suite compares against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING
from weakref import WeakKeyDictionary

from repro.cost.estimate import CostEstimate
from repro.cost.hardware import HardwareCalibration
from repro.cost.operator_models import OperatorModels, PipelineTiming
from repro.cost.query_simulator import ScheduleSweeper, simulate_dag
from repro.cost.regression import ExchangeCalibration
from repro.plan.physical import PhysScan, walk_physical
from repro.plan.pipelines import Pipeline, PipelineDag
from repro.util.units import MB

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.distsim import SimResult
    from repro.storage.objectstore import ObjectStoreConfig

#: Scans read the object store in ranged GETs of this many bytes.
SCAN_GET_BYTES = 8 * MB


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

    Prices pipelines from compiled cost curves (:mod:`repro.cost.curve`,
    shared through :mod:`repro.cost.timing_cache`) and memoizes per-DAG
    scan fees, schedule sweepers and finished DOP searches (see the
    module docstring); results are bit-identical to evaluating
    ``pipeline_volumes`` + ``op_time`` per call, which
    :mod:`repro.testing.reference` does for the parity suite.
    """

    def __init__(
        self,
        hardware: HardwareCalibration | None = None,
        exchange_calibration: ExchangeCalibration | None = None,
    ) -> None:
        self.hw = hardware or HardwareCalibration()
        self.models = OperatorModels(self.hw, exchange_calibration)
        #: The node price every estimate charges (``DopPlanner`` reads it).
        self.price_per_node_second = self.hw.node.price_per_second
        self._scan_dollars_cache: WeakKeyDictionary[PipelineDag, float] = (
            WeakKeyDictionary()
        )
        self._sweepers: WeakKeyDictionary[PipelineDag, ScheduleSweeper] = (
            WeakKeyDictionary()
        )
        self._plan_memo: WeakKeyDictionary[PipelineDag, dict] = WeakKeyDictionary()
        self._simulation_memo: WeakKeyDictionary[PipelineDag, dict] = (
            WeakKeyDictionary()
        )

    def invalidate_caches(self) -> None:
        """Drop all memoized state (after hardware/model recalibration)."""
        self.models.invalidate_cache()
        self._scan_dollars_cache.clear()
        self._sweepers.clear()
        self._plan_memo.clear()
        self._simulation_memo.clear()

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
        estimate = simulate_dag(
            dag,
            dops,
            self.models,
            overrides=overrides,
            price_per_node_second=self.price_per_node_second,
        )
        estimate.scan_request_dollars = self.scan_request_dollars(dag)
        return estimate

    def sweeper(self, dag: PipelineDag) -> ScheduleSweeper:
        """The DAG's schedule sweeper: its structure as positional
        indexes, built once and shared by every DOP search over ``dag``
        (the optimizer's and the DOP monitor's replans alike)."""
        sweeper = self._sweepers.get(dag)
        if sweeper is None:
            sweeper = self._sweepers[dag] = ScheduleSweeper(dag, self.models)
        return sweeper

    def recall_plan(
        self, dag: PipelineDag, key: tuple
    ) -> tuple[dict[int, int], bool, int] | None:
        """The ``(dops, feasible, evaluations)`` a DOP search over
        ``dag`` under ``key`` ended with, if one already ran (the
        caller copies ``dops`` before handing it out)."""
        searched = self._plan_memo.get(dag)
        found = searched.get(key) if searched is not None else None
        if found is not None:
            self.models.cache.stats.plan_hits += 1
        return found

    def remember_plan(
        self,
        dag: PipelineDag,
        key: tuple,
        dops: dict[int, int],
        feasible: bool,
        evaluations: int,
    ) -> None:
        """Record a finished DOP search over ``dag`` under ``key``."""
        self.models.cache.stats.plan_computations += 1
        searched = self._plan_memo.get(dag)
        if searched is None:
            searched = self._plan_memo[dag] = {}
        searched[key] = (dict(dops), feasible, evaluations)

    def recall_simulation(self, dag: PipelineDag, key: tuple) -> "SimResult | None":
        """The result a simulated execution of ``dag`` under ``key``
        produced, if one already ran (shared: treat it as read-only)."""
        simulated = self._simulation_memo.get(dag)
        found = simulated.get(key) if simulated is not None else None
        if found is not None:
            self.models.cache.stats.simulation_hits += 1
        return found

    def remember_simulation(
        self, dag: PipelineDag, key: tuple, result: "SimResult"
    ) -> None:
        """Record a finished simulated execution of ``dag`` under ``key``."""
        self.models.cache.stats.simulation_computations += 1
        simulated = self._simulation_memo.get(dag)
        if simulated is None:
            simulated = self._simulation_memo[dag] = {}
        simulated[key] = result

    def pipeline_timing(
        self,
        pipeline: Pipeline,
        dop: int,
        overrides: dict[int, float] | None = None,
    ) -> PipelineTiming:
        """Timing of one pipeline, per-operator times included."""
        return self.models.pipeline_timing(pipeline, dop, overrides)

    def throughput(self, pipeline, dop: int, overrides=None) -> float:
        """Pipeline throughput T(dop) in source rows/second."""
        return self.models.throughput(pipeline, dop, overrides)

    # ------------------------------------------------------------------ #
    # Secondary cost terms
    # ------------------------------------------------------------------ #
    def scan_request_dollars(self, dag: PipelineDag) -> float:
        """Object-store GET fees for the plan's scans (DOP-independent,
        memoized per DAG)."""
        dollars = self._scan_dollars_cache.get(dag)
        if dollars is None:
            dollars = scan_request_dollars(dag, self.hw.store)
            self._scan_dollars_cache[dag] = dollars
        return dollars
