"""Cost estimator (paper §3.1): per-operator scalability models + a
lightweight query-level simulator.

The estimator is "the center of the architecture ... a referee that ranks
different execution proposals".  Given a pipeline DAG, DOP assignments,
and hardware calibration, it predicts query latency, total machine time,
and monetary cost — accurately enough to plan with, cheaply enough to be
invoked thousands of times per optimization, and explainably (closed-form
formulas plus least-squares-calibrated exchange corrections; no black-box
models).

The optimizer hot path: compiled cost curves
-------------------------------------------

"Invoked thousands of times per optimization" made the estimator the
optimize-time bottleneck, and planner CPU is itself billed time.  The
models are stated twice, on purpose:

- **readably** — :func:`repro.cost.volumes.pipeline_volumes` derives each
  operator's data flow and
  :meth:`repro.cost.operator_models.OperatorModels.op_time` prices one
  operator from it.  :mod:`repro.testing.reference` evaluates exactly
  this, per call; it is the reference, and production code cannot
  import it.
- **compiled** — for a fixed ``(pipeline, overrides)`` only the DOP
  varies, so :mod:`repro.cost.curve` walks the operator chain once and
  turns each operator into a flat numeric term (scan, linear rate,
  shuffle/broadcast/gather exchange with its fitted coefficients,
  project, build with spill, sort) plus a rule for what it emits
  downstream (a constant almost everywhere; a recipe after a partial
  aggregate, whose output ``min(rows, groups * dop)`` is the one volume
  that depends on parallelism).  ``curve.duration(dop)`` is then a loop
  over floats performing the same float operations in the same order as
  the readable statement — bit-identical — and memoized per DOP.
  Bottleneck labels, per-operator times and ``PipelineTiming`` objects
  are materialized only where something reads them (the final
  ``CostEstimate``, the simulator).

Around the curves, memoization is layered so that each level dies with
the object it describes:

- **curves** (:mod:`repro.cost.timing_cache`): one per ``(pipeline,
  projected overrides)``, keyed weakly by pipeline.  Overrides are
  projected onto the pipeline's own plan nodes first, so a truth the DOP
  monitor learns about one node recompiles one pipeline, not the plan.
- **per DAG** (:class:`repro.cost.estimator.CostEstimator`): scan-request
  fees and the :class:`repro.cost.query_simulator.ScheduleSweeper` (the
  DAG's structure as positional indexes), keyed weakly by DAG and shared
  by the optimizer's DOP search and the monitor's replans of that DAG.
  The search itself (:mod:`repro.dop.planner`) is table-driven over
  these: a round of candidate moves costs one duration lookup per
  candidate and one lean sweep, with a critical-path prune for moves
  provably unable to reduce latency.  Two more tables, keyed weakly by
  DAG the same way (four in all), hold what is computed *from* a
  finished plan: the DOP searches already run over the DAG, and the
  simulated executions of it the warehouse has served (one per policy
  name, constraint, DOP assignment, truth, ``SimConfig`` and
  ``max_dop``), so a plan answered from the exact cache is neither
  searched nor simulated again.
- **DAG planning** (:mod:`repro.core.bioptimizer`): join-tree variants,
  physical plans, and pipeline decompositions are memoized per bound
  query (weakly) — the user constraint never enters DAG planning, so a
  second constraint on the same query re-runs only the DOP search.
- **plans** (:mod:`repro.core.plan_cache`): the serving layer is a
  *two-level* cache.  The exact level memoizes whole ``PlanChoice``s
  keyed on (normalized SQL string, constraint, catalog stats
  version).  The skeleton level keys the template's *plan skeleton* —
  the DP-chosen join tree plus bushy variant shapes — on the
  literal-free template key
  (:func:`repro.sql.parameterize.parameterize_sql`), the constraint
  kind, and the stats version, so literal-varying report traffic skips
  join-order DP and bushy generation and re-runs only constant binding
  (itself served from a per-template AST cache), cardinality
  re-estimation, and the DOP search.  A binding cache (normalized SQL ->
  bound query) makes the second constraint on one arrival share binding,
  the DAG memo, and all pipeline curves.

Invalidation: curves key on the (projected) cardinality-overrides
mapping, so new observations never see stale numbers; catalog mutations
bump ``Catalog.version``, which invalidates exact, skeleton, and
binding entries by construction; ``CostEstimator.invalidate_caches()``
handles the one out-of-band case — curves and sweepers bake in the
hardware and exchange calibration they were compiled with, so call it
after replacing either.  The compiled path is bit-identical to the
reference — enforced by ``tests/cost/test_estimation_parity.py`` (every
TPC-H pipeline and generated ad-hoc shapes x DOP 1..64 x five override
modes; search trajectories against the naive per-candidate search) and
a ``hypothesis`` sweep over arbitrary operator chains in
``tests/properties/``.
``CostIntelligentWarehouse.describe_caches()`` reports hit rates across
every level.
"""

from repro.cost.hardware import HardwareCalibration
from repro.cost.estimate import CostEstimate, PipelineCost
from repro.cost.estimator import CostEstimator
from repro.cost.operator_models import OperatorModels
from repro.cost.regression import ExchangeCalibration, calibrate_exchange
from repro.cost.timing_cache import TimingCache

__all__ = [
    "HardwareCalibration",
    "CostEstimate",
    "PipelineCost",
    "CostEstimator",
    "OperatorModels",
    "ExchangeCalibration",
    "TimingCache",
    "calibrate_exchange",
]
