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

Around the curves, memoization is layered by lifetime:

- **one planning walk** (:meth:`repro.cost.estimator.CostEstimator.scratch`):
  the curves (:mod:`repro.cost.timing_cache`), one per ``(pipeline,
  projected overrides)`` — overrides are projected onto the pipeline's
  own plan nodes first, so a truth the DOP monitor learns about one node
  recompiles one pipeline, not the plan; per DAG, the scan-request fees,
  the :class:`repro.cost.query_simulator.ScheduleSweeper` (the DAG's
  structure as positional indexes) and the DOP searches already run; and
  the optimizer's join-tree variants, physical plans and pipeline
  decompositions (:mod:`repro.core.bioptimizer`).  The search itself
  (:mod:`repro.dop.planner`) is table-driven over these: a round of
  candidate moves costs one duration lookup per candidate and one lean
  sweep, with a critical-path prune for moves provably unable to reduce
  latency.  All of it is plain dictionaries on the walk's scratch,
  shared by the walk's search, its simulation and the DOP monitor's
  replans there, and dropped with the handle.
- **one cached plan**: the simulated executions of a DAG the warehouse
  has served (one per policy name, constraint, DOP assignment, truth,
  ``SimConfig`` and ``max_dop``), keyed weakly by the DAG, so a plan
  answered from the exact cache is neither searched nor simulated again.
- **plans** (:mod:`repro.core.plan_cache`): the serving layer is a
  *two-level* cache.  The exact level memoizes whole ``PlanChoice``s
  keyed on (normalized SQL string, constraint, catalog stats
  version).  The skeleton level keys the template's *plan skeleton* —
  the DP-chosen join tree plus bushy variant shapes — on the
  literal-free template key
  (:func:`repro.sql.parameterize.parameterize_sql`), the constraint
  kind, and the stats version, so literal-varying report traffic skips
  join-order DP and bushy generation and re-runs only the literal fill
  of the template's bound form (:mod:`repro.sql.binder` binds each
  template once per stats version), cardinality re-estimation, and the
  DOP search.  A second constraint on one arrival binds again and
  re-plans its DAG; only an exact hit skips both.

Invalidation: curves key on the (projected) cardinality-overrides
mapping, so new observations never see stale numbers; catalog mutations
bump ``Catalog.version``, which invalidates exact and skeleton entries
and bound templates by construction; ``CostEstimator.invalidate_caches()``
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
