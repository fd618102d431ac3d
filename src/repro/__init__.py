"""repro: a cost-intelligent cloud data warehouse.

Reproduction of Zhang, Liu, Yan — *Cost-Intelligent Data Analytics in
the Cloud* (CIDR 2024).  The package implements the paper's architecture
end to end: a SQL frontend and classical DAG-planning optimizer, the
per-operator cost estimator with a query-level simulator (§3.1), the
bi-objective optimizer with per-pipeline DOP planning and bushy-variant
exploration (§3.2), a DOP monitor with pipeline-granular dynamic
resizing over a discrete-event cluster simulator (§3.3), and the
Statistics/What-If services for cost-oriented auto-tuning (§4).

Serving goes through per-tenant sessions: build a frozen
:class:`QueryRequest`, submit it, and get a :class:`QueryHandle` whose
lifecycle runs ``QUEUED -> BOUND -> PLANNED -> SIMULATED -> DONE`` with
per-stage timings; ``result()`` yields the :class:`QueryOutcome` (plan,
latency, auditable dollars).  Batches plan concurrently via the
:class:`ServingScheduler`, bit-identical to sequential submission.

Resource governance makes both of the serving stack's resource
decisions cost-driven: plan-cache retention is a score each cache level
reads (``retention_policy="lru"`` by default; ``"cost-aware"`` keeps
templates alive by forecast frequency x re-optimization cost saved, and
``warehouse.warm_cache`` pre-plans the hottest forecast templates), and
per-tenant :class:`TenantBudget` dollar ceilings are enforced by an
:class:`AdmissionController` whose verdicts escalate
admit -> throttle -> defer -> deny (a denial is a typed
:class:`AdmissionDeniedError` and a ``DENIED`` handle state, never a
failure of other tenants' work).

Auto-tuning mirrors that model: ``warehouse.tuning`` is a persistent
:class:`TuningService` whose ``propose()`` returns typed
:class:`Recommendation`\\ s (``PROPOSED -> ACCEPTED -> APPLYING ->
APPLIED -> ROLLING_BACK -> ROLLED_BACK``, or ``REJECTED`` / ``FAILED``)
carrying their What-If dollar reports; ``apply()`` runs on background
compute with spend metered per tenant, and ``rollback()`` restores
bit-identical plans and catalog state.  A :class:`TuningPolicy` drives
recurring cycles from the serving layer.

Failure-domain hardening: a :class:`ResiliencePolicy` on the warehouse
gives every request bounded, budget-aware retries with deterministic
seeded backoff (:class:`RetryPolicy`; retry dollars land on the tenant's
bill), per-request/per-stage deadlines (an ``optimize`` timeout degrades
to the heuristic default plan — ``outcome.degraded`` — instead of
failing the batch), and :class:`CircuitBreaker`\\ s around the
Statistics Service and background tuning.  Faults are injectable
deterministically via ``warehouse.inject_faults`` (see
:mod:`repro.testing.faults`) and observable via
``warehouse.describe_health()``.

Quickstart::

    from repro import (
        CostIntelligentWarehouse, QueryRequest, load_tpch, sla_constraint,
    )

    db = load_tpch(scale_factor=0.01)
    warehouse = CostIntelligentWarehouse(database=db)
    session = warehouse.session(tenant="analyst", constraint=sla_constraint(10.0))
    handle = session.submit(QueryRequest(
        sql="SELECT count(*) AS big FROM orders WHERE o_totalprice > 300000",
        execute_locally=True,
    ))
    print(handle.result().describe())
    print(f"{session.tenant} spent ${session.dollars_spent:.4f}")
"""

import importlib

__version__ = "1.3.0"

#: Each public name and the module that defines it.  A name is imported
#: on its first read (PEP 562), so ``import repro`` -- and importing any
#: submodule, which runs this file first -- loads no other module.
_DEFINED_IN = {
    "Catalog": "repro.catalog.catalog",
    "BiObjectiveOptimizer": "repro.core.bioptimizer",
    "CostIntelligentWarehouse": "repro.core.warehouse",
    "QueryHandle": "repro.core.service",
    "QueryOutcome": "repro.core.service",
    "QueryRequest": "repro.core.service",
    "QueryState": "repro.core.service",
    "ServingScheduler": "repro.core.service",
    "Session": "repro.core.service",
    "AdmissionController": "repro.core.governance",
    "AdmissionVerdict": "repro.core.governance",
    "AdmissionDeniedError": "repro.errors",
    "TenantBudget": "repro.core.governance",
    "ResiliencePolicy": "repro.core.resilience",
    "RetryPolicy": "repro.core.resilience",
    "CircuitBreaker": "repro.core.resilience",
    "BreakerState": "repro.core.resilience",
    "Deadline": "repro.core.resilience",
    "TransientError": "repro.errors",
    "DeadlineExceededError": "repro.errors",
    "RetryExhaustedError": "repro.errors",
    "CostEstimator": "repro.cost.estimator",
    "HardwareCalibration": "repro.cost.hardware",
    "DopPlanner": "repro.dop.planner",
    "sla_constraint": "repro.dop.constraints",
    "budget_constraint": "repro.dop.constraints",
    "Database": "repro.engine.database",
    "LocalExecutor": "repro.engine.local_executor",
    "DistributedSimulator": "repro.sim.distsim",
    "SimConfig": "repro.sim.distsim",
    "Binder": "repro.sql.binder",
    "Recommendation": "repro.tuning.service",
    "RecommendationState": "repro.tuning.service",
    "TuningPolicy": "repro.tuning.service",
    "TuningReport": "repro.tuning.whatif",
    "TuningService": "repro.tuning.service",
    "load_tpch": "repro.workloads.tpch_data",
    "synthetic_tpch_catalog": "repro.workloads.tpch_stats",
}

__all__ = [*_DEFINED_IN, "__version__"]


def __getattr__(name: str):
    module = _DEFINED_IN.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
