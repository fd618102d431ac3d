"""Observability under degraded serving.

Snapshots keep reconciling bitwise when an optimize outage forces every
plan onto the degraded fallback.  Reconciliation under generated fault
schedules, retries and crashes — and the collector never perturbing
serving — is held by ``tests/chaos/test_histories.py``.
"""

from __future__ import annotations

from tests.obsvc.conftest import run_workload
from repro.core.resilience import ResiliencePolicy, RetryPolicy
from repro.core.warehouse import CostIntelligentWarehouse
from repro.obsvc.drilldown import DrillDownNavigator
from repro.testing import FaultPlan, FaultSpec
from repro.workloads.tpch_stats import synthetic_tpch_catalog


def test_degraded_serving_stays_observable():
    """Snapshots keep reconciling when outages force degraded plans."""
    catalog = synthetic_tpch_catalog(1.0)
    warehouse = CostIntelligentWarehouse(
        catalog=catalog,
        resilience=ResiliencePolicy(
            retry=RetryPolicy(max_attempts=2, seed=7),
            stage_deadline_s={"optimize": 1.0},
        ),
    )
    warehouse.inject_faults(
        FaultPlan(
            [FaultSpec(point="optimize", latency_rate=1.0, latency_s=2.0)],
            seed=7,
        )
    )
    warehouse.enable_collection(cadence_queries=1)
    run_workload(warehouse, count=4, seed=7)
    assert warehouse.metrics.value("repro_degraded_queries_total") > 0
    for snapshot in warehouse.cost_history.snapshots():
        DrillDownNavigator(snapshot).reconcile()

