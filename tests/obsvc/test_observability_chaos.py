"""Observability under chaos (PR 9 acceptance gate).

Across the same 20-seed fault matrix the resilience suite runs, with
the snapshot collector enabled:

- drill-down reconciliation is **exact** in every collected snapshot —
  operator leaves sum bitwise to each tenant's ledger-unit bill, retries
  included via the synthetic ``(retries)`` leaf; and
- serving is **bit-identical** to a collector-off run of the same
  seeded schedule: observation must never perturb what it observes.
"""

from __future__ import annotations

import pytest

from tests.obsvc.conftest import run_workload
from repro.core.resilience import ResiliencePolicy, RetryPolicy
from repro.core.warehouse import CostIntelligentWarehouse
from repro.obsvc.drilldown import DrillDownNavigator
from repro.obsvc.history import RETRY_LEAF
from repro.testing import FaultPlan, FaultSpec
from repro.workloads.tpch_stats import synthetic_tpch_catalog

CHAOS_SEEDS = range(20)
WORKLOAD_QUERIES = 8


def chaos_plan(seed: int) -> FaultPlan:
    return FaultPlan(
        [
            FaultSpec(point="bind", error_rate=0.1),
            FaultSpec(point="optimize", error_rate=0.15),
            FaultSpec(point="simulate", error_rate=0.15),
            FaultSpec(point="statsvc", error_rate=0.5),
        ],
        seed=seed,
    )


def chaos_warehouse(catalog, seed: int, collect: bool):
    warehouse = CostIntelligentWarehouse(
        catalog=catalog,
        retention_policy="cost-aware",
        resilience=ResiliencePolicy(
            retry=RetryPolicy(max_attempts=3, seed=seed)
        ),
    )
    warehouse.inject_faults(chaos_plan(seed))
    if collect:
        warehouse.enable_collection(cadence_queries=2)
    return warehouse


def run_chaos(catalog, seed: int, collect: bool):
    warehouse = chaos_warehouse(catalog, seed, collect)
    # failed handles are part of the schedule; serving continues past them
    run_workload(
        warehouse, count=WORKLOAD_QUERIES, seed=seed, tolerate_failures=True
    )
    return warehouse


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_chaos_matrix_reconciles_exactly_and_observation_is_free(seed):
    catalog = synthetic_tpch_catalog(1.0)
    observed = run_chaos(catalog, seed, collect=True)
    bare = run_chaos(catalog, seed, collect=False)

    # -- exact reconciliation in every snapshot, faults notwithstanding --
    snapshots = observed.cost_history.snapshots()
    for snapshot in snapshots:
        DrillDownNavigator(snapshot).reconcile()
    final = observed.collector.collect_now()
    totals = DrillDownNavigator(final).reconcile()
    for tenant, units in totals.items():
        assert units == observed.billing[tenant].total_units

    # -- the collector never perturbs serving ---------------------------- #
    assert list(observed.logs) == list(bare.logs)
    assert {
        tenant: bill.ledger_snapshot()
        for tenant, bill in observed.billing.items()
    } == {
        tenant: bill.ledger_snapshot()
        for tenant, bill in bare.billing.items()
    }
    health = observed.describe_health()
    bare_health = bare.describe_health()
    assert health["resilience"] == bare_health["resilience"]


def test_matrix_exercises_the_retry_leaf():
    """Meta-check: at least one seed bills retries, so the synthetic
    ``(retries)`` drill-down leaf is actually reconciled under fault."""
    for seed in CHAOS_SEEDS:
        catalog = synthetic_tpch_catalog(1.0)
        observed = run_chaos(catalog, seed, collect=True)
        final = observed.collector.collect_now()
        for entry in final.tenants:
            if entry.retry_units:
                assert any(
                    leaf.template == RETRY_LEAF and leaf.units == entry.retry_units
                    for leaf in entry.leaves
                )
                return
    pytest.fail("no seed in the matrix ever billed a retry")


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


def test_observability_chaos_matrix_sweeps_at_least_twenty_seeds():
    assert len(CHAOS_SEEDS) >= 20
