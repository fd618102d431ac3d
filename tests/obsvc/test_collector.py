"""Scheduled collection: cadence, determinism, and checkpoint
participation (PR 9 tentpole + determinism satellite)."""

from __future__ import annotations

import pytest

from tests.obsvc.conftest import run_workload
from repro.core.journal import WriteAheadJournal
from repro.core.warehouse import CostIntelligentWarehouse
from repro.obsvc.collector import CollectionError, CollectionPolicy
from repro.obsvc.drilldown import DrillDownNavigator
from repro.workloads.tpch_stats import synthetic_tpch_catalog


def test_policy_validation():
    with pytest.raises(CollectionError):
        CollectionPolicy(cadence_queries=0)
    with pytest.raises(CollectionError):
        CollectionPolicy(cadence_seconds=0.0)
    assert not CollectionPolicy().recurring
    assert CollectionPolicy(cadence_queries=2).recurring


def test_collection_is_off_by_default(catalog):
    warehouse = CostIntelligentWarehouse(catalog=catalog)
    run_workload(warehouse, count=4)
    assert not warehouse.collector.enabled
    assert len(warehouse.cost_history) == 0
    assert warehouse.metrics.value("repro_cost_snapshots_total") == 0


def test_query_cadence_schedules_snapshots(catalog):
    warehouse = CostIntelligentWarehouse(catalog=catalog)
    warehouse.enable_collection(cadence_queries=2)
    assert warehouse.collector.enabled
    run_workload(warehouse, count=6)
    snapshots = warehouse.cost_history.snapshots()
    assert [s.seq for s in snapshots] == [1, 2, 3]
    assert [s.log_len for s in snapshots] == [2, 4, 6]
    assert warehouse.metrics.value("repro_cost_snapshots_total") == 3


def test_virtual_time_cadence_schedules_snapshots(catalog):
    warehouse = CostIntelligentWarehouse(catalog=catalog)
    warehouse.enable_collection(cadence_seconds=25.0)
    run_workload(warehouse, count=6)  # at_time = 0, 10, ..., 50
    snapshots = warehouse.cost_history.snapshots()
    assert snapshots, "virtual-time cadence never fired"
    # never wall time: snapshot instants are workload clock readings
    clocks = [s.clock for s in snapshots]
    assert clocks == sorted(clocks)
    for earlier, later in zip(clocks, clocks[1:]):
        assert later - earlier >= 25.0


def test_collect_now_forces_a_snapshot(catalog):
    warehouse = CostIntelligentWarehouse(catalog=catalog)
    run_workload(warehouse, count=2)
    snapshot = warehouse.collector.collect_now()  # no policy configured
    assert snapshot.seq == 1
    assert snapshot.log_len == 2
    assert len(warehouse.cost_history) == 1
    DrillDownNavigator(snapshot).reconcile()


def test_snapshots_reconcile_against_the_bills(catalog):
    warehouse = CostIntelligentWarehouse(catalog=catalog)
    warehouse.enable_collection(cadence_queries=2)
    run_workload(warehouse, count=6)
    final = warehouse.collector.collect_now()
    totals = DrillDownNavigator(final).reconcile()
    for tenant, units in totals.items():
        assert units == warehouse.billing[tenant].total_units
    # every scheduled snapshot reconciles too, not just the final one
    for snapshot in warehouse.cost_history.snapshots():
        DrillDownNavigator(snapshot).reconcile()


def test_identical_seeded_runs_yield_bitwise_identical_histories():
    def run():
        catalog = synthetic_tpch_catalog(1.0)
        warehouse = CostIntelligentWarehouse(catalog=catalog)
        warehouse.enable_collection(cadence_queries=2)
        run_workload(warehouse, count=6, seed=3)
        return warehouse

    first, second = run(), run()
    assert first.cost_history.snapshots() == second.cost_history.snapshots()
    assert len(first.cost_history) > 0


def test_checkpoint_round_trips_the_history(catalog):
    journal = WriteAheadJournal()
    warehouse = CostIntelligentWarehouse(catalog=catalog, journal=journal)
    twin = CostIntelligentWarehouse(catalog=catalog)  # never crashes
    for served in (warehouse, twin):
        served.enable_collection(cadence_queries=2)
        run_workload(served, count=4)  # the last snapshot is at the end
    assert len(warehouse.cost_history) == 2
    warehouse.checkpoint()

    recovered = CostIntelligentWarehouse.recover(journal, catalog=catalog)
    assert (
        recovered.cost_history.snapshots() == warehouse.cost_history.snapshots()
    )
    # The cadence is measured from the newest snapshot in the restored
    # history, so the resumed schedule collects exactly when the
    # uncrashed twin does, fed the same queries.
    recovered.enable_collection(cadence_queries=2)
    for served in (recovered, twin):
        run_workload(served, count=4, seed=1)

    def cadence(served):
        return [(s.seq, s.log_len, s.clock) for s in served.cost_history]

    assert cadence(recovered) == cadence(twin)
    assert [log_len for _, log_len, _ in cadence(twin)] == [2, 4, 6, 8]
