"""Crash consistency and shape of the cost history.

The collector journals ``CostSnapshotTaken`` write-ahead of the
in-memory append, so a snapshot whose record landed survives the crash;
the journal and every checkpoint carry the store's own snapshot objects;
journal bytes per served query stay flat as history grows; and the
journal a checkpoint seals stays flat in absolute bytes once the log's
window is full.  Kills
anywhere in generated histories with collection on are
``tests/chaos/test_histories.py``'s.
"""

from __future__ import annotations

import pickle

import pytest

from tests.obsvc.conftest import SLA, T_JOIN, T_ORDERS, TENANTS, run_workload
from repro.core.service import QueryRequest
from repro.core.journal import Checkpoint, CostSnapshotTaken, WriteAheadJournal
from repro.core.resilience import ResiliencePolicy, RetryPolicy
from repro.core.warehouse import CostIntelligentWarehouse
from repro.obsvc.drilldown import DrillDownNavigator
from repro.obsvc.metrics import REGISTERED_METRICS
from repro.statsvc.logs import WINDOW_RECORDS
from repro.testing import (
    FaultPlan,
    FaultSpec,
    RecordingJournal,
    SimulatedCrashError,
    crash_probes,
    kill,
)
from repro.workloads.adhoc import AdhocQueryGenerator
from repro.workloads.tpch_stats import synthetic_tpch_catalog

QUERIES = 6
CADENCE = 2
CHECKPOINT_EVERY = 5


def make_observed(catalog, journal, plan=None):
    warehouse = CostIntelligentWarehouse(catalog=catalog, journal=journal)
    if plan is not None:
        warehouse.inject_faults(plan)
    warehouse.enable_collection(cadence_queries=CADENCE)
    return warehouse


def test_snapshot_taken_mid_crash_is_replayed_not_lost():
    """A crash exactly between the CostSnapshotTaken journal write and
    the in-memory append (crash_post_write on the snapshot's own
    record) must still surface the snapshot after recovery."""
    seed = 0
    catalog = synthetic_tpch_catalog(1.0)
    journal = WriteAheadJournal()
    warehouse = make_observed(catalog, journal)
    # first snapshot lands after CADENCE queries; its journal append is
    # one specific crash_post_write invocation — find it by counting
    probes = FaultPlan(crash_probes(), seed=seed)
    warehouse.inject_faults(probes)
    run_workload(warehouse, count=CADENCE, seed=seed)
    assert len(warehouse.cost_history) == 1
    post_writes = probes.invocations["crash_post_write"]

    catalog = synthetic_tpch_catalog(1.0)
    journal = WriteAheadJournal()
    crashed = make_observed(
        catalog,
        journal,
        FaultPlan([kill("crash_post_write", at=post_writes - 1)], seed=seed),
    )
    with pytest.raises(SimulatedCrashError):
        run_workload(crashed, count=CADENCE, seed=seed)
    # the record hit the journal but memory died before the append
    assert len(crashed.cost_history) == 0

    recovered = CostIntelligentWarehouse.recover(journal, catalog=catalog)
    assert len(recovered.cost_history) == 1
    DrillDownNavigator(recovered.cost_history.latest()).reconcile()


def test_journal_and_checkpoints_reference_the_stored_snapshots(catalog, tmp_path):
    """One representation: every ``CostSnapshotTaken`` record and every
    checkpoint hold the store's own frozen snapshot objects (identity,
    not equality), and the saved journal recovers an equal history."""
    journal = RecordingJournal(checkpoint_every=CHECKPOINT_EVERY)
    warehouse = make_observed(catalog, journal)
    run_workload(warehouse, count=QUERIES)
    warehouse.checkpoint()
    stored = warehouse.cost_history.snapshots()
    assert len(stored) >= 2

    records = [entry.record for entry in journal.recorded()]
    taken = [r for r in records if isinstance(r, CostSnapshotTaken)]
    assert len(taken) == len(stored)
    assert all(r.snapshot is s for r, s in zip(taken, stored))
    checkpoints = [r for r in records if isinstance(r, Checkpoint)]
    assert len(checkpoints) >= 2
    for checkpoint in checkpoints:
        carried = checkpoint.state.cost_history
        assert all(c is s for c, s in zip(carried, stored))
    assert len(checkpoints[-1].state.cost_history) == len(stored)

    path = str(tmp_path / "journal.pkl")
    journal.save(path)
    recovered = CostIntelligentWarehouse.recover(
        WriteAheadJournal.load(path), catalog=catalog
    )
    assert recovered.cost_history.snapshots() == stored


def test_journal_bytes_per_query_stay_flat_as_history_grows(catalog):
    """Every record journaled, pickled together, per served query must
    not grow with the number of queries served: each checkpoint
    references the snapshots (and their cumulative leaves) taken so far
    instead of copying them, so ad-hoc traffic — whose leaf count grows
    with every new shape — costs the same bytes per query after 4N
    queries as after N.  The recording keeps the checkpoints the
    journal's seal drops, so they are all counted."""
    base, batch = 256, 32
    journal = RecordingJournal(checkpoint_every=64)
    warehouse = CostIntelligentWarehouse(catalog=catalog, journal=journal)
    warehouse.enable_collection(cadence_queries=batch)
    session = warehouse.session(tenant=TENANTS[0], constraint=SLA)
    queries = AdhocQueryGenerator(seed=5).batch(4 * base)

    def serve(sqls) -> float:
        """Serve ``sqls`` in collection-sized batches; returns pickled
        journal bytes per query served so far."""
        for start in range(0, len(sqls), batch):
            for handle in session.submit_many(
                [QueryRequest(sql=sql) for sql in sqls[start : start + batch]]
            ):
                handle.result()
        return len(pickle.dumps(journal.recorded())) / len(warehouse.logs)

    early = serve(queries[:base])
    late = serve(queries[base:])
    assert len(warehouse.logs) == 4 * base
    assert len(warehouse.cost_history) == 4 * base // batch
    assert late <= 1.5 * early, (early, late)


def test_sealed_journal_bytes_stay_flat_once_the_window_is_full(catalog):
    """What the journal retains — its newest checkpoint and the records
    since — must not grow with the queries served once the log's window
    is full: the retained journal after 4N queries pickles to at most
    1.5x its bytes after N, in absolute bytes.  An unsealed journal
    would hold every ``QueryServed`` and every checkpoint, 4x and more."""
    batch = 64
    journal = WriteAheadJournal(checkpoint_every=512)
    warehouse = CostIntelligentWarehouse(catalog=catalog, journal=journal)
    warehouse.enable_collection(cadence_queries=512)
    sessions = [warehouse.session(tenant=tenant, constraint=SLA) for tenant in TENANTS]

    def serve(count: int) -> int:
        """Serve ``count`` more queries; returns the retained journal's
        pickled bytes."""
        for first in range(warehouse.logs.last_query_id, count, batch):
            requests = [
                QueryRequest(
                    sql=T_JOIN.format(v=i % 4) if i % 2 else T_ORDERS.format(v=i % 7),
                    at_time=float(i),
                    simulate=False,
                )
                for i in range(first, first + batch)
            ]
            for handle in sessions[first // batch % 2].submit_many(requests):
                handle.result()
        return len(pickle.dumps(journal.entries()))

    early = serve(WINDOW_RECORDS)
    late = serve(4 * WINDOW_RECORDS)
    assert late <= 1.5 * early, (early, late)
    assert warehouse.logs.last_query_id == len(warehouse.logs) * 4
    assert len(journal) > 4 * WINDOW_RECORDS > len(journal.entries())


#: Registry rows a recovered warehouse starts afresh: each counts an
#: event of the process that served it, which no journal record
#: carries.  Every other row reads the ledger and must survive recovery.
PROCESS_LOCAL = {
    "repro_queries_failed_total": "a failed query leaves no journal record",
    "repro_query_latency_seconds": "observed per served query, not journaled",
    "repro_worker_ipc_roundtrip_seconds": "host wall time of this process's pool",
    "repro_deadline_hits_total": "a deadline hit leaves no journal record",
    "repro_degraded_queries_total": "the degraded mark is not in the served record",
    "repro_breaker_state": "breakers are process memory",
    "repro_breaker_opens_total": "breakers are process memory",
    "repro_breaker_consecutive_failures": "breakers are process memory",
    "repro_tuning_cycles_total": "cycles this process ran",
    "repro_worker_pool_size": "the pool is process memory",
    "repro_worker_restarts_total": "the pool is process memory",
    "repro_worker_restaged_tasks_total": "the pool is process memory",
    "repro_worker_warm_task_hits_total": "the pool is process memory",
    "repro_cache_entries": "the plan caches start cold",
    "repro_cache_capacity": "the plan caches are rebuilt from construction kwargs",
    "repro_cache_hits_total": "the plan caches start cold",
    "repro_cache_misses_total": "the plan caches start cold",
    "repro_cache_evictions_total": "the plan caches start cold",
    "repro_timing_cache_hits_total": "the estimator memos start cold",
    "repro_timing_cache_computations_total": "the estimator memos start cold",
    "repro_process_memo_hits_total": "counts the whole interpreter",
    "repro_process_memo_misses_total": "counts the whole interpreter",
    "repro_process_memo_entries": "counts the whole interpreter",
    "repro_process_memo_capacity": "counts the whole interpreter",
    "repro_journal_records_total": "counts the post-recovery checkpoint",
    "repro_journal_records_since_checkpoint": "counts from the post-recovery checkpoint",
    "repro_journal_last_checkpoint_id": "names the post-recovery checkpoint",
}


def _label_sets(*warehouses) -> dict[str, set]:
    """Every label set a row samples on any of ``warehouses``."""
    label_sets: dict[str, set] = {}
    for warehouse in warehouses:
        for sample in warehouse.metrics.collect():
            label_sets.setdefault(sample.name, set()).add(sample.labels)
    return label_sets


def _registry_readings(warehouse, label_sets: dict[str, set]) -> dict:
    """Every ledger-backed row's ``sourced()`` mapping (sourced rows)
    and its ``value()`` per label set of ``label_sets``."""
    metrics = warehouse.metrics
    readings = {}
    for name, spec in REGISTERED_METRICS.items():
        if name in PROCESS_LOCAL:
            continue
        sourced = metrics.sourced(name) if spec.kind == "source" else None
        values = {
            labels: metrics.value(name, **dict(labels))
            for labels in label_sets.get(name, ())
        }
        readings[name] = (sourced, values)
    return readings


def test_a_recovered_warehouse_reports_the_live_registry(catalog):
    """Every registry row but the process-local ones reads the ledger,
    so a recovered warehouse reports what the live one did: served
    queries, spend by component, admission verdicts, retries and
    snapshots included.  The live readings are taken before recovery
    writes its checkpoint."""
    assert set(PROCESS_LOCAL) <= set(REGISTERED_METRICS)
    budgets = dict.fromkeys(TENANTS, 100.0)
    resilience = ResiliencePolicy(retry=RetryPolicy(max_attempts=3, seed=7))
    journal = WriteAheadJournal(checkpoint_every=CHECKPOINT_EVERY)
    live = CostIntelligentWarehouse(
        catalog=catalog, journal=journal, tenant_budgets=budgets, resilience=resilience
    )
    live.inject_faults(
        FaultPlan(
            [FaultSpec(point="simulate", error_rate=1.0, after=1, limit=1)], seed=7
        )
    )
    live.enable_collection(cadence_queries=CADENCE * 2)
    run_workload(live, count=10)
    assert live.faults.fired == {"simulate": 1}
    assert sum(bill.retries for bill in live.billing.values()) == 1
    assert len(live.cost_history) == 2
    expected = _registry_readings(live, _label_sets(live))

    recovered = CostIntelligentWarehouse.recover(
        journal, catalog=catalog, tenant_budgets=budgets, resilience=resilience
    )
    found = _registry_readings(recovered, _label_sets(live, recovered))
    differing = {
        name: {"live": expected[name], "recovered": found[name]}
        for name in expected
        if found[name] != expected[name]
    }
    assert not differing, f"{sorted(differing)}: {differing}"
    retry_dollars = live.describe_health()["resilience"]["retry_dollars"]
    assert recovered.describe_health()["resilience"]["retry_dollars"] == retry_dollars > 0
