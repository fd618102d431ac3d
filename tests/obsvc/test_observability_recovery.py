"""Crash consistency of the cost history (PR 9 recovery satellite).

The collector journals ``CostSnapshotTaken`` write-ahead of the
in-memory append, so the history participates in the same kill-point
discipline as serving: crash at every reachable crash probe, recover,
resume, and the final history is bitwise identical to the uncrashed
reference — while serving state holds all its own invariants.
"""

from __future__ import annotations

import pickle

import pytest

from tests.obsvc.conftest import SLA, TENANTS, run_workload, workload_steps
from repro.core.service import QueryRequest
from repro.core.journal import Checkpoint, CostSnapshotTaken, WriteAheadJournal
from repro.core.warehouse import CostIntelligentWarehouse
from repro.obsvc.drilldown import DrillDownNavigator
from repro.testing import FaultPlan, SimulatedCrashError, crash_probes, kill
from repro.workloads.adhoc import AdhocQueryGenerator
from repro.workloads.tpch_stats import synthetic_tpch_catalog

RECOVERY_SEEDS = range(4)
QUERIES = 6
CADENCE = 2
CHECKPOINT_EVERY = 5
#: The journal-write probes; ``crash_pre_commit`` brackets tuning
#: commits, which this untuned workload never reaches.
WRITE_CRASH_POINTS = ("crash_pre_write", "crash_post_write")


def make_observed(catalog, journal, plan=None):
    warehouse = CostIntelligentWarehouse(catalog=catalog, journal=journal)
    if plan is not None:
        warehouse.inject_faults(plan)
    warehouse.enable_collection(cadence_queries=CADENCE)
    return warehouse


def resume(warehouse, seed: int) -> None:
    """Serve only the steps the crashed process never finalized (the
    recovered log length is the resume cursor, as in the chaos suite)."""
    done = len(warehouse.logs)
    sessions = {
        tenant: warehouse.session(tenant=tenant, constraint=SLA)
        for tenant in TENANTS
    }
    for tenant, template, sql, at in workload_steps(QUERIES, seed)[done:]:
        handle = sessions[tenant].submit(
            QueryRequest(sql=sql, template=template, at_time=at)
        )
        handle.result()


def reference_run(seed: int):
    catalog = synthetic_tpch_catalog(1.0)
    probes = FaultPlan(crash_probes(), seed=seed)
    warehouse = make_observed(
        catalog, WriteAheadJournal(checkpoint_every=CHECKPOINT_EVERY), probes
    )
    run_workload(warehouse, count=QUERIES, seed=seed)
    return (
        warehouse.cost_history.snapshots(),
        {t: b.ledger_snapshot() for t, b in warehouse.billing.items()},
        dict(probes.invocations),
    )


def crash_recover_resume(seed: int, point: str, at: int, ref_history):
    """One matrix cell: crash at (point, at), recover, resume; returns
    the resumed warehouse after asserting crash consistency."""
    catalog = synthetic_tpch_catalog(1.0)
    journal = WriteAheadJournal(checkpoint_every=CHECKPOINT_EVERY)
    crashed = make_observed(
        catalog, journal, FaultPlan([kill(point, at=at)], seed=seed)
    )
    with pytest.raises(SimulatedCrashError):
        run_workload(crashed, count=QUERIES, seed=seed)

    recovered = CostIntelligentWarehouse.recover(journal, catalog=catalog)
    # the history survived as a prefix of the reference, every snapshot
    # intact and reconciled (never a torn half-written snapshot)
    state = recovered.cost_history.snapshots()
    assert state == ref_history[: len(state)], (
        f"kill({point!r}, at={at}) tore the history"
    )
    for snapshot in recovered.cost_history.snapshots():
        DrillDownNavigator(snapshot).reconcile()

    recovered.enable_collection(cadence_queries=CADENCE)
    resume(recovered, seed)
    return recovered


@pytest.mark.parametrize("seed", RECOVERY_SEEDS)
def test_kill_points_leave_the_history_crash_consistent(seed):
    ref_history, ref_bills, reachable = reference_run(seed)
    assert ref_history, "reference run collected nothing"

    for point in WRITE_CRASH_POINTS:
        assert reachable.get(point, 0) >= 1, f"{point} never invoked"

    for point in WRITE_CRASH_POINTS:
        for at in range(reachable[point]):
            resumed = crash_recover_resume(seed, point, at, ref_history)

            # serving converges on the uncrashed reference, bitwise (a
            # kill can land on a snapshot's own journal write, so the
            # *history* may legitimately have different boundaries —
            # but never different money)
            assert {
                t: b.ledger_snapshot() for t, b in resumed.billing.items()
            } == ref_bills, f"billing diverged after kill({point!r}, at={at})"

            # crash + recovery + resume is itself deterministic: an
            # identical second crashed run converges bitwise
            twin = crash_recover_resume(seed, point, at, ref_history)
            assert (
                twin.cost_history.snapshots()
                == resumed.cost_history.snapshots()
            ), f"kill({point!r}, at={at}) resume is non-deterministic"

            final = resumed.collector.collect_now()
            totals = DrillDownNavigator(final).reconcile()
            for tenant, units in totals.items():
                assert units == resumed.billing[tenant].total_units


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
    journal = WriteAheadJournal(checkpoint_every=CHECKPOINT_EVERY)
    warehouse = make_observed(catalog, journal)
    run_workload(warehouse, count=QUERIES)
    warehouse.checkpoint()
    stored = warehouse.cost_history.snapshots()
    assert len(stored) >= 2

    records = [entry.record for entry in journal.entries()]
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
    """The pickled journal per served query must not grow with the
    number of queries served: each checkpoint references the snapshots
    (and their cumulative leaves) taken so far instead of copying them,
    so ad-hoc traffic — whose leaf count grows with every new shape —
    costs the same bytes per query after 4N queries as after N."""
    base, batch = 256, 32
    journal = WriteAheadJournal(checkpoint_every=64)
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
        return len(pickle.dumps(journal.entries())) / len(warehouse.logs)

    early = serve(queries[:base])
    late = serve(queries[base:])
    assert len(warehouse.logs) == 4 * base
    assert len(warehouse.cost_history) == 4 * base // batch
    assert late <= 1.5 * early, (early, late)
