"""The query log keeps a window of its newest records plus exact roll-ups.

Served past :data:`~repro.statsvc.logs.WINDOW_RECORDS`, the log holds
only the window, every cadence that counts logged queries keeps running
(it reads the newest query id, not the window's length), the roll-ups
equal a fold over every record served, and restore (a checkpoint over
the window's journaled records), replay and recovering a recovered
journal all rebuild the live log.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.journal import Checkpoint, QueryServed, WriteAheadJournal
from repro.core.service import QueryRequest, QueryState
from repro.core.warehouse import CostIntelligentWarehouse
from repro.dop.constraints import sla_constraint
from repro.errors import JournalError
from repro.obsvc.drilldown import DrillDownNavigator
from repro.obsvc.history import DROPPED_LEAF
from repro.sql.parameterize import parameterize_sql
from repro.statsvc.logs import WINDOW_RECORDS, LogRollups
from repro.testing import RecordingJournal
from repro.tuning.service import TuningPolicy
from repro.util.units import to_ledger_units
from repro.workloads.tpch_stats import synthetic_tpch_catalog

SLA = sla_constraint(20.0)
TENANTS = ("acme", "bolt", "cora")
TEMPLATES = {
    "orders": "SELECT count(*) AS c FROM orders WHERE o_totalprice > {v}",
    "lineitem": "SELECT count(*) AS c FROM lineitem WHERE l_quantity > {v}",
    "region": (
        "SELECT n_name, sum(c_acctbal) AS bal, count(*) AS cnt "
        "FROM customer, nation WHERE c_nationkey = n_nationkey "
        "AND n_regionkey = {v} GROUP BY n_name"
    ),
}
SERVED = 3 * WINDOW_RECORDS + 17
BATCH = 64


def serve(warehouse, count, *, start=0, templates=tuple(TEMPLATES)):
    """Serve ``count`` queries inline in batches, tenants round-robin;
    returns the served records in id order."""
    sessions = {tenant: warehouse.session(tenant=tenant, constraint=SLA) for tenant in TENANTS}
    records = []
    for first in range(start, start + count, BATCH):
        indices = range(first, min(first + BATCH, start + count))
        requests = []
        for i in indices:
            name = templates[i % len(templates)]
            requests.append(
                QueryRequest(
                    sql=TEMPLATES[name].format(v=(i // len(templates)) % 5),
                    template=name,
                    at_time=float(i + 1),
                    simulate=False,
                )
            )
        handles = sessions[TENANTS[(first // BATCH) % len(TENANTS)]].submit_many(requests)
        assert all(handle.state is QueryState.DONE for handle in handles)
        records.extend(handle.result().record for handle in handles)
    return records


def fold_rollups(records):
    """The roll-ups recomputed from every record, outside the log."""
    templates, tenants, newest = {}, {}, {}
    for record in records:
        templates[record.template] = templates.get(record.template, 0) + 1
        key = (record.template, record.tenant)
        tenants[key] = tenants.get(key, 0) + 1
        newest[record.template] = record.sql
    return templates, tenants, newest


def fold_unfolded(records, folded_through):
    """Per tenant, the units of the records the window dropped above
    ``folded_through``, recomputed outside the ledger."""
    unfolded = {}
    for record in records[: max(len(records) - WINDOW_RECORDS, 0)]:
        if record.query_id > folded_through:
            unfolded[record.tenant] = unfolded.get(record.tenant, 0) + to_ledger_units(
                record.dollars
            )
    return unfolded


def unfolded_units(warehouse):
    """The non-zero unfolded units on the warehouse's bills."""
    return {
        tenant: bill.unfolded_units
        for tenant, bill in warehouse.billing.items()
        if bill.unfolded_units
    }


def rollup_dicts(rollups: LogRollups):
    return tuple(
        dict(pairs)
        for pairs in (
            rollups.template_counts,
            rollups.tenant_counts,
            rollups.newest_sql,
        )
    )


def recover_from(journal, catalog, tmp_path, name):
    """Recover a warehouse from a saved and loaded copy of ``journal``."""
    path = tmp_path / f"{name}.pkl"
    journal.save(str(path))
    return CostIntelligentWarehouse.recover(WriteAheadJournal.load(str(path)), catalog=catalog)


def state_of(warehouse):
    """Everything a recovered warehouse must share with the live one."""
    logs = warehouse.logs
    return (
        tuple(logs),
        logs.rollups(),
        {tenant: bill.ledger_snapshot() for tenant, bill in warehouse.billing.items()},
        logs.next_query_id(),
        {name: repr(bound) for name, bound in warehouse.template_queries.items()},
    )


def proposals(warehouse):
    return [
        (rec.action.kind, rec.action.name, rec.tenant_shares)
        for rec in warehouse.tuning.propose()
    ]


def reconciled(warehouse):
    """Collect now, reconcile, and return the snapshot."""
    snapshot = warehouse.collector.collect_now()
    totals = DrillDownNavigator(snapshot).reconcile()
    assert totals == {tenant: bill.total_units for tenant, bill in warehouse.billing.items()}
    return snapshot


@pytest.fixture(scope="module", params=["journal-free", "journaled"])
def served(request):
    """One warehouse served past three windows, with its records."""
    catalog = synthetic_tpch_catalog(1.0)
    journal = None
    if request.param == "journaled":
        journal = RecordingJournal(checkpoint_every=512)
    warehouse = CostIntelligentWarehouse(catalog=catalog, journal=journal)
    if journal is not None:
        warehouse.enable_collection(cadence_queries=256)
    records = serve(warehouse, SERVED)
    return warehouse, records


def test_the_log_holds_a_window_and_exact_rollups(served):
    warehouse, records = served
    logs = warehouse.logs
    assert [r.query_id for r in records] == list(range(1, SERVED + 1))
    assert tuple(logs) == tuple(records[-WINDOW_RECORDS:])
    assert logs.last_query_id == SERVED
    latest = warehouse.cost_history.latest()
    folded = latest.log_len if latest is not None else 0
    assert rollup_dicts(logs.rollups()) == fold_rollups(records)
    assert unfolded_units(warehouse) == fold_unfolded(records, folded)
    assert logs.template_counts() == fold_rollups(records)[0]
    journal = warehouse.journal
    if journal is None:
        # Nothing folded what the window dropped: every dropped unit is
        # on the bills.
        assert sum(unfolded_units(warehouse).values()) == sum(
            to_ledger_units(r.dollars) for r in records[:-WINDOW_RECORDS]
        )
        return
    # Collection every 256 queries folds each record before it leaves.
    assert unfolded_units(warehouse) == {}
    entries = journal.recorded()
    journaled = [e.record.record for e in entries if isinstance(e.record, QueryServed)]
    assert journaled == records
    assert rollup_dicts(logs.rollups()) == fold_rollups(journaled)
    # Each checkpoint names the oldest record of the window it was
    # taken over, the start of the journal's retained tail.
    served_ids, starts = [], []
    for entry in entries:
        if isinstance(entry.record, QueryServed):
            served_ids.append(entry.record.record.query_id)
        elif isinstance(entry.record, Checkpoint):
            starts.append((entry.record.window_start, served_ids[-WINDOW_RECORDS:][:1]))
    assert len(starts) >= SERVED // 512
    assert all([start] == oldest for start, oldest in starts)


def test_restore_and_replay_rebuild_the_live_log(served, tmp_path):
    live, records = served
    catalog = live.catalog
    # Restore: a journal holding only the window's records and the live
    # state as its checkpoint.
    restored_journal = WriteAheadJournal()
    for record in live.logs:
        restored_journal.append(QueryServed(record))
    restored_journal.append(
        Checkpoint(
            checkpoint_id=1,
            window_start=live.logs.first_query_id,
            state=live.ledger.snapshot(),
        )
    )
    # A payload saved before the journal carried a format version is
    # refused, not read as some older shape.
    path = tmp_path / "unversioned.pkl"
    restored_journal.save(str(path))
    payload = pickle.loads(path.read_bytes())
    del payload["format"]
    path.write_bytes(pickle.dumps(payload))
    with pytest.raises(JournalError, match="format"):
        WriteAheadJournal.load(str(path))
    journals = {"restored": restored_journal}
    if live.journal is not None:
        journals["recovered"] = live.journal
        # Replay alone: every record but the checkpoints, from the start.
        replayed = WriteAheadJournal()
        for entry in live.journal.recorded():
            if not isinstance(entry.record, Checkpoint):
                replayed.append(entry.record)
        journals["replayed"] = replayed
    twins = {name: recover_from(j, catalog, tmp_path, name) for name, j in journals.items()}

    expected = state_of(live)
    for name, twin in twins.items():
        assert state_of(twin) == expected, name
        assert len(twin.logs) <= WINDOW_RECORDS, name
    live_snapshot = reconciled(live)
    for name, twin in twins.items():
        assert reconciled(twin) == live_snapshot, name
    live_proposals = proposals(live)
    assert any(kind == "materialized-view" for kind, _, _ in live_proposals)
    for name, twin in twins.items():
        assert proposals(twin) == live_proposals, name


def test_a_recovered_journal_recovers_again(tmp_path):
    """Recover, serve the same queries on both sides, then recover the
    recovered warehouse's journal: the window (refilled from the
    journal, not copied into a checkpoint), roll-ups, bills and next id
    stay bitwise equal to the live warehouse's."""
    catalog = synthetic_tpch_catalog(1.0)
    live = CostIntelligentWarehouse(
        catalog=catalog, journal=WriteAheadJournal(checkpoint_every=512)
    )
    live.enable_collection(cadence_queries=256)
    first = WINDOW_RECORDS + 300
    serve(live, first)
    once = recover_from(live.journal, catalog, tmp_path, "once")
    once.enable_collection(cadence_queries=256)
    assert state_of(once) == state_of(live)
    for warehouse in (live, once):
        serve(warehouse, 700, start=first)
    twice = recover_from(once.journal, catalog, tmp_path, "twice")
    assert twice.last_recovery.checkpoint_id is not None
    assert state_of(twice) == state_of(once) == state_of(live)
    assert twice.cost_history.snapshots() == live.cost_history.snapshots()


def test_collection_enabled_after_drops_reconciles_exactly():
    warehouse = CostIntelligentWarehouse(catalog=synthetic_tpch_catalog(1.0))
    records = serve(warehouse, WINDOW_RECORDS + 300)
    dropped = records[:300]
    warehouse.enable_collection(cadence_queries=256)
    serve(warehouse, 300, start=len(records))
    snapshot = reconciled(warehouse)
    assert snapshot.log_len == WINDOW_RECORDS + 600
    units = {
        entry.tenant: leaf.units
        for entry in snapshot.tenants
        for leaf in entry.leaves
        if leaf.template == DROPPED_LEAF
    }
    expected = {}
    for record in dropped:
        expected[record.tenant] = expected.get(record.tenant, 0) + to_ledger_units(record.dollars)
    assert units == expected


def test_an_enabled_collector_folds_before_the_window_drops(tmp_path):
    """A query cadence longer than the window: the collector snapshots
    ahead of the first drop, journaled before the record that drops, so
    replay drops exactly what the live log did."""
    catalog = synthetic_tpch_catalog(1.0)
    journal = WriteAheadJournal()
    warehouse = CostIntelligentWarehouse(catalog=catalog, journal=journal)
    warehouse.enable_collection(cadence_queries=3 * WINDOW_RECORDS)
    serve(warehouse, WINDOW_RECORDS + 40)
    assert [s.log_len for s in warehouse.cost_history] == [WINDOW_RECORDS]
    assert unfolded_units(warehouse) == {}
    recovered = recover_from(journal, catalog, tmp_path, "forced")
    assert state_of(recovered) == state_of(warehouse)
    snapshot = reconciled(warehouse)
    assert all(leaf.template != DROPPED_LEAF for e in snapshot.tenants for leaf in e.leaves)
    assert reconciled(recovered) == snapshot


def test_cadences_count_queries_past_the_window():
    """Every cadence that counts logged queries keeps running once the
    window is full: they read the newest query id, which keeps growing,
    where the window's length stops."""
    warehouse = CostIntelligentWarehouse(
        catalog=synthetic_tpch_catalog(1.0),
        retention_policy="cost-aware",
        tuning_policy=TuningPolicy(cadence_queries=1024),
    )
    warehouse.enable_collection(cadence_queries=512)
    serve(warehouse, WINDOW_RECORDS, templates=("orders", "lineitem"))
    cycles = warehouse.tuning.cycles_run
    # Past the window, only "region" arrives: the forecast refresh must
    # see it, or its template key scores nothing.
    serve(warehouse, WINDOW_RECORDS, start=WINDOW_RECORDS, templates=("region",))
    total = 2 * WINDOW_RECORDS
    assert len(warehouse.logs) == WINDOW_RECORDS
    assert warehouse.metrics.value("repro_queries_logged_total") == total
    assert [s.log_len for s in warehouse.cost_history] == list(range(512, total + 1, 512))
    assert cycles == WINDOW_RECORDS // 1024
    assert warehouse.tuning.cycles_run == total // 1024
    key = parameterize_sql(TEMPLATES["region"].format(v=0)).template_key
    assert warehouse.frequency.rate_for(key) > 0
    assert "region" in warehouse.frequency.family_rates()


def test_verdicts_and_unfolded_units_survive_save_load_recover(tmp_path):
    """The admission verdicts and the units the window dropped unfolded
    are on the bills, so a saved, loaded and recovered journal rebuilds
    them bit for bit, through a checkpoint and the replayed tail."""
    catalog = synthetic_tpch_catalog(1.0)
    live = CostIntelligentWarehouse(
        catalog=catalog,
        journal=WriteAheadJournal(checkpoint_every=512),
        tenant_budgets={tenant: 1e6 for tenant in TENANTS},
    )
    records = serve(live, WINDOW_RECORDS + 300)
    assert {tenant: bill.verdicts() for tenant, bill in live.billing.items()} == {
        tenant: {"admit": bill.queries} for tenant, bill in live.billing.items()
    }
    assert unfolded_units(live) == fold_unfolded(records, 0) != {}
    recovered = recover_from(live.journal, catalog, tmp_path, "accounts")
    assert recovered.last_recovery.checkpoint_id is not None
    assert {t: b.ledger_snapshot() for t, b in recovered.billing.items()} == {
        t: b.ledger_snapshot() for t, b in live.billing.items()
    }
