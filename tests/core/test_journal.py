"""Unit tests for the write-ahead journal and recovery primitives (PR 7).

Covers the durability substrate below the chaos matrix
(``tests/chaos/test_crash_recovery.py``): record round-trips through
pickle, the dyadic fixed-point billing ledger, LSN-level replay
idempotence (crash *during* replay), journal persistence, checkpoint
cadence, and the ``describe_health()`` durability block.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.core.journal import (
    FORMAT_VERSION,
    AdmissionDecision,
    Checkpoint,
    CheckpointState,
    CostSnapshotTaken,
    JournalEntry,
    QueryServed,
    RECORD_TYPES,
    RetryCharge,
    RollbackCommit,
    RollbackIntent,
    TuningCommit,
    TuningFailed,
    TuningIntent,
    UndoSnapshot,
    WriteAheadJournal,
    shares_tuple,
)
from repro.core.ledger import TenantBill
from repro.core.recovery import apply_entry, recover_warehouse
from repro.util.units import LEDGER_SCALE, from_ledger_units, to_ledger_units
from repro.core.service import QueryRequest
from repro.core.warehouse import CostIntelligentWarehouse
from repro.dop.constraints import sla_constraint
from repro.errors import JournalError, RecoveryError, ReproError
from repro.obsvc.history import CostLeaf, CostSnapshot, TenantCostSlice
from repro.statsvc import logs as logs_module
from repro.statsvc.logs import LogRollups, QueryRecord
from repro.testing import RecordingJournal
from repro.tuning.mv import MVCandidate
from repro.tuning.service import Recommendation, RecommendationState
from repro.tuning.whatif import TuningReport
from repro.util.rng import derive_rng
from repro.workloads.tpch_stats import synthetic_tpch_catalog

SLA = sla_constraint(20.0)
T_JOIN = (
    "SELECT n_name, sum(c_acctbal) AS bal, count(*) AS cnt "
    "FROM customer, nation WHERE c_nationkey = n_nationkey "
    "AND n_regionkey = {v} GROUP BY n_name"
)
T_ORDERS = "SELECT count(*) AS c FROM orders WHERE o_totalprice > {v}"


def make_record(query_id: int = 1, tenant: str = "acme") -> QueryRecord:
    return QueryRecord(
        query_id=query_id,
        timestamp=10.0 * query_id,
        sql=T_JOIN.format(v=query_id % 4),
        template="q5ish",
        tables=("customer", "nation"),
        columns=("customer.c_acctbal", "nation.n_name"),
        join_edges=(("customer.c_nationkey", "nation.n_nationkey"),),
        group_keys=("n_name",),
        dollars=0.000123456789,
        machine_seconds=1.5,
        tenant=tenant,
    )


def sample_records() -> list:
    undo = UndoSnapshot(dollars=0.0, physical=False)
    candidate = MVCandidate(
        name="mv_q5ish",
        base_tables=("customer", "nation"),
        join_edges=(("customer.c_nationkey", "nation.n_nationkey"),),
        group_by=("n_name",),
        agg_sources=("sum(c_acctbal)",),
    )
    report = TuningReport(
        candidate=candidate,
        savings_per_hour=0.5,
        cost_per_hour=0.125,
        one_time_dollars=0.25,
    )
    shares = (("acme", 0.75), ("bolt", 0.25))
    return [
        QueryServed(record=make_record()),
        AdmissionDecision(tenant="acme", verdict="admit"),
        RetryCharge(tenant="acme", dollars=0.001),
        TuningIntent(
            rec_id=1, report=report, undo=undo, tenant_shares=shares
        ),
        TuningCommit(rec_id=1),
        TuningFailed(rec_id=2, message="boom"),
        RollbackIntent(rec_id=1),
        RollbackCommit(rec_id=1),
        CostSnapshotTaken(
            CostSnapshot(
                seq=1,
                clock=30.0,
                log_len=3,
                tenants=(
                    TenantCostSlice(
                        tenant="acme",
                        queries=3,
                        machine_seconds=4.5,
                        serving_units=to_ledger_units(0.000370370367),
                        background_units=0,
                        background_actions=0,
                        retry_units=0,
                        retries=0,
                        leaves=(
                            CostLeaf("q5ish", "P0", "Scan[source_scan]", 123456),
                        ),
                    ),
                ),
            )
        ),
        Checkpoint(
            checkpoint_id=1,
            window_start=1,
            state=CheckpointState(
                clock=30.0,
                log_rollups=LogRollups(
                    template_counts=(("q5ish", 1),),
                    tenant_counts=((("q5ish", "acme"), 1),),
                    newest_sql=(("q5ish", make_record().sql),),
                ),
                bills=(TenantBill("acme", admits=3, unfolded_units=17),),
                recommendations=(
                    Recommendation(
                        rec_id=1,
                        report=report,
                        state=RecommendationState.APPLIED,
                        tenant_shares=dict(shares),
                        undo=undo,
                    ),
                ),
            ),
        ),
    ]


# --------------------------------------------------------------------- #
# Fixed-point billing (satellite: float-drift audit)
# --------------------------------------------------------------------- #
def test_ledger_units_round_trip_is_lossless_for_dollar_amounts():
    """2^80 units/dollar sits below the mantissa of any amount >= 2^-27
    dollars, so conversion drops no bits at all."""
    for dollars in (0.000123456789, 0.1, 1.0 / 3.0, 7.25, 1234.5678):
        assert from_ledger_units(to_ledger_units(dollars)) == dollars
    assert LEDGER_SCALE == 1 << 80  # a power of two: conversion is a shift


def test_tenant_bill_accumulates_in_integral_units():
    bill = TenantBill("acme")
    record = make_record()
    bill.charge_served(record)
    assert bill.dollars == record.dollars  # single charge: exact
    bill.charge_background(0.25)
    bill.charge_retry(0.001)
    assert bill.total_dollars == from_ledger_units(
        to_ledger_units(record.dollars)
        + to_ledger_units(0.25)
        + to_ledger_units(0.001)
    )
    snapshot = bill.ledger_snapshot()
    assert snapshot[0] == "acme"
    # Scalars only: a shallow copy is an independent snapshot.
    restored = copy.copy(bill)
    bill.charge_retry(0.001)
    assert restored.ledger_snapshot() == snapshot != bill.ledger_snapshot()


def test_replayed_billing_equals_live_billing_to_the_last_bit():
    """The satellite regression: journal replay reproduces TenantBill
    totals bitwise, not approximately."""
    catalog = synthetic_tpch_catalog(1.0)
    journal = WriteAheadJournal()
    live = CostIntelligentWarehouse(catalog=catalog, journal=journal)
    session = live.session(tenant="acme", constraint=SLA)
    for i in range(4):
        session.submit(
            QueryRequest(sql=T_JOIN.format(v=i % 4), at_time=10.0 * i)
        ).result()
    live.ledger.commit(
        RetryCharge(tenant="acme", dollars=0.0001230000000000000081)
    )
    live_snapshots = {t: b.ledger_snapshot() for t, b in live.billing.items()}

    recovered = CostIntelligentWarehouse.recover(journal, catalog=catalog)
    assert {
        t: b.ledger_snapshot() for t, b in recovered.billing.items()
    } == live_snapshots
    for tenant, bill in recovered.billing.items():
        assert bill.dollars == live.billing[tenant].dollars
        assert bill.total_dollars == live.billing[tenant].total_dollars
        assert bill.machine_seconds == live.billing[tenant].machine_seconds


# --------------------------------------------------------------------- #
# Record round-trips (satellite: serialization)
# --------------------------------------------------------------------- #
def test_every_record_type_survives_pickle():
    samples = sample_records()
    assert {type(r) for r in samples} == set(RECORD_TYPES)
    for record in samples:
        clone = pickle.loads(pickle.dumps(record))
        assert type(clone) is type(record)
        if not isinstance(record, Checkpoint):
            assert clone == record


def test_journal_save_load_round_trip(tmp_path):
    journal = WriteAheadJournal(checkpoint_every=8)
    for record in sample_records():
        journal.append(record)
    path = str(tmp_path / "wal.pkl")
    journal.save(path)
    loaded = WriteAheadJournal.load(path)
    assert len(loaded) == len(journal)
    assert loaded.checkpoint_every == 8
    assert loaded.last_checkpoint_id == journal.last_checkpoint_id
    assert [e.lsn for e in loaded.entries()] == [
        e.lsn for e in journal.entries()
    ]
    assert loaded.next_checkpoint_id() == journal.next_checkpoint_id()
    assert loaded.checkpoint_window() == journal.checkpoint_window() == [make_record()]


def test_journal_load_failure_raises_journal_error(tmp_path):
    path = tmp_path / "garbage.pkl"
    path.write_bytes(b"not a pickle")
    with pytest.raises(JournalError):
        WriteAheadJournal.load(str(path))
    with pytest.raises(JournalError):
        WriteAheadJournal.load(str(tmp_path / "missing.pkl"))
    # Well-formed pickles that hold no journal: a list, None, an
    # entries field that is no list, LSNs with a gap, a first entry
    # past LSN 1 with no checkpoint retained, a record of unknown type,
    # and a ``checkpoint_every`` that is a string or a bool (``True`` is
    # an int, and used to run as 1).  Each is of the current format, so
    # it is refused for its own fault.
    admit = AdmissionDecision(tenant="t", verdict="admit")
    for payload in (
        [JournalEntry(lsn=1, record=admit)],
        None,
        {"entries": 5},
        {"entries": [JournalEntry(1, admit), JournalEntry(3, admit)]},
        {"entries": [JournalEntry(2, admit)]},
        {"entries": [JournalEntry(1, "a record")]},
        {"entries": [], "checkpoint_every": "8"},
        {"entries": [], "checkpoint_every": True},
    ):
        if isinstance(payload, dict):
            payload["format"] = FORMAT_VERSION
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(JournalError):
            WriteAheadJournal.load(str(path))
    # One flipped byte inside a saved journal.
    journal = WriteAheadJournal()
    for record in sample_records():
        journal.append(record)
    journal.save(str(path))
    data = bytearray(path.read_bytes())
    data[40] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(JournalError):
        WriteAheadJournal.load(str(path))


def test_journal_rejects_unknown_record_types():
    journal = WriteAheadJournal()
    with pytest.raises(JournalError):
        journal.append(object())
    with pytest.raises(JournalError):
        WriteAheadJournal(checkpoint_every=0)
    with pytest.raises(JournalError):
        WriteAheadJournal(checkpoint_every=True)


def test_lsns_are_sequential_and_gap_free():
    journal = WriteAheadJournal()
    lsns = [
        journal.append(AdmissionDecision(tenant="t", verdict="admit")).lsn
        for _ in range(5)
    ]
    assert lsns == [1, 2, 3, 4, 5]
    assert [e.lsn for e in journal.entries(after_lsn=2)] == [3, 4, 5]


# --------------------------------------------------------------------- #
# Sealing: a checkpoint drops every entry before it
# --------------------------------------------------------------------- #
def empty_checkpoint(checkpoint_id: int, window_start: int = 0) -> Checkpoint:
    return Checkpoint(
        checkpoint_id=checkpoint_id,
        window_start=window_start,
        state=CheckpointState(
            clock=0.0,
            log_rollups=LogRollups((), (), ()),
            bills=(),
        ),
    )


def sealed_journal() -> WriteAheadJournal:
    """Three records, a checkpoint, two records, a checkpoint, one record:
    LSNs 1-3, 4 (checkpoint 1), 5-6, 7 (checkpoint 2), 8."""
    journal = WriteAheadJournal(checkpoint_every=3)
    for i in range(1, 9):
        record = (
            empty_checkpoint(journal.next_checkpoint_id())
            if i in (4, 7)
            else AdmissionDecision(tenant="t", verdict="admit")
        )
        assert journal.append(record).lsn == i
    return journal


def test_lsns_stay_gap_free_across_seals():
    journal = sealed_journal()
    entries = journal.entries()
    assert [e.lsn for e in entries] == [7, 8]
    assert entries[0] is journal.last_checkpoint()
    assert journal.last_checkpoint_id == 2 and journal.next_checkpoint_id() == 3
    assert journal.records_since_checkpoint == 1
    assert journal.append(empty_checkpoint(3)).lsn == 9
    assert [e.lsn for e in journal.entries()] == [9]
    assert journal.records_since_checkpoint == 0


def test_len_is_the_newest_lsn_not_the_retained_count():
    journal = sealed_journal()
    assert len(journal) == 8 and len(journal.entries()) == 2
    assert len(WriteAheadJournal()) == 0


def test_entries_after_an_lsn_below_the_seal_raise():
    journal = sealed_journal()
    assert [e.lsn for e in journal.entries(after_lsn=6)] == [7, 8]
    assert [e.lsn for e in journal.entries(after_lsn=7)] == [8]
    assert journal.entries(after_lsn=8) == []
    for sealed in (0, 3, 5):
        with pytest.raises(JournalError):
            journal.entries(after_lsn=sealed)
    # A journal that never checkpointed keeps every record.
    unsealed = WriteAheadJournal()
    unsealed.append(AdmissionDecision(tenant="t", verdict="admit"))
    assert [e.lsn for e in unsealed.entries(after_lsn=0)] == [1]


def test_sealed_journal_survives_save_and_load(tmp_path):
    journal = sealed_journal()
    path = str(tmp_path / "wal.pkl")
    journal.save(path)
    loaded = WriteAheadJournal.load(path)
    assert loaded.entries() == journal.entries()
    assert len(loaded) == len(journal) == 8
    assert loaded.checkpoint_every == 3
    assert loaded.last_checkpoint_id == 2
    assert loaded.records_since_checkpoint == 1
    assert loaded.append(empty_checkpoint(loaded.next_checkpoint_id())).lsn == 9


def test_a_payload_of_another_format_is_refused(tmp_path):
    """There is one format: a payload without ``format`` (as saves
    wrote it before the journal was versioned) or with another version
    raises, and nothing is read from it — version 1 (whose tuning
    records copied the action beside its report) and version 2 (whose
    checkpoints kept verdict counters beside tuple-encoded bills and
    unfolded units in the log's roll-ups) among them."""
    journal = sealed_journal()
    path = tmp_path / "wal.pkl"
    journal.save(str(path))
    payload = pickle.loads(path.read_bytes())
    assert payload["format"] == FORMAT_VERSION
    for version in (None, FORMAT_VERSION + 1, 0, 1, 2, True, "1"):
        if version is None:
            del payload["format"]
        else:
            payload["format"] = version
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(JournalError, match="format"):
            WriteAheadJournal.load(str(path))


# --------------------------------------------------------------------- #
# The log window is the journal's retained tail, not a checkpoint field
# --------------------------------------------------------------------- #
def served(query_id: int) -> QueryServed:
    return QueryServed(record=make_record(query_id))


def test_a_checkpoint_seals_behind_its_windows_oldest_record():
    """Entries before the window's first ``QueryServed`` are dropped;
    the window's records, older checkpoints among them, stay."""
    admit = AdmissionDecision(tenant="t", verdict="admit")
    journal = WriteAheadJournal()
    for record in (admit, served(1), admit, served(2)):
        journal.append(record)
    journal.append(empty_checkpoint(1, window_start=2))  # LSN 5
    assert [e.lsn for e in journal.entries()] == [4, 5]
    for record in (served(3), admit, served(4)):
        journal.append(record)
    journal.append(empty_checkpoint(2, window_start=3))  # LSN 9
    assert [e.lsn for e in journal.entries()] == [6, 7, 8, 9]
    assert journal.last_checkpoint().lsn == 9 and journal.last_checkpoint_id == 2
    assert journal.records_since_checkpoint == 0
    journal.append(served(5))
    journal.append(empty_checkpoint(3, window_start=4))  # LSN 11
    entries = journal.entries()
    assert [e.lsn for e in entries] == [8, 9, 10, 11]
    assert isinstance(entries[1].record, Checkpoint)  # older, inside the window
    assert journal.last_checkpoint() is entries[-1]
    assert journal.checkpoint_window() == [make_record(4), make_record(5)]
    journal.append(admit)
    assert journal.records_since_checkpoint == 1
    assert journal.checkpoint_window() == [make_record(4), make_record(5)]


def test_a_window_start_the_journal_does_not_retain_raises(tmp_path):
    journal = WriteAheadJournal()
    journal.append(served(1))
    with pytest.raises(JournalError, match="query 7"):
        journal.append(empty_checkpoint(1, window_start=7))
    assert [e.lsn for e in journal.entries()] == [1]  # nothing sealed
    # A loaded journal whose newest checkpoint lost its window refuses
    # to recover; nothing falls back.
    journal.append(empty_checkpoint(1, window_start=1))
    path = tmp_path / "wal.pkl"
    journal.save(str(path))
    payload = pickle.loads(path.read_bytes())
    payload["entries"] = payload["entries"][1:]
    path.write_bytes(pickle.dumps(payload))
    loaded = WriteAheadJournal.load(str(path))
    with pytest.raises(JournalError, match="query 1"):
        loaded.checkpoint_window()
    with pytest.raises(JournalError):
        CostIntelligentWarehouse.recover(loaded, catalog=synthetic_tpch_catalog(1.0))


def test_recovering_the_sealed_journal_equals_replaying_every_record(monkeypatch):
    """Recovery from the sealed journal (its newest checkpoint, the log
    window before it and the tail) bills bit for bit what replaying
    every non-checkpoint record from LSN 1 into an unsealed journal
    bills.  An eight-record window makes 23 queries overflow it, so the
    seal drops entries."""
    monkeypatch.setattr(logs_module, "WINDOW_RECORDS", 8)
    catalog = synthetic_tpch_catalog(1.0)
    journal = RecordingJournal(checkpoint_every=5)
    live = CostIntelligentWarehouse(catalog=catalog, journal=journal)
    sessions = [live.session(tenant=t, constraint=SLA) for t in ("acme", "bolt")]
    for i in range(23):
        sql = T_JOIN.format(v=i % 4) if i % 3 else T_ORDERS.format(v=1000 * i)
        sessions[i % 2].submit(QueryRequest(sql=sql, at_time=10.0 * i)).result()
    live.ledger.commit(RetryCharge(tenant="bolt", dollars=0.0004))
    recorded = journal.recorded()
    assert sum(isinstance(e.record, Checkpoint) for e in recorded) >= 4
    assert len(journal.entries()) < len(recorded)

    unsealed = WriteAheadJournal()
    for entry in recorded:
        if not isinstance(entry.record, Checkpoint):
            unsealed.append(entry.record)
    sealed = CostIntelligentWarehouse.recover(journal, catalog=catalog)
    replayed = CostIntelligentWarehouse.recover(unsealed, catalog=catalog)
    assert sealed.last_recovery.checkpoint_id is not None
    assert replayed.last_recovery.checkpoint_id is None

    def bills(warehouse):
        return {t: b.ledger_snapshot() for t, b in warehouse.billing.items()}

    assert bills(sealed) == bills(replayed) == bills(live)
    assert list(sealed.logs) == list(replayed.logs) == list(live.logs)


def test_shares_helpers_are_canonical():
    assert shares_tuple({"b": 0.25, "a": 0.75}) == (("a", 0.75), ("b", 0.25))
    assert shares_tuple(None) == ()
    assert dict(shares_tuple({"b": 0.25, "a": 0.75})) == {"a": 0.75, "b": 0.25}


# --------------------------------------------------------------------- #
# Replay idempotence (satellite: crash during replay)
# --------------------------------------------------------------------- #
def test_apply_entry_skips_at_or_below_the_watermark():
    """Re-applying a replayed record after a crash-during-replay never
    double-logs or double-bills: the LSN watermark makes apply_entry
    idempotent."""
    catalog = synthetic_tpch_catalog(1.0)
    warehouse = CostIntelligentWarehouse(catalog=catalog)
    entry = JournalEntry(lsn=1, record=QueryServed(record=make_record()))
    assert apply_entry(warehouse, entry) is True
    assert len(warehouse.logs) == 1
    assert warehouse.billing["acme"].queries == 1
    # Replaying the same entry (crash between watermark bump and the
    # next record) is a no-op.
    assert apply_entry(warehouse, entry) is False
    assert len(warehouse.logs) == 1
    assert warehouse.billing["acme"].queries == 1


def test_recovery_is_idempotent_under_restart():
    """Recovering, crashing (discarding the result), and recovering
    again from the same journal yields identical state — replay has no
    side effects on the journal or the catalog."""
    catalog = synthetic_tpch_catalog(1.0)
    journal = WriteAheadJournal()
    live = CostIntelligentWarehouse(catalog=catalog, journal=journal)
    session = live.session(tenant="acme", constraint=SLA)
    for i in range(3):
        session.submit(
            QueryRequest(sql=T_JOIN.format(v=i % 4), at_time=10.0 * i)
        ).result()
    length_before = len(journal)

    first = CostIntelligentWarehouse(catalog=catalog)
    recover_warehouse(first, journal)  # no post-recovery checkpoint taken
    assert len(journal) == length_before  # replay journals nothing
    second = CostIntelligentWarehouse(catalog=catalog)
    recover_warehouse(second, journal)
    assert [r.query_id for r in second.logs] == [r.query_id for r in first.logs]
    assert {t: b.ledger_snapshot() for t, b in second.billing.items()} == {
        t: b.ledger_snapshot() for t, b in first.billing.items()
    }


def test_recover_refuses_a_dirty_warehouse():
    catalog = synthetic_tpch_catalog(1.0)
    journal = WriteAheadJournal()
    live = CostIntelligentWarehouse(catalog=catalog, journal=journal)
    live.session(tenant="acme", constraint=SLA).submit(
        QueryRequest(sql=T_JOIN.format(v=0), at_time=0.0)
    ).result()
    with pytest.raises(RecoveryError):
        recover_warehouse(live, journal)  # journal attached + state present
    with pytest.raises(TypeError):
        # recover() attaches the journal itself; passing journal= again
        # collides with its first parameter.
        CostIntelligentWarehouse.recover(
            journal, catalog=catalog, journal=journal
        )


def test_undo_snapshot_apply_is_idempotent():
    """Resolving the same in-doubt MV apply twice (crash during
    recovery) is safe: every undo step checks current state first."""
    catalog = synthetic_tpch_catalog(1.0)
    journal = WriteAheadJournal()
    warehouse = CostIntelligentWarehouse(catalog=catalog, journal=journal)
    session = warehouse.session(tenant="acme", constraint=SLA)
    for i in range(4):
        session.submit(
            QueryRequest(
                sql=T_JOIN.format(v=i % 4), template="q5ish", at_time=10.0 * i
            )
        ).result()
    recs = [
        r
        for r in warehouse.tuning.propose()
        if r.action.kind == "materialized-view"
    ]
    assert recs
    rec = recs[0]
    if not rec.accepted:
        warehouse.tuning.accept(rec)
    warehouse.tuning.apply(rec)
    assert rec.applied and rec.undo is not None
    name = rec.action.name
    assert catalog.has_view(name) and catalog.has_table(name)
    rec.undo.apply(rec.action, warehouse.database, catalog)
    assert not catalog.has_view(name) and not catalog.has_table(name)
    rec.undo.apply(rec.action, warehouse.database, catalog)  # second pass: no-op
    assert not catalog.has_view(name) and not catalog.has_table(name)


# --------------------------------------------------------------------- #
# Checkpoint cadence + observability (satellite: health block)
# --------------------------------------------------------------------- #
def test_checkpoint_every_rolls_checkpoints_automatically():
    catalog = synthetic_tpch_catalog(1.0)
    journal = WriteAheadJournal(checkpoint_every=2)
    warehouse = CostIntelligentWarehouse(catalog=catalog, journal=journal)
    session = warehouse.session(tenant="acme", constraint=SLA)
    for i in range(4):
        session.submit(
            QueryRequest(sql=T_JOIN.format(v=i % 4), at_time=10.0 * i)
        ).result()
    assert journal.last_checkpoint_id is not None
    assert journal.records_since_checkpoint < 2 + 1
    # Recovery starts from the checkpoint, not LSN 0.
    recovered = CostIntelligentWarehouse.recover(journal, catalog=catalog)
    assert recovered.last_recovery.checkpoint_id is not None
    assert len(recovered.logs) == 4


def test_journaled_serving_is_bit_identical_to_journal_free(
    history_warehouse, drive_ledger_history
):
    """The journal records and nothing else: one seeded two-tenant
    workload — serving, then a retry charge, collected snapshots, an MV
    apply, a failed apply and a rollback — run with ``journal=None`` and
    with a checkpointing journal yields equal ledgers, recommendations,
    catalogs and plans.  (``journal=None`` is the same ``commit`` minus
    the append, and there is one undo path: this is what holds both.)"""
    journal = WriteAheadJournal(checkpoint_every=32)
    states = []
    for attached in (None, journal):
        warehouse = history_warehouse(attached)
        sessions = [
            warehouse.session(tenant=tenant, constraint=SLA)
            for tenant in ("acme", "bolt")
        ]
        rng = derive_rng(7, "journal-parity")
        plans = []
        for i in range(40):
            if rng.random() < 0.5:  # recurring: exact-cache hits
                sql = T_JOIN.format(v=int(rng.integers(4)))
            else:  # literal-varying: skeleton hits
                sql = T_ORDERS.format(v=int(rng.integers(1, 400_000)))
            choice = (
                sessions[int(rng.integers(2))]
                .submit(QueryRequest(sql=sql, at_time=10.0 * i))
                .result()
                .choice
            )
            # DopPlan equality covers DOPs, the full estimate and verdict.
            plans.append((choice.join_tree.describe(), choice.dop_plan))
        drive_ledger_history(warehouse, t0=400.0)
        bills = {t: b.ledger_snapshot() for t, b in warehouse.billing.items()}
        catalog = warehouse.catalog
        states.append(
            (
                list(warehouse.logs),
                bills,
                plans,
                warehouse.ledger.snapshot(),
                warehouse.tuning.recommendations,
                (catalog.table_names, [view.name for view in catalog.views()]),
            )
        )
    assert states[0] == states[1]
    assert len(states[0][0]) == 46 and len(states[0][1]) == 2
    assert [rec.state.value for rec in states[0][3].recommendations] == [
        "rolled_back",
        "failed",
    ]
    assert journal.last_checkpoint_id is not None  # >= 1 checkpoint taken


def test_checkpoint_requires_a_journal():
    warehouse = CostIntelligentWarehouse(catalog=synthetic_tpch_catalog(1.0))
    with pytest.raises(ReproError):
        warehouse.checkpoint()


def test_describe_health_durability_block_tracks_the_journal():
    catalog = synthetic_tpch_catalog(1.0)
    journal = WriteAheadJournal()
    warehouse = CostIntelligentWarehouse(catalog=catalog, journal=journal)
    session = warehouse.session(tenant="acme", constraint=SLA)
    session.submit(QueryRequest(sql=T_JOIN.format(v=0), at_time=0.0)).result()
    block = warehouse.describe_health()["durability"]
    assert block["journaled"] is True
    assert block["journal_records"] == len(journal) > 0
    assert block["recovered"] is False

    recovered = CostIntelligentWarehouse.recover(journal, catalog=catalog)
    block = recovered.describe_health()["durability"]
    assert block["recovered"] is True
    assert block["records_replayed"] == recovered.last_recovery.records_replayed
    assert block["last_checkpoint_id"] == journal.last_checkpoint_id
    assert block["in_doubt_forward"] == 0 and block["in_doubt_back"] == 0
