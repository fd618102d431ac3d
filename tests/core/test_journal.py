"""Unit tests for the write-ahead journal and recovery primitives (PR 7).

Covers the durability substrate below the chaos matrix
(``tests/chaos/test_crash_recovery.py``): record round-trips through
pickle, the dyadic fixed-point billing ledger, LSN-level replay
idempotence (crash *during* replay), journal persistence, checkpoint
cadence, and the ``describe_health()`` durability block.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.journal import (
    LEDGER_SCALE,
    AdmissionDecision,
    Checkpoint,
    CheckpointState,
    CostSnapshotTaken,
    DurableRecommendation,
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
    from_ledger_units,
    shares_tuple,
    to_ledger_units,
)
from repro.core.ledger import TenantBill
from repro.core.recovery import apply_entry, recover_warehouse
from repro.core.service import QueryRequest
from repro.core.warehouse import CostIntelligentWarehouse
from repro.dop.constraints import sla_constraint
from repro.errors import JournalError, RecoveryError, ReproError
from repro.obsvc.history import CostLeaf, CostSnapshot, TenantCostSlice
from repro.statsvc.logs import QueryRecord
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
    undo = UndoSnapshot(
        action_name="mv_q5ish",
        kind="materialized-view",
        dollars=0.0,
        physical=False,
        base_tables=("customer", "nation"),
    )
    return [
        QueryServed(record=make_record()),
        AdmissionDecision(tenant="acme", verdict="admit"),
        RetryCharge(tenant="acme", dollars=0.001),
        TuningIntent(
            rec_id=1,
            name="mv_q5ish",
            kind="materialized-view",
            undo=undo,
            tenant_shares=(("acme", 0.75), ("bolt", 0.25)),
        ),
        TuningCommit(
            rec_id=1,
            name="mv_q5ish",
            kind="materialized-view",
            dollars=0.25,
            tenant_shares=(("acme", 0.75), ("bolt", 0.25)),
        ),
        TuningFailed(rec_id=2, name="rc_x", kind="recluster", message="boom"),
        RollbackIntent(
            rec_id=1, name="mv_q5ish", kind="materialized-view", undo=undo
        ),
        RollbackCommit(rec_id=1, name="mv_q5ish", kind="materialized-view"),
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
            state=CheckpointState(
                clock=30.0,
                records=(make_record(),),
                bills=(TenantBill("acme").ledger_snapshot(),),
                verdicts=(("acme", (("admit", 3),)),),
                applied_mvs=(),
                durable_tuning=(
                    DurableRecommendation(
                        rec_id=1,
                        name="mv_q5ish",
                        kind="materialized-view",
                        state="applied",
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
    bill.charge(record)
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
    restored = TenantBill.from_ledger_snapshot(snapshot)
    assert restored.ledger_snapshot() == snapshot


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


def test_journal_load_failure_raises_journal_error(tmp_path):
    path = tmp_path / "garbage.pkl"
    path.write_bytes(b"not a pickle")
    with pytest.raises(JournalError):
        WriteAheadJournal.load(str(path))
    with pytest.raises(JournalError):
        WriteAheadJournal.load(str(tmp_path / "missing.pkl"))


def test_journal_rejects_unknown_record_types():
    journal = WriteAheadJournal()
    with pytest.raises(JournalError):
        journal.append(object())
    with pytest.raises(JournalError):
        WriteAheadJournal(checkpoint_every=0)


def test_lsns_are_sequential_and_gap_free():
    journal = WriteAheadJournal()
    lsns = [
        journal.append(AdmissionDecision(tenant="t", verdict="admit")).lsn
        for _ in range(5)
    ]
    assert lsns == [1, 2, 3, 4, 5]
    assert [e.lsn for e in journal.entries(after_lsn=2)] == [3, 4, 5]


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
    durable = warehouse.ledger.durable_tuning[rec.rec_id]
    assert durable.state == "applied" and durable.undo is not None
    name = durable.name
    assert catalog.has_view(name) and catalog.has_table(name)
    durable.undo.apply(warehouse.database, catalog)
    assert not catalog.has_view(name) and not catalog.has_table(name)
    durable.undo.apply(warehouse.database, catalog)  # second pass: no-op
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
    with a checkpointing journal yields equal ledgers, background spend,
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
                list(warehouse.tuning.background.ledger),
                (catalog.table_names, [view.name for view in catalog.views()]),
            )
        )
    assert states[0] == states[1]
    assert len(states[0][0]) == 46 and len(states[0][1]) == 2
    assert len(states[0][4]) == 2 and states[0][3].durable_tuning
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


def test_reset_cache_stats_zeroes_resilience_counters():
    """The PR 6 audit: reset_cache_stats() missed the retry/degraded
    tallies, so benchmarks reported steady-state cache rates against
    warmup failures."""
    warehouse = CostIntelligentWarehouse(catalog=synthetic_tpch_catalog(1.0))
    stats = warehouse.resilience_stats
    stats.note_retry(0.25)
    stats.note_deadline()
    stats.note_degraded()
    before = stats.snapshot()
    assert before["retries"] == 1 and before["degraded_queries"] == 1
    warehouse.reset_cache_stats()
    after = stats.snapshot()
    assert after["retries"] == 0
    assert after["retry_dollars"] == 0.0
    assert after["deadline_hits"] == 0
    assert after["degraded_queries"] == 0
