"""Crash recovery: checkpoint restore + ordered journal replay.

``CostIntelligentWarehouse.recover(journal, ...)`` builds a fresh
warehouse over the surviving catalog/database (durable storage shared
with the crashed process) and calls :func:`recover_warehouse`, which

1. restores the latest :class:`~repro.core.journal.Checkpoint` (query
   log, clock, per-tenant bills in integral ledger units, admission
   verdict counters, the applied-MV registry, durable tuning
   bookkeeping, the background ledger, the next recommendation id);
2. replays every journal record after the checkpoint in LSN order
   (redo: each record was journaled *before* the state it describes
   mutated, so replay is always sufficient), skipping any entry at or
   below the restored LSN — replay is idempotent, so a crash *during*
   recovery just recovers again;
3. resolves in-doubt tuning records: an apply whose
   :class:`~repro.core.journal.TuningCommit` never landed is rolled
   back via the journaled :class:`~repro.core.journal.UndoSnapshot`
   (idempotent — safe whether the catalog mutation finished or not) and
   closed as ``failed``; a rollback whose commit never landed is
   completed *forward* (the reversal was requested — finish it, meter
   it).  No record is ever left ``applying`` or ``rolling_back``.
4. re-derives the advisor's representative template bindings from the
   recovered log (serving caches themselves restart cold — they are
   pure derived state; ``warm_cache`` re-warms them from the recovered
   forecast).

In-doubt *roll-back* resolution is deliberately unbilled: the apply
never committed, so the tenant sees no charge and the background ledger
no entry — exactly-once billing against an uncrashed run.  In-doubt
*roll-forward* completion meters the rollback dollars exactly as the
live path would have.

One documented loss: clock advances made at admission time for queries
that never finalized die with the process (their timestamps were never
journaled).  The log's append-order clamp makes this monotone-safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.journal import (
    AdmissionDecision,
    Checkpoint,
    CostSnapshotTaken,
    JournalEntry,
    QueryServed,
    RetryCharge,
    RollbackCommit,
    RollbackIntent,
    TuningCommit,
    TuningFailed,
    TuningIntent,
    WriteAheadJournal,
    shares_dict,
)
from repro.errors import RecoveryError, ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.warehouse import CostIntelligentWarehouse


@dataclass
class RecoveryReport:
    """What one recovery pass restored and resolved."""

    checkpoint_id: int | None = None
    records_replayed: int = 0
    in_doubt_forward: int = 0
    in_doubt_back: int = 0

    def describe(self) -> str:
        return (
            f"recovery: checkpoint {self.checkpoint_id}, "
            f"{self.records_replayed} records replayed, in-doubt "
            f"{self.in_doubt_forward} forward / {self.in_doubt_back} back"
        )


def recover_warehouse(
    warehouse: "CostIntelligentWarehouse", journal: WriteAheadJournal
) -> RecoveryReport:
    """Restore ``warehouse`` (which must be fresh) from ``journal``.

    The warehouse must have been constructed over the *same* catalog /
    database objects the crashed process was mutating; the journal is
    not attached here (the caller attaches it after recovery so replay
    itself journals nothing).
    """
    if warehouse.journal is not None:
        raise RecoveryError(
            "recover onto a warehouse without an attached journal "
            "(attach it after recovery)"
        )
    if len(warehouse.logs) or warehouse.billing or warehouse._durable_tuning:
        raise RecoveryError(
            "recovery needs a fresh warehouse: logs, billing, or tuning "
            "state already present"
        )
    report = RecoveryReport()
    checkpoint_entry = journal.last_checkpoint()
    after_lsn = 0
    if checkpoint_entry is not None:
        assert isinstance(checkpoint_entry.record, Checkpoint)
        _restore_checkpoint(warehouse, checkpoint_entry.record)
        report.checkpoint_id = checkpoint_entry.record.checkpoint_id
        after_lsn = checkpoint_entry.lsn
    warehouse._applied_lsn = after_lsn

    for entry in journal.entries(after_lsn=after_lsn):
        if apply_entry(warehouse, entry):
            report.records_replayed += 1

    _resolve_in_doubt(warehouse, report)
    _advance_ids(warehouse)
    _rebuild_template_bindings(warehouse)
    return report


# --------------------------------------------------------------------- #
# Checkpoint restore
# --------------------------------------------------------------------- #
def _restore_checkpoint(
    warehouse: "CostIntelligentWarehouse", checkpoint: Checkpoint
) -> None:
    from repro.core.service import TenantBill

    state = checkpoint.state
    warehouse.logs.restore(state.records)
    warehouse.clock = state.clock
    warehouse.billing = {
        snapshot[0]: TenantBill.from_ledger_snapshot(snapshot)
        for snapshot in state.bills
    }
    warehouse.admission.restore_counts(
        {tenant: dict(counts) for tenant, counts in state.verdicts}
    )
    # In place: the planning pipeline rewrites over this same mapping.
    warehouse._applied_mvs.clear()
    warehouse._applied_mvs.update(
        (candidate.name, candidate) for candidate in state.applied_mvs
    )
    warehouse._durable_tuning = {
        durable.rec_id: durable.copy() for durable in state.durable_tuning
    }
    if state.ledger or state.next_rec_id > 1:
        service = warehouse.tuning
        service.background.ledger.extend(state.ledger)
        service._next_id = max(service._next_id, state.next_rec_id)
    # Trailing-default field: checkpoints written before the
    # observability subsystem carry no cost history.
    warehouse.cost_history.restore_state(getattr(state, "cost_history", ()))


# --------------------------------------------------------------------- #
# Replay
# --------------------------------------------------------------------- #
def apply_entry(
    warehouse: "CostIntelligentWarehouse", entry: JournalEntry
) -> bool:
    """Apply one journal entry's state transition; False if skipped.

    Idempotent at the LSN level: entries at or below the warehouse's
    ``_applied_lsn`` watermark are already reflected in memory (from the
    checkpoint or an earlier replay pass) and are skipped, so
    re-applying a record after a crash-during-replay never double-logs
    or double-bills.
    """
    if entry.lsn <= warehouse._applied_lsn:
        return False
    record = entry.record
    warehouse._applied_lsn = entry.lsn
    if isinstance(record, Checkpoint):
        # Only the *latest* checkpoint is restored; an older one in the
        # tail carries state the replayed records already rebuild.
        return False
    warehouse._note_durable(record)
    if isinstance(record, QueryServed):
        served = record.record
        if len(warehouse.logs) and served.query_id <= warehouse.logs.last_query_id:
            return False  # already present (defensive idempotence)
        warehouse.clock = max(warehouse.clock, served.timestamp)
        warehouse._apply_served(served)
        warehouse._account(served)
        return True
    if isinstance(record, AdmissionDecision):
        warehouse.admission.restore_verdict(record.tenant, record.verdict)
        return True
    if isinstance(record, RetryCharge):
        warehouse._bill_for(record.tenant).charge_retry(record.dollars)
        return True
    if isinstance(record, CostSnapshotTaken):
        # Write-ahead: the snapshot was journaled before the in-memory
        # history append, so replay (idempotent by seq) redoes the
        # append a crash between the two lost.
        warehouse.cost_history.apply_record(record)
        return True
    if isinstance(record, (TuningIntent, TuningFailed, RollbackIntent)):
        return True  # durable bookkeeping only (done above)
    if isinstance(record, TuningCommit):
        _replay_tuning_commit(warehouse, record)
        return True
    if isinstance(record, RollbackCommit):
        _replay_rollback_commit(warehouse, record)
        return True
    raise RecoveryError(
        f"no replay handler for journal record {type(record).__name__!r}"
    )


def _replay_tuning_commit(
    warehouse: "CostIntelligentWarehouse", record: TuningCommit
) -> None:
    if record.kind == "materialized-view" and record.candidate is not None:
        warehouse._register_applied_mv(record.candidate)
    _meter_shares(warehouse, record.dollars, record.tenant_shares)
    _ledger_append(
        warehouse, record.name, record.kind, record.dollars, record.physical
    )


def _replay_rollback_commit(
    warehouse: "CostIntelligentWarehouse", record: RollbackCommit
) -> None:
    if record.kind == "materialized-view" and record.candidate is not None:
        warehouse._unregister_applied_mv(record.candidate)
    _meter_shares(warehouse, record.dollars, record.tenant_shares)
    _ledger_append(
        warehouse,
        record.name,
        f"rollback-{record.kind}",
        record.dollars,
        record.physical,
    )


def _meter_shares(
    warehouse: "CostIntelligentWarehouse",
    dollars: float,
    tenant_shares: tuple[tuple[str, float], ...],
) -> None:
    """Mirror of ``TuningService._meter`` for replay (same share split,
    same per-tenant rounding, so recovered bills are bit-identical)."""
    if dollars <= 0.0:
        return
    shares = shares_dict(tenant_shares) or {"default": 1.0}
    for tenant, share in shares.items():
        warehouse._bill_for(tenant).charge_background(dollars * share)


def _ledger_append(
    warehouse: "CostIntelligentWarehouse",
    name: str,
    kind: str,
    dollars: float,
    physical: bool,
) -> None:
    from repro.tuning.background import LedgerEntry

    warehouse.tuning.background.ledger.append(
        LedgerEntry(
            action_name=name,
            kind=kind,
            dollars=dollars,
            applied_physically=physical,
        )
    )


# --------------------------------------------------------------------- #
# In-doubt resolution
# --------------------------------------------------------------------- #
def _resolve_in_doubt(
    warehouse: "CostIntelligentWarehouse", report: RecoveryReport
) -> None:
    for durable in warehouse._durable_tuning.values():
        if durable.state == "applying":
            # The commit never landed: the apply is void.  Undo the
            # (possibly partial) catalog mutation via the journaled
            # snapshot — idempotent, so "crashed before mutating" and
            # "crashed after mutating" both land on the prior state.
            # Nothing is billed: the tenant never got the action.
            if durable.undo is None:
                raise RecoveryError(
                    f"in-doubt apply #{durable.rec_id} ({durable.name}) "
                    "journaled no undo snapshot"
                )
            durable.undo.apply(warehouse.database, warehouse.catalog)
            durable.state = "failed"
            durable.resolution = "back"
            report.in_doubt_back += 1
        elif durable.state == "rolling_back":
            # The rollback was requested and its undo snapshot is
            # durable: complete it forward, with the same metering and
            # ledger entry the live path would have produced.
            if durable.undo is not None:
                durable.undo.apply(warehouse.database, warehouse.catalog)
            if durable.kind == "materialized-view":
                warehouse._applied_mvs.pop(durable.name, None)
            _meter_shares(warehouse, durable.dollars, durable.tenant_shares)
            _ledger_append(
                warehouse,
                durable.name,
                f"rollback-{durable.kind}",
                durable.dollars,
                durable.physical,
            )
            durable.state = "rolled_back"
            durable.resolution = "forward"
            report.in_doubt_forward += 1


# --------------------------------------------------------------------- #
# Derived state
# --------------------------------------------------------------------- #
def _advance_ids(warehouse: "CostIntelligentWarehouse") -> None:
    warehouse.logs.restore_ids()
    if warehouse._durable_tuning:
        next_id = max(warehouse._durable_tuning) + 1
        service = warehouse.tuning
        service._next_id = max(service._next_id, next_id)


def _rebuild_template_bindings(warehouse: "CostIntelligentWarehouse") -> None:
    """Re-derive the advisor's representative bound query per template
    family from the recovered log (the last served instance of each),
    bound under the *current* catalog version — the same bindings
    continued serving would remember.  Best-effort: a family whose SQL
    no longer binds (out-of-band schema change) is skipped."""
    for template, records in warehouse.logs.by_template().items():
        sql = records[-1].sql
        try:
            bound = warehouse.planning.rewrite_mv(warehouse.binder.bind_sql(sql))
        except ReproError:
            continue
        warehouse._remember_template(template, bound)
