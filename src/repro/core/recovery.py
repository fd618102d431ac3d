"""Crash recovery: checkpoint restore + ordered journal replay.

``CostIntelligentWarehouse.recover(journal, ...)`` builds a fresh
warehouse over the surviving catalog/database (durable storage shared
with the crashed process) and calls :func:`recover_warehouse`, which

1. restores the latest :class:`~repro.core.journal.Checkpoint` into
   the warehouse's ledger (:meth:`repro.core.ledger.Ledger.restore`)
   with its log window, the journal's ``QueryServed`` records before
   it, which its roll-ups already count, so they are not applied;
2. replays every journal record after the checkpoint in LSN order
   through :meth:`repro.core.ledger.Ledger.apply` — the same transition
   function live serving and tuning commit through, so there is no
   replay copy of any effect to keep in step (redo: each record was
   journaled *before* the state it describes mutated, so replay is
   always sufficient) — skipping any entry at or below the restored LSN:
   replay is idempotent, so a crash *during* recovery just recovers
   again;
3. resolves in-doubt recommendations: an apply whose
   :class:`~repro.core.journal.TuningCommit` never landed is rolled
   back via the journaled :class:`~repro.core.journal.UndoSnapshot`
   (idempotent — safe whether the catalog mutation finished or not) and
   closed by applying a ``TuningFailed``; a rollback whose commit never
   landed is completed *forward* by applying the ``RollbackCommit`` it
   was about to write (the reversal was requested — finish it, meter
   it).  No recommendation is ever left ``APPLYING`` or
   ``ROLLING_BACK``, and the recovered warehouse's tuning service lists
   (and can roll back) every one the journal applied.

Nothing else is re-primed.  What the warehouse derives from its ledger
is read from it: the next query id from the newest logged record, the
collector's cadence from the newest cost snapshot, the next
checkpoint id from the journal's newest checkpoint, and the tuning
advisor's template bindings from the log on every read.  Serving caches
restart cold (``warm_cache`` re-warms them from the recovered forecast).

In-doubt *roll-back* resolution is deliberately unbilled: the apply
never committed, so the tenant sees no background charge —
exactly-once billing against an uncrashed run.  In-doubt
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
    JournalEntry,
    RollbackCommit,
    TuningFailed,
    WriteAheadJournal,
)
from repro.errors import RecoveryError
from repro.tuning.service import RecommendationState

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

    Reads only what a sealed journal keeps: its newest checkpoint (if
    any), the log window's records before it and the records after it.
    The warehouse must have been constructed over the *same*
    catalog / database objects the crashed process was mutating; the
    journal is not attached here (the caller attaches it after recovery
    so replay itself journals nothing).
    """
    ledger = warehouse.ledger
    if ledger.journal is not None:
        raise RecoveryError(
            "recover onto a warehouse without an attached journal "
            "(attach it after recovery)"
        )
    if ledger.logs.last_query_id or ledger.billing or ledger.recommendations:
        raise RecoveryError(
            "recovery needs a fresh warehouse: logs, billing, or tuning "
            "state already present"
        )
    report = RecoveryReport()
    checkpoint_entry = journal.last_checkpoint()
    if checkpoint_entry is not None:
        ledger.restore(checkpoint_entry.record.state, journal.checkpoint_window())
        report.checkpoint_id = checkpoint_entry.record.checkpoint_id
        ledger.applied_lsn = checkpoint_entry.lsn

    for entry in journal.entries(after_lsn=ledger.applied_lsn):
        if apply_entry(warehouse, entry):
            report.records_replayed += 1

    _resolve_in_doubt(warehouse, report)
    return report


def apply_entry(
    warehouse: "CostIntelligentWarehouse", entry: JournalEntry
) -> bool:
    """Apply one journal entry's state transition; False if skipped.

    Idempotent at the LSN level: entries at or below the ledger's
    ``applied_lsn`` watermark are already reflected in memory (from the
    checkpoint or an earlier replay pass) and are skipped, so
    re-applying a record after a crash-during-replay never double-logs
    or double-bills.
    """
    ledger = warehouse.ledger
    if entry.lsn <= ledger.applied_lsn:
        return False
    ledger.applied_lsn = entry.lsn
    ledger.apply(entry.record)
    return True


# --------------------------------------------------------------------- #
# In-doubt resolution
# --------------------------------------------------------------------- #
def _resolve_in_doubt(
    warehouse: "CostIntelligentWarehouse", report: RecoveryReport
) -> None:
    ledger = warehouse.ledger
    for rec in ledger.recommendations.values():
        if rec.state is RecommendationState.APPLYING:
            # The commit never landed: the apply is void.  Undo the
            # (possibly partial) catalog mutation via the journaled
            # snapshot — idempotent, so "crashed before mutating" and
            # "crashed after mutating" both land on the prior state.
            # Nothing is billed: the tenant never got the action.
            rec.undo.apply(rec.action, warehouse.database, warehouse.catalog)
            ledger.apply(
                TuningFailed(rec_id=rec.rec_id, message="in doubt at recovery")
            )
            rec.resolution = "back"
            report.in_doubt_back += 1
        elif rec.state is RecommendationState.ROLLING_BACK:
            # The rollback was requested and its undo snapshot is
            # durable: complete it forward by applying the commit record
            # the live path was about to write — the same metering,
            # through the same code.
            rec.undo.apply(rec.action, warehouse.database, warehouse.catalog)
            ledger.apply(RollbackCommit(rec_id=rec.rec_id))
            rec.resolution = "forward"
            report.in_doubt_forward += 1
