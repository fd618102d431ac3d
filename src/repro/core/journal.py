"""Write-ahead journal of the warehouse's authoritative state transitions.

The cost-intelligence loop is only as trustworthy as the ledger behind
it: a crash that double-bills a tenant, loses logged queries that feed
the Statistics Service forecast, or strands a tuning recommendation in
``APPLYING`` with the catalog half-mutated corrupts every downstream
decision (admission, cost-aware retention, auto-tuning break-even
gates).  This module is the durability substrate:

- a small hierarchy of frozen, picklable **journal records** — one per
  authoritative transition: a served query's log append plus its billing
  delta (:class:`QueryServed`), an admission verdict
  (:class:`AdmissionDecision`), a retry's modeled compute
  (:class:`RetryCharge`), a collected cost snapshot
  (:class:`CostSnapshotTaken`), and the tuning lifecycle edges
  (:class:`TuningIntent` / :class:`TuningCommit` / :class:`TuningFailed`
  and their rollback mirrors), plus periodic :class:`Checkpoint`\\ s;
- :class:`UndoSnapshot` — a *declarative*, picklable capture of how to
  reverse a tuning action, journaled in the intent record **before**
  the catalog mutates: the one undo representation, executed by a live
  rollback and by recovery's in-doubt resolution alike;
- :class:`WriteAheadJournal` — the append-ordered, LSN-stamped record
  store the ledger (:mod:`repro.core.ledger`) writes to (write-ahead:
  the record lands before the in-memory state it describes mutates, so
  redo replay is always sufficient).

The catalog/database object is treated as *durable storage shared with
the crashed process* (it survives, possibly half-mutated); the journal
therefore records warehouse-memory transitions, not storage bytes, and
recovery (:mod:`repro.core.recovery`) replays memory while resolving
storage via the journaled undo snapshots.

Billing is journaled and accumulated in **integral ledger units** of
``1 / LEDGER_SCALE`` dollars (a dyadic scale, so float -> unit
conversion is exact and replayed totals match live totals to the last
bit, independent of accumulation order).
"""

from __future__ import annotations

import pickle
import threading
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.errors import JournalError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.catalog.catalog import Catalog
    from repro.engine.database import Database
    from repro.statsvc.logs import QueryRecord


# Fixed-point billing units live in :mod:`repro.util.units` so that
# modules below the core layer (e.g. :mod:`repro.core.resilience`,
# which may import only ``repro.errors`` and ``repro.util``) can meter
# dollars in the same ledger units.  Re-exported here because the
# journal is the canonical consumer and existing call sites import
# them from this module.
from repro.util.units import (  # noqa: F401  (re-export)
    LEDGER_SCALE,
    from_ledger_units,
    to_ledger_units,
)


# --------------------------------------------------------------------- #
# Undo snapshots (journaled before the catalog mutation)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class UndoSnapshot:
    """Declarative, picklable capture of how to reverse a tuning action.

    Captured by the background executor *before* anything mutates
    (:meth:`~repro.tuning.background.BackgroundComputeService.capture_undo`)
    as plain data, so the same object serves a live rollback and
    recovery's resolution of an in-doubt apply.  :meth:`apply` is
    idempotent: every step checks current state first, so resolving the
    same in-doubt record twice (a crash during recovery) is safe.
    """

    action_name: str
    kind: str  # "materialized-view" | "recluster"
    dollars: float  # what executing the reversal costs
    physical: bool
    base_tables: tuple[str, ...] = ()
    table: str | None = None
    prior_entry: object | None = None  # recluster: prior catalog entry
    prior_stored: object | None = None  # recluster (physical): prior table

    def apply(self, database: "Database | None", catalog: "Catalog") -> None:
        """Physically reverse the action; no-op for any step already done."""
        if self.kind == "materialized-view":
            name = self.action_name
            if (
                self.physical
                and database is not None
                and name in database.table_names
            ):
                database.drop_table(name)
            elif catalog.has_table(name):
                catalog.drop_table(name)
            if catalog.has_view(name):
                catalog.drop_view(name)
            return
        if self.kind == "recluster":
            assert self.table is not None and self.prior_entry is not None
            if (
                self.physical
                and database is not None
                and self.prior_stored is not None
            ):
                database.replace_table_storage(self.table, self.prior_stored)
            catalog.register_table(self.prior_entry, replace_existing=True)
            return
        raise JournalError(f"no undo semantics for action kind {self.kind!r}")


# --------------------------------------------------------------------- #
# Journal records
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class QueryServed:
    """One served query: its Statistics Service log record *is* its
    billing delta (dollars + machine-seconds land on ``record.tenant``)."""

    record: "QueryRecord"


@dataclass(frozen=True)
class AdmissionDecision:
    """One admission verdict for one query from one tenant.

    ``DENY`` decisions journal *only* this record — a denied query must
    leave no billing or log records (no timestamp, no clock advance),
    so replay restores exactly the verdict counters and nothing else.
    """

    tenant: str
    verdict: str  # AdmissionVerdict.value


@dataclass(frozen=True)
class RetryCharge:
    """One resilience retry's modeled compute, billed to the tenant."""

    tenant: str
    dollars: float


@dataclass(frozen=True)
class CostSnapshotTaken:
    """One scheduled cost-observability snapshot landed.

    Committed by the :class:`~repro.obsvc.collector.SnapshotCollector`:
    journaled before the in-memory
    :class:`~repro.obsvc.history.CostHistoryStore` append, and replay
    re-appends idempotently by ``snapshot.seq``.  Like
    :class:`QueryServed`, the record carries the immutable object
    itself — the frozen :class:`~repro.obsvc.history.CostSnapshot` the
    store keeps — so this module imports nothing of the observability
    layer and a snapshot is never copied into a second form.
    """

    snapshot: object  # repro.obsvc.history.CostSnapshot


@dataclass(frozen=True)
class TuningIntent:
    """A tuning apply is about to mutate the catalog.

    Journaled *before* the mutation, carrying the pre-mutation
    :class:`UndoSnapshot` — the write-ahead half of the two-record
    apply protocol.  An intent without a matching :class:`TuningCommit`
    at recovery time is *in doubt* and is rolled back via the snapshot.
    """

    rec_id: int
    name: str
    kind: str
    undo: UndoSnapshot
    tenant_shares: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True)
class TuningCommit:
    """The apply's catalog mutation completed; replay re-registers the
    MV with the serving rewriter, meters the one-time dollars into the
    originating tenants' bills, and re-creates the background ledger
    entry."""

    rec_id: int
    name: str
    kind: str
    dollars: float
    tenant_shares: tuple[tuple[str, float], ...] = ()
    candidate: object | None = None  # MVCandidate for the serving rewriter
    physical: bool = False


@dataclass(frozen=True)
class TuningFailed:
    """The apply failed *in-process* (typed error, handled live): the
    recommendation moved ``APPLYING -> FAILED`` with nothing mutated.
    Replay just closes the durable record — no state effects."""

    rec_id: int
    name: str
    kind: str
    message: str = ""


@dataclass(frozen=True)
class RollbackIntent:
    """A rollback of an applied action is about to mutate the catalog.

    Carries the *original* apply-time :class:`UndoSnapshot`: if the
    process dies mid-rollback, recovery completes it forward (the user
    asked for the rollback) by re-applying the snapshot idempotently.
    """

    rec_id: int
    name: str
    kind: str
    undo: UndoSnapshot | None
    dollars: float = 0.0
    tenant_shares: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True)
class RollbackCommit:
    """The rollback completed; replay unregisters the MV, meters the
    reversal dollars, and re-creates the ledger entry."""

    rec_id: int
    name: str
    kind: str
    dollars: float = 0.0
    tenant_shares: tuple[tuple[str, float], ...] = ()
    candidate: object | None = None
    physical: bool = False


@dataclass
class DurableRecommendation:
    """Journal-derived bookkeeping for one recommendation's lifecycle.

    Maintained by the tuning records' handlers in
    :meth:`repro.core.ledger.Ledger.apply` — the same code live and on
    replay — so the recovered warehouse knows which applies committed,
    which are in doubt, and how to undo them.
    ``state`` is one of ``applying`` / ``applied`` / ``failed`` /
    ``rolling_back`` / ``rolled_back``; recovery guarantees no record
    is ever left in an in-doubt state (``applying`` / ``rolling_back``).
    """

    rec_id: int
    name: str
    kind: str
    state: str
    undo: UndoSnapshot | None = None
    dollars: float = 0.0
    tenant_shares: tuple[tuple[str, float], ...] = ()
    candidate: object | None = None
    physical: bool = False
    #: Set by recovery when this record was resolved from an in-doubt
    #: state: "forward" (rollback completed) or "back" (apply undone).
    resolution: str | None = None

    @property
    def in_doubt(self) -> bool:
        return self.state in ("applying", "rolling_back")

    def copy(self) -> "DurableRecommendation":
        return replace(self)


@dataclass(frozen=True)
class CheckpointState:
    """A consistent snapshot of the warehouse's journaled state.

    Everything replay would otherwise rebuild from the full journal:
    the query log, the clock, per-tenant bills (as integral ledger-unit
    snapshots), admission verdict counters, the applied-MV registry,
    the durable tuning bookkeeping, the background-compute ledger, the
    next recommendation id, and the cost history.
    """

    clock: float
    records: tuple["QueryRecord", ...]
    bills: tuple[tuple, ...]  # TenantBill.ledger_snapshot() tuples
    verdicts: tuple[tuple[str, tuple[tuple[str, int], ...]], ...]
    applied_mvs: tuple[object, ...]  # MVCandidate values
    durable_tuning: tuple[DurableRecommendation, ...]
    ledger: tuple[object, ...] = ()  # background LedgerEntry values
    next_rec_id: int = 1
    #: ``CostHistoryStore.snapshots()``: references to the store's own
    #: frozen snapshots, so successive checkpoints share them.
    cost_history: tuple = ()


@dataclass(frozen=True)
class Checkpoint:
    """A checkpoint record inline in the journal: recovery restores the
    latest one, then replays only the records after it."""

    checkpoint_id: int
    state: CheckpointState


#: Every concrete record type the journal accepts (and the order they
#: are documented in) — used by validation and the round-trip tests.
RECORD_TYPES = (
    QueryServed,
    AdmissionDecision,
    RetryCharge,
    CostSnapshotTaken,
    TuningIntent,
    TuningCommit,
    TuningFailed,
    RollbackIntent,
    RollbackCommit,
    Checkpoint,
)


# --------------------------------------------------------------------- #
# The journal
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class JournalEntry:
    """One appended record, stamped with its log sequence number (LSN,
    1-based, gap-free, append-ordered)."""

    lsn: int
    record: object


class WriteAheadJournal:
    """Append-ordered, LSN-stamped store of warehouse state transitions.

    The warehouse appends a record *before* applying the in-memory
    mutation it describes (redo semantics), so replaying the journal
    from the latest :class:`Checkpoint` restores a bit-identical
    ledger.  Thread-safe; ``checkpoint_every`` (records between
    checkpoints) drives the warehouse's automatic checkpointing —
    ``None`` disables it (explicit ``warehouse.checkpoint()`` only).
    """

    def __init__(self, *, checkpoint_every: int | None = None) -> None:
        if checkpoint_every is not None and checkpoint_every < 1:
            raise JournalError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.checkpoint_every = checkpoint_every
        self._entries: list[JournalEntry] = []
        self._lock = threading.Lock()
        self._next_checkpoint_id = 1
        self._last_checkpoint_lsn = 0  # 0 = no checkpoint yet

    def append(self, record: object) -> JournalEntry:
        """Append one record; returns its LSN-stamped entry."""
        if not isinstance(record, RECORD_TYPES):
            raise JournalError(
                f"unknown journal record type {type(record).__name__!r}"
            )
        with self._lock:
            entry = JournalEntry(lsn=len(self._entries) + 1, record=record)
            self._entries.append(entry)
            if isinstance(record, Checkpoint):
                self._last_checkpoint_lsn = entry.lsn
            return entry

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def entries(self, *, after_lsn: int = 0) -> list[JournalEntry]:
        """All entries with ``lsn > after_lsn``, in LSN order."""
        with self._lock:
            return self._entries[after_lsn:]

    def last_checkpoint(self) -> JournalEntry | None:
        """The most recent :class:`Checkpoint` entry, if any."""
        with self._lock:
            if self._last_checkpoint_lsn == 0:
                return None
            return self._entries[self._last_checkpoint_lsn - 1]

    @property
    def last_checkpoint_id(self) -> int | None:
        entry = self.last_checkpoint()
        if entry is None:
            return None
        assert isinstance(entry.record, Checkpoint)
        return entry.record.checkpoint_id

    @property
    def records_since_checkpoint(self) -> int:
        """Appends since the latest checkpoint (drives auto-checkpointing)."""
        with self._lock:
            return len(self._entries) - self._last_checkpoint_lsn

    def next_checkpoint_id(self) -> int:
        with self._lock:
            checkpoint_id = self._next_checkpoint_id
            self._next_checkpoint_id += 1
            return checkpoint_id

    # -- persistence ---------------------------------------------------- #
    def save(self, path: str) -> None:
        """Serialize the journal to ``path`` (pickle)."""
        with self._lock:
            payload = {
                "entries": list(self._entries),
                "checkpoint_every": self.checkpoint_every,
                "next_checkpoint_id": self._next_checkpoint_id,
            }
        with open(path, "wb") as fh:
            pickle.dump(payload, fh)

    @classmethod
    def load(cls, path: str) -> "WriteAheadJournal":
        """Rebuild a journal from :meth:`save` output."""
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
            entries = payload["entries"]
            journal = cls(checkpoint_every=payload.get("checkpoint_every"))
        except (OSError, pickle.PickleError, KeyError, EOFError) as exc:
            raise JournalError(f"cannot load journal from {path!r}: {exc}")
        journal._entries = list(entries)
        last_cp = 0
        for entry in journal._entries:
            if isinstance(entry.record, Checkpoint):
                last_cp = entry.lsn
        journal._last_checkpoint_lsn = last_cp
        journal._next_checkpoint_id = payload.get("next_checkpoint_id", 1)
        return journal

    def describe(self) -> str:
        with self._lock:
            total = len(self._entries)
            since = total - self._last_checkpoint_lsn
        return (
            f"journal: {total} records, last checkpoint "
            f"{self.last_checkpoint_id}, {since} since"
        )


def shares_tuple(shares: "dict[str, float] | None") -> tuple[tuple[str, float], ...]:
    """Canonical journaled form of a tenant-shares mapping (sorted, so
    record equality and replay metering order are deterministic)."""
    if not shares:
        return ()
    return tuple(sorted(shares.items()))

