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
  and their rollback mirrors: the intent carries the recommendation's
  What-If report, whose candidate is the action, and its tenant shares
  once, every later edge only its id, a failure also its message), plus
  periodic :class:`Checkpoint`\\ s;
- :class:`UndoSnapshot` — a *declarative*, picklable capture of how to
  reverse a tuning action, journaled in the intent record **before**
  the catalog mutates: the one undo representation, executed by a live
  rollback and by recovery's in-doubt resolution alike;
- :class:`WriteAheadJournal` — the append-ordered, LSN-stamped record
  store the ledger (:mod:`repro.core.ledger`) writes to (write-ahead:
  the record lands before the in-memory state it describes mutates, so
  redo replay is always sufficient).  Each :class:`Checkpoint` seals
  it behind the log window's oldest record, so the journal holds the
  window's records, the newest checkpoint (no copy of the window) and
  the records since, not every served query.  It keeps no counter
  beside its entries: the next LSN is the newest entry's + 1 and the
  next checkpoint id the newest checkpoint's + 1, so a saved and loaded
  journal continues both sequences by construction.

The catalog/database object is treated as *durable storage shared with
the crashed process* (it survives, possibly half-mutated); the journal
therefore records warehouse-memory transitions, not storage bytes, and
recovery (:mod:`repro.core.recovery`) replays memory while resolving
storage via the journaled undo snapshots.

Billing is journaled and accumulated in **integral ledger units** of
``1 / LEDGER_SCALE`` dollars (:mod:`repro.util.units`: a dyadic scale,
so float -> unit conversion is exact and replayed totals match live
totals to the last bit, independent of accumulation order).
"""

from __future__ import annotations

import pickle
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import JournalError

#: The version :meth:`WriteAheadJournal.save` writes and ``load`` requires.
FORMAT_VERSION = 3

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.catalog.catalog import Catalog
    from repro.engine.database import Database
    from repro.statsvc.logs import LogRollups, QueryRecord


# --------------------------------------------------------------------- #
# Undo snapshots (journaled before the catalog mutation)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class UndoSnapshot:
    """Declarative, picklable capture of how to reverse a tuning action.

    Captured by the background executor *before* anything mutates
    (:meth:`~repro.tuning.background.BackgroundComputeService.capture_undo`)
    as plain data, so the same object serves a live rollback and
    recovery's resolution of an in-doubt apply.  It holds only what the
    action's candidate cannot say: the reversal's cost, whether the
    apply touched stored data, and for a recluster the prior catalog
    entry and stored table.  :meth:`apply` is idempotent: every step
    checks current state first, so resolving the same in-doubt record
    twice (a crash during recovery) is safe.
    """

    dollars: float  # what executing the reversal costs
    physical: bool
    prior_entry: object | None = None  # recluster: prior catalog entry
    prior_stored: object | None = None  # recluster (physical): prior table

    def apply(
        self, candidate: object, database: "Database | None", catalog: "Catalog"
    ) -> None:
        """Physically reverse applying ``candidate``; no-op for any step
        already done.  A snapshot with a prior catalog entry restores
        it (a recluster); one without drops the view the apply built
        under the candidate's name."""
        prior = self.prior_entry
        if prior is not None:
            if (
                self.physical
                and database is not None
                and self.prior_stored is not None
            ):
                database.replace_table_storage(prior.name, self.prior_stored)
            catalog.register_table(prior, replace_existing=True)
            return
        name = candidate.name
        if self.physical and database is not None and name in database.table_names:
            database.drop_table(name)
        elif catalog.has_table(name):
            catalog.drop_table(name)
        if catalog.has_view(name):
            catalog.drop_view(name)


# --------------------------------------------------------------------- #
# Journal records
# --------------------------------------------------------------------- #
# The records every served query leaves (QueryServed, AdmissionDecision
# and the JournalEntry stamping each) are slotted: the journal retains
# the log window's worth of them.
@dataclass(frozen=True, slots=True)
class QueryServed:
    """One served query: its Statistics Service log record *is* its
    billing delta (dollars + machine-seconds land on ``record.tenant``)."""

    record: "QueryRecord"


@dataclass(frozen=True, slots=True)
class AdmissionDecision:
    """One admission verdict for one query from one tenant.

    ``DENY`` decisions journal *only* this record — a denied query must
    leave no spend or log records (no timestamp, no clock advance), so
    replay restores exactly the verdict count on the tenant's bill and
    nothing else.
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

    Journaled *before* the mutation, it carries what the recommendation
    is about, once — its What-If report (whose candidate *is* the
    action) and tenant shares, from which replay rebuilds it and the
    commits meter — and the pre-mutation :class:`UndoSnapshot`: the
    write-ahead half of the two-record apply protocol.  An intent
    without a matching :class:`TuningCommit` at recovery time is *in
    doubt* and is rolled back via the snapshot.
    """

    rec_id: int
    report: object  # repro.tuning.whatif.TuningReport
    undo: UndoSnapshot
    tenant_shares: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True)
class TuningCommit:
    """The apply's catalog mutation completed; replay marks the
    recommendation applied, registers an MV with the serving rewriter
    and meters its report's one-time dollars into the originating
    tenants' bills."""

    rec_id: int


@dataclass(frozen=True)
class TuningFailed:
    """An apply or rollback failed *in-process* (typed error, handled
    live) with nothing mutated: a failed apply moves the recommendation
    ``APPLYING -> FAILED``, a failed rollback ``ROLLING_BACK ->
    APPLIED``.  Replay carries only the message."""

    rec_id: int
    message: str = ""


@dataclass(frozen=True)
class RollbackIntent:
    """A rollback of an applied action is about to mutate the catalog.

    The recommendation keeps its apply-time :class:`UndoSnapshot`: if
    the process dies mid-rollback, recovery completes it forward (the
    user asked for the rollback) by re-applying the snapshot
    idempotently and metering the snapshot's ``dollars``.
    """

    rec_id: int


@dataclass(frozen=True)
class RollbackCommit:
    """The rollback completed; replay marks the recommendation rolled
    back, unregisters an MV and meters its undo snapshot's dollars."""

    rec_id: int


@dataclass(frozen=True)
class CheckpointState:
    """A consistent snapshot of the warehouse's journaled state.

    Everything replay would otherwise rebuild from the full journal but
    the log window, whose records the journal keeps: the log's
    roll-ups, the clock, shallow copies of the per-tenant bills (spend
    in integral ledger units, admission verdict counts and unfolded
    units — scalars only), copies of the recommendations whose intent
    was journaled, the next recommendation id, and the cost history.
    The applied-MV registry is read off the recommendations on restore.
    """

    clock: float
    log_rollups: "LogRollups"
    #: ``repro.core.ledger.TenantBill`` copies, by tenant.
    bills: tuple[object, ...]
    #: ``repro.tuning.service.Recommendation`` copies, by rec id.
    recommendations: tuple[object, ...] = ()
    next_rec_id: int = 1
    #: ``CostHistoryStore.snapshots()``: references to the store's own
    #: frozen snapshots, so successive checkpoints share them.
    cost_history: tuple = ()


@dataclass(frozen=True)
class Checkpoint:
    """A checkpoint record inline in the journal: recovery restores the
    latest one with the window's records before it, then replays only
    the records after it, so appending one seals the journal behind the
    :class:`QueryServed` of ``window_start`` (behind itself at 0)."""

    checkpoint_id: int
    window_start: int  # the log window's oldest query id; 0: empty log
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
@dataclass(frozen=True, slots=True)
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
    ledger.  Appending a checkpoint **seals** the journal: every entry
    before the log window's oldest record is dropped, because recovery
    reads only the newest checkpoint, the window's records before it
    (among them whatever else was appended, older checkpoints too) and
    the records after it; a journal that never checkpoints keeps every
    record.  ``len(journal)`` is the newest LSN — records ever
    appended — whatever the seal dropped.  Thread-safe;
    ``checkpoint_every`` (records between checkpoints) drives the
    warehouse's automatic checkpointing — ``None`` disables it
    (explicit ``warehouse.checkpoint()`` only).
    """

    def __init__(self, *, checkpoint_every: int | None = None) -> None:
        if checkpoint_every is not None and (
            type(checkpoint_every) is not int or checkpoint_every < 1
        ):
            raise JournalError(
                f"checkpoint_every must be an int >= 1, got {checkpoint_every!r}"
            )
        self.checkpoint_every = checkpoint_every
        self._entries: list[JournalEntry] = []
        #: The newest :class:`Checkpoint` entry, if any.
        self._checkpoint: JournalEntry | None = None
        self._lock = threading.Lock()

    def append(self, record: object) -> JournalEntry:
        """Append one record; returns its LSN-stamped entry.  A
        :class:`Checkpoint` seals the journal behind its window."""
        if not isinstance(record, RECORD_TYPES):
            raise JournalError(
                f"unknown journal record type {type(record).__name__!r}"
            )
        with self._lock:
            entries = self._entries
            lsn = entries[-1].lsn + 1 if entries else 1
            entry = JournalEntry(lsn=lsn, record=record)
            if isinstance(record, Checkpoint):
                del entries[: _window_index(entries, record.window_start, len(entries))]
                self._checkpoint = entry
            entries.append(entry)
            return entry

    def __len__(self) -> int:
        """The newest LSN: records ever appended, sealed ones included."""
        with self._lock:
            return self._entries[-1].lsn if self._entries else 0

    def entries(self, *, after_lsn: int | None = None) -> list[JournalEntry]:
        """The retained entries, in LSN order; with ``after_lsn``, those
        with ``lsn > after_lsn``.  Raises :class:`JournalError` when the
        seal dropped an entry after ``after_lsn``."""
        with self._lock:
            entries = self._entries
            if after_lsn is None or not entries:
                return list(entries)
            skip = after_lsn - entries[0].lsn + 1
            if skip < 0:
                raise JournalError(
                    f"entries after LSN {after_lsn} were sealed (kept from {entries[0].lsn})"
                )
            return entries[skip:]

    def last_checkpoint(self) -> JournalEntry | None:
        """The most recent :class:`Checkpoint` entry, if any."""
        return self._checkpoint

    def checkpoint_window(self) -> list["QueryRecord"]:
        """The newest checkpoint's log window: the retained
        :class:`QueryServed` records from its ``window_start`` to it."""
        with self._lock:
            checkpoint, entries = self._checkpoint, self._entries
            if checkpoint is None:
                return []
            end = checkpoint.lsn - entries[0].lsn
            start = _window_index(entries, checkpoint.record.window_start, end)
            window = (entry.record for entry in entries[start:end])
            return [record.record for record in window if type(record) is QueryServed]

    @property
    def last_checkpoint_id(self) -> int | None:
        return self._checkpoint.record.checkpoint_id if self._checkpoint else None

    @property
    def records_since_checkpoint(self) -> int:
        """Appends since the latest checkpoint (drives auto-checkpointing)."""
        with self._lock:
            newest = self._entries[-1].lsn if self._entries else 0
            return newest - (self._checkpoint.lsn if self._checkpoint else 0)

    def next_checkpoint_id(self) -> int:
        """The id the next :class:`Checkpoint` takes (ids start at 1)."""
        return (self.last_checkpoint_id or 0) + 1

    # -- persistence ---------------------------------------------------- #
    def save(self, path: str) -> None:
        """Serialize the retained entries and :data:`FORMAT_VERSION` to
        ``path`` (pickle); each entry carries its LSN, so a loaded
        journal continues the count."""
        with self._lock:
            payload = {
                "format": FORMAT_VERSION,
                "entries": list(self._entries),
                "checkpoint_every": self.checkpoint_every,
            }
        with open(path, "wb") as fh:
            pickle.dump(payload, fh)

    @classmethod
    def load(cls, path: str) -> "WriteAheadJournal":
        """Rebuild a journal from :meth:`save` output.  Any unreadable or
        malformed file, or a payload of another :data:`FORMAT_VERSION`,
        raises :class:`JournalError`."""
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except Exception as exc:  # unpickling bad bytes raises anything
            raise JournalError(f"cannot load journal from {path!r}: {exc!r}") from exc
        entries = _checked_entries(payload, path)
        journal = cls(checkpoint_every=payload.get("checkpoint_every"))
        journal._entries = entries
        journal._checkpoint = next(
            (e for e in reversed(entries) if isinstance(e.record, Checkpoint)), None
        )
        return journal

    def describe(self) -> str:
        return (
            f"journal: {len(self)} records, last checkpoint "
            f"{self.last_checkpoint_id}, {self.records_since_checkpoint} "
            f"since, {len(self._entries)} retained"
        )


def _window_index(entries: list[JournalEntry], window_start: int, end: int) -> int:
    """The index in ``entries[:end]`` of query ``window_start``'s
    :class:`QueryServed` (``end`` for 0); :class:`JournalError` if none."""
    if not window_start:
        return end
    for index in range(end):
        record = entries[index].record
        if type(record) is QueryServed and record.record.query_id == window_start:
            return index
    raise JournalError(f"the journal lost query {window_start}, the window's start")


def _checked_entries(payload: object, path: str) -> list[JournalEntry]:
    """The entries of a loaded payload; :class:`JournalError` unless it
    is of :data:`FORMAT_VERSION` and they are known records with
    gap-free LSNs that start at 1 or hold a checkpoint."""
    version = payload.get("format") if isinstance(payload, dict) else None
    if type(version) is not int or version != FORMAT_VERSION:
        raise JournalError(f"{path!r}: format {version!r}, not {FORMAT_VERSION}")
    entries = payload.get("entries")
    if not isinstance(entries, list) or not all(
        isinstance(entry, JournalEntry) for entry in entries
    ):
        raise JournalError(f"{path!r} holds no journal payload")
    if not entries:
        return []
    # getattr: an entry unpickled from damaged bytes may lack a field.
    first = getattr(entries[0], "lsn", None)
    for offset, entry in enumerate(entries):
        lsn = getattr(entry, "lsn", None)
        if type(lsn) is not int or lsn != first + offset:
            raise JournalError(f"{path!r}: LSN {lsn!r} breaks the sequence")
        record = getattr(entry, "record", None)
        if not isinstance(record, RECORD_TYPES):
            raise JournalError(
                f"{path!r}: unknown record type {type(record).__name__!r}"
            )
    if first != 1 and not any(isinstance(e.record, Checkpoint) for e in entries):
        raise JournalError(f"{path!r}: entries start at LSN {first!r}")
    return entries


def shares_tuple(shares: "dict[str, float] | None") -> tuple[tuple[str, float], ...]:
    """Canonical journaled form of a tenant-shares mapping (sorted, so
    record equality and replay metering order are deterministic)."""
    if not shares:
        return ()
    return tuple(sorted(shares.items()))

