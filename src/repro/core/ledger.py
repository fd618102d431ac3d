"""The warehouse's ledger: authoritative state behind one transition function.

Everything a crash must not lose or double — the Statistics Service
log, the virtual clock, per-tenant bills, admission verdict counters,
the applied-MV registry, the durable tuning bookkeeping, the background
spend list, the cost history and the next recommendation id — is owned
by one :class:`Ledger`, together with the write-ahead journal, the lock
that orders writers, and the crash probes around each journal write
(drawn through the warehouse's
:class:`~repro.core.resilience.FaultPort`).

Every transition is a journal record (:mod:`repro.core.journal`), and
:meth:`Ledger.apply` is the only code that folds a record into state.
Live code calls :meth:`Ledger.commit` — journal the record (when a
journal is attached), then ``apply`` it — and crash recovery
(:mod:`repro.core.recovery`) calls ``apply`` on each replayed record, so
a recovered ledger equals the live one by construction rather than by a
hand-kept mirror.  ``journal=None`` is not a second path: it is the
same ``commit`` minus the append and its probes.

One site journals through :meth:`Ledger.write_ahead` without
re-applying: admission.  The verdict an ``AdmissionDecision`` carries
does not exist until
:meth:`~repro.core.governance.AdmissionController.check` has decided,
and ``check`` counts what it decides in the same step, so
``Session._admit`` journals a verdict that is already counted (replay
re-counts it through the same counting method).  Every other site —
the snapshot collector included — builds its record first and commits
it.  Two counters advance without a record — the clock at
admission and the recommendation id at proposal — and replay re-derives
both (the newest served timestamp, the newest intent's id).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, Hashable

from repro.core.governance import AdmissionController
from repro.core.journal import (
    AdmissionDecision,
    Checkpoint,
    CheckpointState,
    CostSnapshotTaken,
    DurableRecommendation,
    QueryServed,
    RetryCharge,
    RollbackCommit,
    RollbackIntent,
    TuningCommit,
    TuningFailed,
    TuningIntent,
    WriteAheadJournal,
)
from repro.core.resilience import FaultPort
from repro.errors import RecoveryError, ReproError
from repro.obsvc.history import CostHistoryStore
from repro.sql.parameterize import parameterize_sql
from repro.statsvc.logs import QueryLogStore, QueryRecord
from repro.tuning.background import LedgerEntry
from repro.util.units import from_ledger_units, to_ledger_units

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tuning.mv import MVCandidate


class TenantBill:
    """Running per-tenant spend, rolled up into warehouse billing.

    Serving dollars (``dollars``) and background-tuning dollars
    (``background_dollars``) are metered separately so experiments can
    report foreground vs background spend per tenant; the
    :class:`~repro.tuning.service.TuningService` attributes each applied
    action's cost to the tenants whose traffic motivated it.

    Dollar balances accumulate internally in **integral ledger units**
    (:data:`~repro.core.journal.LEDGER_SCALE` units per dollar — a
    power of two, so each charge's conversion is exact and accumulation
    is order-independent).  Floats drift; a crash-recovery replay must
    reproduce live totals *to the last bit*, and integer sums do.  The
    public ``dollars`` / ``background_dollars`` / ``retry_dollars``
    views stay floats.
    """

    def __init__(self, tenant: str) -> None:
        self.tenant = tenant
        self.queries = 0
        self.machine_seconds = 0.0
        self.background_actions = 0
        self.retries = 0
        self._dollars_units = 0
        self._background_units = 0
        self._retry_units = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TenantBill(tenant={self.tenant!r}, queries={self.queries}, "
            f"dollars={self.dollars:.6f}, total={self.total_dollars:.6f})"
        )

    def charge(self, record: QueryRecord) -> None:
        self.queries += 1
        self._dollars_units += to_ledger_units(record.dollars)
        self.machine_seconds += record.machine_seconds

    def charge_background(self, dollars: float) -> None:
        """Meter one background tuning apply/rollback against this tenant."""
        self.background_actions += 1
        self._background_units += to_ledger_units(dollars)

    def charge_retry(self, dollars: float) -> None:
        """Meter one retry attempt's modeled compute against this tenant."""
        self.retries += 1
        self._retry_units += to_ledger_units(dollars)

    @property
    def dollars(self) -> float:
        """Serving spend (sum of served records' dollars)."""
        return from_ledger_units(self._dollars_units)

    @property
    def background_dollars(self) -> float:
        return from_ledger_units(self._background_units)

    @property
    def retry_dollars(self) -> float:
        return from_ledger_units(self._retry_units)

    @property
    def total_dollars(self) -> float:
        """Serving plus background plus retry spend."""
        return from_ledger_units(
            self._dollars_units + self._background_units + self._retry_units
        )

    # -- exact ledger views (observability reconciles against these) --- #
    @property
    def serving_units(self) -> int:
        """Serving spend in integral ledger units."""
        return self._dollars_units

    @property
    def background_units(self) -> int:
        """Background-tuning spend in integral ledger units."""
        return self._background_units

    @property
    def retry_units(self) -> int:
        """Retry spend in integral ledger units."""
        return self._retry_units

    @property
    def total_units(self) -> int:
        """Total spend in integral ledger units."""
        return self._dollars_units + self._background_units + self._retry_units

    # -- durability ----------------------------------------------------- #
    def ledger_snapshot(self) -> tuple:
        """The bill's exact state as a plain tuple (checkpointing, and
        bit-equality assertions in the recovery tests)."""
        return (
            self.tenant,
            self.queries,
            self._dollars_units,
            self.machine_seconds,
            self._background_units,
            self.background_actions,
            self._retry_units,
            self.retries,
        )

    @classmethod
    def from_ledger_snapshot(cls, snapshot: tuple) -> "TenantBill":
        """Rebuild a bill from :meth:`ledger_snapshot` output."""
        (
            tenant,
            queries,
            dollars_units,
            machine_seconds,
            background_units,
            background_actions,
            retry_units,
            retries,
        ) = snapshot
        bill = cls(tenant)
        bill.queries = queries
        bill._dollars_units = dollars_units
        bill.machine_seconds = machine_seconds
        bill._background_units = background_units
        bill.background_actions = background_actions
        bill._retry_units = retry_units
        bill.retries = retries
        return bill


class Ledger:
    """Authoritative warehouse state, its journal, and the one function
    (:meth:`apply`) that mutates it.

    Holds no reference to the warehouse: it is given the log store, the
    journal (or ``None``), the admission controller whose verdict
    counters it checkpoints, the fault port its crash probes fire
    through, and — under a governed retention policy — the frequency
    provider's ``note_template``.
    """

    def __init__(
        self,
        logs: QueryLogStore,
        *,
        journal: WriteAheadJournal | None,
        admission: AdmissionController,
        faults: FaultPort,
        note_template: Callable[[str, Hashable], None] | None,
    ) -> None:
        self.journal = journal
        #: The serving lock: orders every writer — admission
        #: (timestamps), finalization, retry charges, tuning commits,
        #: snapshots and checkpoints.
        #: Re-entrant, so a caller that holds it across a larger
        #: critical section can still :meth:`commit` inside it.
        self.lock = threading.RLock()
        self.logs = logs
        self.clock = 0.0
        #: Per-tenant spend roll-up.
        self.billing: dict[str, TenantBill] = {}
        #: Highest journal LSN reflected in memory — the replay
        #: idempotence watermark (:func:`repro.core.recovery.apply_entry`).
        self.applied_lsn = 0
        #: Recommendation lifecycle bookkeeping by recommendation id;
        #: recovery resolves any record left in doubt.
        self.durable_tuning: dict[int, DurableRecommendation] = {}
        #: Applied materialized views by name — the mapping the planning
        #: pipeline rewrites over, so it is only ever updated in place.
        self.applied_mvs: dict[str, MVCandidate] = {}
        #: One entry per committed background apply / rollback.
        self.background_spend: list[LedgerEntry] = []
        self.cost_history = CostHistoryStore()
        self.next_rec_id = 1
        #: The :class:`~repro.core.recovery.RecoveryReport` of the pass
        #: that built this ledger, when it was recovered.
        self.last_recovery = None
        self._admission = admission
        self._faults = faults
        #: ``None`` unless a retention policy reads template forecasts.
        self.note_template = note_template
        #: Record type -> its transition; one handler per journal type.
        self.handlers: dict[type, Callable[[object], None]] = {
            QueryServed: self._apply_served,
            AdmissionDecision: self._apply_admission,
            RetryCharge: self._apply_retry,
            CostSnapshotTaken: self.cost_history.apply_record,
            TuningIntent: self._apply_tuning_intent,
            TuningCommit: self._apply_tuning_commit,
            TuningFailed: self._apply_tuning_failed,
            RollbackIntent: self._apply_rollback_intent,
            RollbackCommit: self._apply_rollback_commit,
            Checkpoint: self._apply_checkpoint,
        }

    # ------------------------------------------------------------------ #
    # Commit: journal, then apply
    # ------------------------------------------------------------------ #
    def commit(self, record: object) -> None:
        """Make one transition: write-ahead, then apply, under the lock."""
        with self.lock:
            self._append(record)
            self.apply(record)

    def write_ahead(self, record: object) -> None:
        """Journal ``record`` for the site that applies its effect itself
        (admission, see the module docstring)."""
        with self.lock:
            self._append(record)

    def _append(self, record: object) -> None:
        """The probe-bracketed journal write (no-op without a journal).

        The crash points are where the kill-point harness severs the
        process: before ``crash_pre_write`` the transition never
        happened; after ``crash_post_write`` replay redoes it exactly
        once; ``crash_pre_commit`` is the in-doubt window of the
        two-record tuning protocol, after the catalog mutation and
        before its commit record.
        """
        journal = self.journal
        if journal is None:
            return
        if isinstance(record, (TuningCommit, RollbackCommit)):
            self._faults.fire("crash_pre_commit")
        self._faults.fire("crash_pre_write")
        self.applied_lsn = journal.append(record).lsn
        self._faults.fire("crash_post_write")

    def apply(self, record: object) -> None:
        """Fold one journal record into state — live and on replay."""
        handler = self.handlers.get(type(record))
        if handler is None:
            raise RecoveryError(
                f"no replay handler for journal record {type(record).__name__!r}"
            )
        handler(record)

    # ------------------------------------------------------------------ #
    # Transitions, one per record type
    # ------------------------------------------------------------------ #
    def _bill_for(self, tenant: str) -> TenantBill:
        bill = self.billing.get(tenant)
        if bill is None:
            bill = self.billing[tenant] = TenantBill(tenant)
        return bill

    def _apply_served(self, record: QueryServed) -> None:
        served = record.record
        if served.query_id <= self.logs.last_query_id:
            return  # already logged and billed (defensive idempotence)
        self.clock = max(self.clock, served.timestamp)
        self.logs.append(served)
        template = served.template
        if (
            self.note_template is not None
            and template.rpartition(".")[2] != "adhoc"
        ):
            # Teach the frequency provider which literal-free template
            # key this logged family instantiates, so forecast rates can
            # score that template's cache entries (parameterize_sql is
            # lru-cached — the serving path just computed this).  The
            # default "adhoc" family (any namespace) is skipped: it
            # aggregates unrelated one-off queries, and its combined
            # arrival rate would let never-reused entries outscore
            # genuinely recurring templates.
            self.note_template(
                template, parameterize_sql(served.sql).template_key
            )
        self._bill_for(served.tenant).charge(served)

    def _apply_admission(self, record: AdmissionDecision) -> None:
        self._admission.count_verdict(record.tenant, record.verdict)

    def _apply_retry(self, record: RetryCharge) -> None:
        self._bill_for(record.tenant).charge_retry(record.dollars)

    def _apply_tuning_intent(self, record: TuningIntent) -> None:
        self.durable_tuning[record.rec_id] = DurableRecommendation(
            rec_id=record.rec_id,
            name=record.name,
            kind=record.kind,
            state="applying",
            undo=record.undo,
            tenant_shares=record.tenant_shares,
        )
        self.next_rec_id = max(self.next_rec_id, record.rec_id + 1)

    def _apply_tuning_commit(self, record: TuningCommit) -> None:
        durable = self.durable_tuning.get(record.rec_id)
        if durable is None:
            durable = self.durable_tuning[record.rec_id] = DurableRecommendation(
                rec_id=record.rec_id,
                name=record.name,
                kind=record.kind,
                state="applied",
            )
        # The apply-time undo snapshot stays on the committed record: a
        # crash-resolved rollback needs it.
        durable.state = "applied"
        durable.dollars = record.dollars
        durable.tenant_shares = record.tenant_shares
        durable.candidate = record.candidate
        durable.physical = record.physical
        if record.kind == "materialized-view" and record.candidate is not None:
            self.applied_mvs[record.candidate.name] = record.candidate
        self._spend(record, record.kind)

    def _apply_tuning_failed(self, record: TuningFailed) -> None:
        durable = self.durable_tuning.get(record.rec_id)
        if durable is not None:
            durable.state = "failed"

    def _apply_rollback_intent(self, record: RollbackIntent) -> None:
        durable = self.durable_tuning.get(record.rec_id)
        if durable is not None:
            durable.state = "rolling_back"
            if record.undo is not None:
                durable.undo = record.undo
            durable.dollars = record.dollars
            durable.tenant_shares = record.tenant_shares

    def _apply_rollback_commit(self, record: RollbackCommit) -> None:
        durable = self.durable_tuning.get(record.rec_id)
        if durable is not None:
            durable.state = "rolled_back"
            durable.dollars = record.dollars
        if record.kind == "materialized-view" and record.candidate is not None:
            self.applied_mvs.pop(record.candidate.name, None)
        self._spend(record, f"rollback-{record.kind}")

    def _apply_checkpoint(self, record: Checkpoint) -> None:
        """A checkpoint is a snapshot, not a transition: recovery
        :meth:`restore`\\ s the latest one and replays only what follows."""

    def _spend(self, record: "TuningCommit | RollbackCommit", kind: str) -> None:
        """The background spend of a committed apply or rollback: metered
        into the tenants whose traffic motivated the action, and listed."""
        if record.dollars > 0.0:
            for tenant, share in record.tenant_shares or (("default", 1.0),):
                self._bill_for(tenant).charge_background(record.dollars * share)
        self.background_spend.append(
            LedgerEntry(
                action_name=record.name,
                kind=kind,
                dollars=record.dollars,
                applied_physically=record.physical,
            )
        )

    # ------------------------------------------------------------------ #
    # Counters that advance without a record (see the module docstring)
    # ------------------------------------------------------------------ #
    def advance_clock(self, timestamp: float) -> None:
        """Admission-time clock advance (dies with the process for a
        query that never finalizes; the log's append-order clamp makes
        that monotone-safe)."""
        self.clock = max(self.clock, timestamp)

    def issue_rec_id(self) -> int:
        """The next recommendation id (proposals are not journaled)."""
        rec_id = self.next_rec_id
        self.next_rec_id += 1
        return rec_id

    # ------------------------------------------------------------------ #
    # Checkpoints
    # ------------------------------------------------------------------ #
    def snapshot(self) -> CheckpointState:
        """Everything replay would otherwise rebuild from the journal."""
        return CheckpointState(
            clock=self.clock,
            records=tuple(self.logs),
            bills=tuple(
                bill.ledger_snapshot() for _, bill in sorted(self.billing.items())
            ),
            verdicts=tuple(
                (tenant, tuple(sorted(counts.items())))
                for tenant, counts in sorted(
                    self._admission.verdict_counts.items()
                )
            ),
            applied_mvs=tuple(self.applied_mvs.values()),
            durable_tuning=tuple(
                durable.copy() for durable in self.durable_tuning.values()
            ),
            ledger=tuple(self.background_spend),
            next_rec_id=self.next_rec_id,
            cost_history=self.cost_history.snapshots(),
        )

    def restore(self, state: CheckpointState) -> None:
        """Load :meth:`snapshot` output, every container in place (the
        warehouse and the planning pipeline hold views of them)."""
        self.logs.restore(state.records)
        self.clock = state.clock
        self.billing.clear()
        self.billing.update(
            (snapshot[0], TenantBill.from_ledger_snapshot(snapshot))
            for snapshot in state.bills
        )
        self._admission.restore_counts(
            {tenant: dict(counts) for tenant, counts in state.verdicts}
        )
        self.applied_mvs.clear()
        self.applied_mvs.update(
            (candidate.name, candidate) for candidate in state.applied_mvs
        )
        self.durable_tuning.clear()
        self.durable_tuning.update(
            (durable.rec_id, durable.copy()) for durable in state.durable_tuning
        )
        self.background_spend[:] = state.ledger
        self.next_rec_id = state.next_rec_id
        self.cost_history.restore(state.cost_history)

    def checkpoint(self) -> None:
        """Journal a :class:`~repro.core.journal.Checkpoint` of the full
        state so recovery replays only the records after it.  Taken
        under the lock: consistent, with no commit in flight."""
        journal = self.journal
        if journal is None:
            raise ReproError("checkpoint() needs an attached journal")
        with self.lock:
            entry = journal.append(
                Checkpoint(
                    checkpoint_id=journal.next_checkpoint_id(),
                    state=self.snapshot(),
                )
            )
            self.applied_lsn = entry.lsn

    def checkpoint_due(self) -> bool:
        """Whether the journal's interval policy asks for a checkpoint."""
        journal = self.journal
        return (
            journal is not None
            and journal.checkpoint_every is not None
            and journal.records_since_checkpoint >= journal.checkpoint_every
        )

    # ------------------------------------------------------------------ #
    # Billing views
    # ------------------------------------------------------------------ #
    @property
    def billed_dollars(self) -> float:
        """Total serving dollars billed across all tenants."""
        return sum(bill.dollars for bill in self.billing.values())

    @property
    def background_dollars(self) -> float:
        """Total background-tuning dollars metered across all tenants."""
        return sum(bill.background_dollars for bill in self.billing.values())

    def describe_billing(self) -> str:
        """Per-tenant spend roll-up, one line per tenant plus the total."""
        if not self.billing:
            return "billing: no queries served"
        lines = []
        for bill in sorted(self.billing.values(), key=lambda b: b.tenant):
            line = (
                f"  {bill.tenant}: {bill.queries} queries, ${bill.dollars:.4f}, "
                f"{bill.machine_seconds:.1f} machine-seconds"
            )
            if bill.background_actions:
                line += (
                    f", ${bill.background_dollars:.4f} background "
                    f"({bill.background_actions} tuning actions)"
                )
            lines.append(line)
        total = f"\n  total: ${self.billed_dollars:.4f}"
        if self.background_dollars:
            total += f" serving + ${self.background_dollars:.4f} background"
        return "billing by tenant:\n" + "\n".join(lines) + total
