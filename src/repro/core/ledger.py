"""The warehouse's ledger: authoritative state behind one transition function.

Everything a crash must not lose or double — the Statistics Service
log, the virtual clock, per-tenant :class:`TenantBill`\\ s (each
tenant's one account: its spend, the admission verdicts counted on it
and the units its log records left the window with unfolded), the
tuning recommendations (moved ``APPLYING``, ``APPLIED``, ``FAILED``,
``ROLLING_BACK`` and ``ROLLED_BACK`` by their records) and the applied
MVs, the cost history and the next recommendation id — is
owned by one :class:`Ledger`, together with the write-ahead journal,
the lock that orders writers, and the crash probes around each journal
write (drawn through the warehouse's
:class:`~repro.core.resilience.FaultPort`).

Every transition is a journal record (:mod:`repro.core.journal`), and
:meth:`Ledger.apply` is the only code that folds a record into state.
Live code calls :meth:`Ledger.commit` — journal the record (when a
journal is attached), then ``apply`` it — and crash recovery
(:mod:`repro.core.recovery`) calls ``apply`` on each replayed record, so
a recovered ledger equals the live one by construction rather than by a
hand-kept mirror.  ``journal=None`` is not a second path: it is the
same ``commit`` minus the append and its probes.

Admission is no exception:
:meth:`~repro.core.governance.AdmissionController.check` only decides,
and ``Session._admit`` commits the verdict as an ``AdmissionDecision``
whose transition counts it on the tenant's bill — live exactly as on
replay, so a tenant whose only record is a decision has a zero-spend
bill.  A served query's transition also counts, on the dropped
record's bill, a record the log's window drops before any cost
snapshot folded it (:meth:`~repro.statsvc.logs.QueryLogStore.append`
returns the record it drops).  Every site —
the snapshot collector included — builds its record first and commits
it.  Two counters advance without a record — the clock at
admission and the recommendation id at proposal — and replay re-derives
both (the newest served timestamp, the newest intent's id).  Proposals
are unjournaled like their id: ``TuningService.propose()`` and
``apply()`` enter the caller's object, which ``apply`` then moves.
"""

from __future__ import annotations

import threading
from dataclasses import astuple, dataclass, replace
from typing import Callable, Hashable

from repro.core.journal import (
    AdmissionDecision,
    Checkpoint,
    CheckpointState,
    CostSnapshotTaken,
    QueryServed,
    RetryCharge,
    RollbackCommit,
    RollbackIntent,
    TuningCommit,
    TuningFailed,
    TuningIntent,
    WriteAheadJournal,
    shares_tuple,
)
from repro.core.resilience import FaultPort
from repro.errors import RecoveryError, ReproError
from repro.obsvc.history import CostHistoryStore
from repro.sql.parameterize import parameterize_sql
from repro.statsvc.logs import QueryLogStore, QueryRecord
from repro.tuning.mv import MVCandidate
from repro.tuning.service import Recommendation, RecommendationState
from repro.util.units import from_ledger_units, to_ledger_units


#: Each ``AdmissionVerdict.value`` and the bill field counting it.
VERDICT_FIELDS = {
    "admit": "admits",
    "throttle": "throttles",
    "defer": "defers",
    "deny": "denies",
}


@dataclass
class TenantBill:
    """A tenant's account: its spend, rolled up into warehouse billing,
    and the admission decisions taken on it.

    Serving dollars (``dollars``) and background-tuning dollars
    (``background_dollars``) are metered separately so experiments can
    report foreground vs background spend per tenant; the
    :class:`~repro.tuning.service.TuningService` attributes each applied
    action's cost to the tenants whose traffic motivated it.

    Dollar balances accumulate in **integral ledger units**
    (:data:`~repro.util.units.LEDGER_SCALE` units per dollar — a
    power of two, so each charge's conversion is exact and accumulation
    is order-independent).  Floats drift; a crash-recovery replay must
    reproduce live totals *to the last bit*, and integer sums do.  The
    public ``dollars`` / ``background_dollars`` / ``retry_dollars``
    views stay floats.

    The bill also counts every committed admission verdict (a deferred
    query that is later re-admitted or denied counts each decision) and
    ``unfolded_units``: the serving units of this tenant's records the
    log's window dropped before a cost snapshot folded them, which the
    collector's drill-down closes over so it still reconciles.  Only
    :class:`Ledger` transitions, under the ledger's lock, call the
    ``charge_*`` and ``count_*`` methods.  Every field is a scalar, so a
    shallow copy is a snapshot.
    """

    tenant: str
    queries: int = 0
    machine_seconds: float = 0.0
    serving_units: int = 0
    background_actions: int = 0
    background_units: int = 0
    retries: int = 0
    retry_units: int = 0
    admits: int = 0
    throttles: int = 0
    defers: int = 0
    denies: int = 0
    unfolded_units: int = 0

    def charge_served(self, record: QueryRecord) -> None:
        """Meter one served query against this tenant."""
        self.queries += 1
        self.serving_units += to_ledger_units(record.dollars)
        self.machine_seconds += record.machine_seconds

    def charge_background(self, dollars: float) -> None:
        """Meter one background tuning apply/rollback against this tenant."""
        self.background_actions += 1
        self.background_units += to_ledger_units(dollars)

    def charge_retry(self, dollars: float) -> None:
        """Meter one retry attempt's modeled compute against this tenant."""
        self.retries += 1
        self.retry_units += to_ledger_units(dollars)

    def count_verdict(self, verdict: str) -> None:
        """Count one committed admission decision (an
        ``AdmissionVerdict.value``)."""
        field = VERDICT_FIELDS[verdict]
        setattr(self, field, getattr(self, field) + 1)

    def count_unfolded(self, record: QueryRecord) -> None:
        """Count a record the log's window dropped unfolded."""
        self.unfolded_units += to_ledger_units(record.dollars)

    def verdicts(self) -> dict[str, int]:
        """Committed admission decisions by verdict, e.g.
        ``{"admit": 3}`` (verdicts never decided are omitted)."""
        return {
            verdict: getattr(self, field)
            for verdict, field in VERDICT_FIELDS.items()
            if getattr(self, field)
        }

    @property
    def dollars(self) -> float:
        """Serving spend (sum of served records' dollars)."""
        return from_ledger_units(self.serving_units)

    @property
    def background_dollars(self) -> float:
        return from_ledger_units(self.background_units)

    @property
    def retry_dollars(self) -> float:
        return from_ledger_units(self.retry_units)

    @property
    def total_units(self) -> int:
        """Total spend in integral ledger units."""
        return self.serving_units + self.background_units + self.retry_units

    @property
    def total_dollars(self) -> float:
        """Serving plus background plus retry spend."""
        return from_ledger_units(self.total_units)

    def ledger_snapshot(self) -> tuple:
        """The bill's exact state as a plain tuple (bit-equality
        assertions in the recovery tests and the benchmark's gate)."""
        return astuple(self)


class Ledger:
    """Authoritative warehouse state, its journal, and the one function
    (:meth:`apply`) that mutates it.

    Holds no reference to the warehouse: it is given the log store, the
    journal (or ``None``), the fault port its crash probes fire
    through, and — under a governed retention policy — the frequency
    provider's ``note_template``.
    """

    def __init__(
        self,
        logs: QueryLogStore,
        *,
        journal: WriteAheadJournal | None,
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
        #: Per-tenant accounts: spend, verdicts and unfolded units.
        self.billing: dict[str, TenantBill] = {}
        #: Highest journal LSN reflected in memory — the replay
        #: idempotence watermark (:func:`repro.core.recovery.apply_entry`).
        self.applied_lsn = 0
        #: Every recommendation by id: this process's proposals and,
        #: in intent order, every journaled one (checkpointed when
        #: ``undo`` is set); recovery resolves any left in doubt.
        self.recommendations: dict[int, Recommendation] = {}
        #: Applied materialized views by name, in commit order — the
        #: mapping the planning pipeline rewrites over, so it is only
        #: ever updated in place.
        self.applied_mvs: dict[str, MVCandidate] = {}
        self.cost_history = CostHistoryStore()
        self.next_rec_id = 1
        #: The :class:`~repro.core.recovery.RecoveryReport` of the pass
        #: that built this ledger, when it was recovered.
        self.last_recovery = None
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
        dropped = self.logs.append(served)
        if (
            dropped is not None
            and dropped.query_id > self.cost_history.folded_through
        ):
            self._bill_for(dropped.tenant).count_unfolded(dropped)
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
        self._bill_for(served.tenant).charge_served(served)

    def _apply_admission(self, record: AdmissionDecision) -> None:
        self._bill_for(record.tenant).count_verdict(record.verdict)

    def _apply_retry(self, record: RetryCharge) -> None:
        self._bill_for(record.tenant).charge_retry(record.dollars)

    def _apply_tuning_intent(self, record: TuningIntent) -> None:
        # Live, the ledger holds the caller's object; replay rebuilds
        # it.  Re-inserted, so journaled ones sit in intent order.
        rec = self.recommendations.pop(record.rec_id, None) or Recommendation(
            rec_id=record.rec_id,
            report=record.report,
            tenant_shares=dict(record.tenant_shares),
        )
        self.recommendations[record.rec_id] = rec
        rec.undo = record.undo
        rec.state = RecommendationState.APPLYING
        self.next_rec_id = max(self.next_rec_id, record.rec_id + 1)

    def _apply_tuning_commit(self, record: TuningCommit) -> None:
        rec = self.recommendations[record.rec_id]
        rec.state = RecommendationState.APPLIED
        if isinstance(rec.action, MVCandidate):
            self.applied_mvs[rec.action.name] = rec.action
        self._spend(rec, rec.report.one_time_dollars)

    def _apply_tuning_failed(self, record: TuningFailed) -> None:
        rec = self.recommendations[record.rec_id]
        # A rollback that failed before mutating leaves the action applied.
        rec.state = (
            RecommendationState.APPLIED
            if rec.state is RecommendationState.ROLLING_BACK
            else RecommendationState.FAILED
        )
        rec.error = record.message

    def _apply_rollback_intent(self, record: RollbackIntent) -> None:
        rec = self.recommendations[record.rec_id]
        rec.state = RecommendationState.ROLLING_BACK

    def _apply_rollback_commit(self, record: RollbackCommit) -> None:
        rec = self.recommendations[record.rec_id]
        rec.state = RecommendationState.ROLLED_BACK
        self.applied_mvs.pop(rec.action.name, None)
        self._spend(rec, rec.undo.dollars)

    def _apply_checkpoint(self, record: Checkpoint) -> None:
        """A checkpoint is a snapshot, not a transition: recovery
        :meth:`restore`\\ s the latest one and replays only what follows."""

    def _spend(self, rec: Recommendation, dollars: float) -> None:
        """Meter a committed apply or rollback into the tenants whose
        traffic motivated the action."""
        if dollars > 0.0:
            for tenant, share in shares_tuple(rec.tenant_shares or {"default": 1.0}):
                self._bill_for(tenant).charge_background(dollars * share)

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
        """Everything replay would otherwise rebuild but the log window."""
        return CheckpointState(
            clock=self.clock,
            log_rollups=self.logs.rollups(),
            bills=tuple(replace(bill) for _, bill in sorted(self.billing.items())),
            recommendations=tuple(
                replace(rec)
                for rec in self.recommendations.values()
                if rec.undo is not None
            ),
            next_rec_id=self.next_rec_id,
            cost_history=self.cost_history.snapshots(),
        )

    def restore(self, state: CheckpointState, window: list[QueryRecord]) -> None:
        """Load :meth:`snapshot` output and the log ``window`` it was
        taken over, every container in place (the warehouse and the
        planning pipeline hold views of them)."""
        self.cost_history.restore(state.cost_history)
        self.logs.restore(window, state.log_rollups)
        self.clock = state.clock
        self.billing.clear()
        # Copied again, so a checkpoint the journal keeps never aliases
        # a live bill.
        self.billing.update((bill.tenant, replace(bill)) for bill in state.bills)
        self.recommendations.clear()
        self.recommendations.update(
            (rec.rec_id, replace(rec)) for rec in state.recommendations
        )
        self.applied_mvs.clear()
        self.applied_mvs.update(
            (rec.action.name, rec.action)
            for rec in self.recommendations.values()
            if isinstance(rec.action, MVCandidate)
            and rec.state
            in (RecommendationState.APPLIED, RecommendationState.ROLLING_BACK)
        )
        self.next_rec_id = state.next_rec_id

    def checkpoint(self) -> None:
        """Journal a :class:`~repro.core.journal.Checkpoint` of the state
        but the log window, whose records the journal keeps, so recovery
        replays only the records after it.  Taken under the lock."""
        journal = self.journal
        if journal is None:
            raise ReproError("checkpoint() needs an attached journal")
        with self.lock:
            entry = journal.append(
                Checkpoint(
                    checkpoint_id=journal.next_checkpoint_id(),
                    window_start=self.logs.first_query_id,
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
