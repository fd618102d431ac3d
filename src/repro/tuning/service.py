"""Tuning-layer request model: Recommendations, TuningService, TuningPolicy.

Mirror of the serving redesign in :mod:`repro.core.service`: tuning is a
long-lived *service* owned by the warehouse, not a one-shot call.  The
paper's §4 loop (Statistics Service -> What-If pricing -> background
compute) keeps its components, but the API around them becomes:

- A tuning action *is* its candidate — a frozen
  :class:`~repro.tuning.mv.MVCandidate` or
  :class:`~repro.tuning.clustering.ReclusterCandidate`, with its
  ``name`` and ``kind`` — carried end to end on the What-If report, so
  nothing downstream re-derives one by parsing name strings (the old
  ``recluster_<table>_on_<key>`` round-trip broke for identifiers that
  contain ``_on_`` and silently skipped MVs whose template binding had
  gone stale).  Only the
  :class:`~repro.tuning.background.BackgroundComputeService` branches
  on its type.
- :class:`Recommendation` — one proposal's lifecycle
  (``PROPOSED -> ACCEPTED -> APPLYING -> APPLIED -> ROLLING_BACK ->
  ROLLED_BACK``, with ``REJECTED`` and ``FAILED`` beside) with the
  What-If :class:`~repro.tuning.whatif.TuningReport` attached and the
  undo snapshot captured at apply time.  It is the one record of that
  lifecycle: the warehouse ledger holds it
  (:attr:`~repro.core.ledger.Ledger.recommendations`), and from an
  apply's intent on every move is a journal record the ledger folds
  into it, so a recovered warehouse lists and rolls back what a live
  one applied.
- :class:`TuningService` — owned by the warehouse; holds one persistent
  :class:`~repro.tuning.whatif.WhatIfService` /
  :class:`~repro.tuning.advisor.AutoTuningAdvisor` /
  :class:`~repro.tuning.background.BackgroundComputeService` and exposes
  ``propose() / apply(rec) / apply_all() / rollback(rec)``; its
  ``recommendations`` are a view of the ledger's.  Apply and
  rollback are transactional over the catalog (state snapshotted before
  mutation), flush the warehouse's plan and skeleton caches so serving
  never reuses a pre-tuning plan (the catalog change re-binds every
  template), and meter background dollars
  into the originating tenants' :class:`~repro.core.ledger.TenantBill`\\ s.
  The advisor reads ``warehouse.template_queries``, derived from the log
  under the current catalog, so it sees the post-tuning bindings at once.
- :class:`TuningPolicy` — cadence, storage budget, tenant scope, and
  forecast-fed auto-apply thresholds, so the serving layer
  (:class:`~repro.core.service.Session` /
  :class:`~repro.core.service.ServingScheduler`) can drive recurring
  cycles between batches.

Following *Saving Money for Analytical Workloads in the Cloud*
(Srivastava et al.): dollar-valued actions must stay revisitable and
reversible as workloads drift, not fire-and-forget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterable

from repro.core.journal import (
    RollbackCommit,
    RollbackIntent,
    TuningCommit,
    TuningFailed,
    TuningIntent,
    UndoSnapshot,
    shares_tuple,
)
from repro.core.resilience import CircuitBreaker
from repro.errors import ReproError, TuningError, TuningStateError
from repro.statsvc.logs import QueryLogStore, TenantLogView
from repro.tuning.advisor import AutoTuningAdvisor
from repro.tuning.background import BackgroundComputeService
from repro.tuning.whatif import TuningReport, WhatIfService

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.warehouse import CostIntelligentWarehouse
    from repro.tuning.clustering import ReclusterCandidate
    from repro.tuning.mv import MVCandidate


# --------------------------------------------------------------------- #
# Recommendation lifecycle
# --------------------------------------------------------------------- #
class RecommendationState(Enum):
    """Lifecycle states of one tuning recommendation."""

    PROPOSED = "proposed"
    ACCEPTED = "accepted"
    APPLYING = "applying"
    APPLIED = "applied"
    REJECTED = "rejected"
    ROLLING_BACK = "rolling_back"
    ROLLED_BACK = "rolled_back"
    FAILED = "failed"


#: Legal transitions; anything else raises TuningStateError.  The
#: service makes the unjournaled ones (accept, reject, an apply that
#: fails before its intent); the ledger's record handlers make the rest.
_TRANSITIONS: dict[RecommendationState, set[RecommendationState]] = {
    RecommendationState.PROPOSED: {
        RecommendationState.ACCEPTED,
        RecommendationState.REJECTED,
    },
    RecommendationState.ACCEPTED: {
        RecommendationState.APPLYING,
        RecommendationState.REJECTED,
        RecommendationState.FAILED,
    },
    RecommendationState.REJECTED: {RecommendationState.ACCEPTED},
    RecommendationState.APPLYING: {
        RecommendationState.APPLIED,
        RecommendationState.FAILED,
    },
    RecommendationState.APPLIED: {RecommendationState.ROLLING_BACK},
    RecommendationState.ROLLING_BACK: {
        RecommendationState.ROLLED_BACK,
        RecommendationState.APPLIED,
    },
    RecommendationState.ROLLED_BACK: set(),
    RecommendationState.FAILED: set(),
}


@dataclass
class Recommendation:
    """One priced tuning proposal and its apply/rollback lifecycle.

    Carries the What-If :class:`~repro.tuning.whatif.TuningReport`,
    whose candidate is the action (:attr:`action`), and the
    tenant-attribution shares used to meter background spend.  The
    journaled intent sets ``undo``; a failure sets ``error`` to its
    message (the exception itself is raised to the caller).
    """

    rec_id: int
    report: TuningReport
    state: RecommendationState = RecommendationState.PROPOSED
    tenant_shares: dict[str, float] = field(default_factory=dict)
    error: str | None = None
    undo: UndoSnapshot | None = field(default=None, repr=False)
    #: Set by recovery when it resolved this recommendation from an
    #: in-doubt state: "forward" (rollback completed) or "back" (apply
    #: undone).
    resolution: str | None = None

    @property
    def action(self) -> "MVCandidate | ReclusterCandidate":
        """The tuning action: the candidate the What-If Service priced."""
        return self.report.candidate

    @property
    def applied(self) -> bool:
        return self.state is RecommendationState.APPLIED

    @property
    def accepted(self) -> bool:
        return self.state is RecommendationState.ACCEPTED

    def describe(self) -> str:
        from repro.util.units import fmt_dollars

        return (
            f"[{self.state.value}] #{self.rec_id} {self.action.name} "
            f"({self.action.kind}) net={fmt_dollars(self.report.net_per_hour)}/h"
        )


# --------------------------------------------------------------------- #
# Policy
# --------------------------------------------------------------------- #
#: The net savings rate ($/hour) a recommendation must reach to be
#: applied automatically.
AUTO_APPLY_NET_THRESHOLD = 0.0


@dataclass(frozen=True)
class TuningPolicy:
    """When and how aggressively the warehouse tunes itself.

    ``cadence_queries`` / ``cadence_seconds`` make the service recurring:
    the serving layer calls :meth:`TuningService.maybe_run_cycle` after
    every batch, and a cycle runs when the batch crossed a multiple of
    either cadence (``cadence_queries`` counts the warehouse-wide log's
    query ids, ``cadence_seconds`` the virtual clock — O(1) checks of
    ledger state, so a recovered warehouse tunes when the live one
    would).
    ``tenant`` scopes the advisor's input to one tenant's log view.
    Auto-apply is forecast-fed: a recommendation is applied without a
    human in the loop only when its net rate clears
    :data:`AUTO_APPLY_NET_THRESHOLD` *and* its break-even horizon
    (one-time cost divided by the forecast-driven net rate) is within
    ``auto_apply_break_even_hours``.
    """

    cadence_queries: int | None = None
    cadence_seconds: float | None = None
    tenant: str | None = None
    auto_apply: bool = False
    auto_apply_break_even_hours: float = float("inf")

    def __post_init__(self) -> None:
        if self.cadence_queries is not None and self.cadence_queries < 1:
            raise TuningError(
                f"cadence_queries must be >= 1, got {self.cadence_queries}"
            )
        if self.cadence_seconds is not None and self.cadence_seconds <= 0:
            raise TuningError(
                f"cadence_seconds must be positive, got {self.cadence_seconds}"
            )

    @property
    def recurring(self) -> bool:
        """Whether the serving layer should drive cycles automatically."""
        return self.cadence_queries is not None or self.cadence_seconds is not None

    def auto_apply_allows(self, report: TuningReport) -> bool:
        """The forecast-fed auto-apply gate for one accepted report."""
        if not self.auto_apply:
            return False
        if report.net_per_hour < AUTO_APPLY_NET_THRESHOLD:
            return False
        return report.break_even_hours <= self.auto_apply_break_even_hours


# --------------------------------------------------------------------- #
# Service
# --------------------------------------------------------------------- #
class TuningService:
    """The warehouse's persistent auto-tuning service.

    Owns one What-If Service, one advisor, and one background-compute
    executor for the warehouse's lifetime, lists the ledger's
    :class:`Recommendation`\\ s, and guarantees serving-layer
    coherence: every apply/rollback flushes the plan and skeleton caches
    (its catalog change re-binds every template), and registers /
    unregisters applied MVs with the serving path's rewriter.
    """

    def __init__(
        self,
        warehouse: "CostIntelligentWarehouse",
        policy: TuningPolicy | None = None,
    ) -> None:
        self.warehouse = warehouse
        self.policy = policy or TuningPolicy()
        self.whatif = WhatIfService(warehouse.catalog, warehouse.estimator)
        self.advisor = AutoTuningAdvisor(warehouse.catalog, self.whatif)
        self.background = BackgroundComputeService(
            database=warehouse.database,
            catalog=warehouse.catalog,
            faults=warehouse.fault_port,
        )
        self.cycles_run = 0
        #: Failure-domain observability: background cycles swallow
        #: ``ReproError`` by design (tuning must never fail foreground
        #: serving), but swallowed errors must not *vanish* — the last
        #: one is kept here, and each is counted into the circuit
        #: breaker that stops a persistently failing tuner from
        #: burning background dollars.  Surfaced by
        #: ``warehouse.describe_health()``.
        self.last_error: Exception | None = None
        self.breaker = CircuitBreaker("tuning")

    # -- observability -------------------------------------------------- #
    @property
    def recommendations(self) -> list[Recommendation]:
        """Every recommendation the ledger holds, by id: this process's
        proposals and every journaled one, recovered ones included."""
        return sorted(
            self.warehouse.ledger.recommendations.values(),
            key=lambda rec: rec.rec_id,
        )

    @property
    def applied_recommendations(self) -> list[Recommendation]:
        return [r for r in self.recommendations if r.applied]

    def describe(self) -> str:
        lines = [
            f"tuning service: {self.cycles_run} cycles, "
            f"{len(self.recommendations)} recommendations, "
            f"${self.warehouse.background_dollars:.4f} background spend"
        ]
        lines.extend(rec.describe() for rec in self.recommendations)
        return "\n".join(lines)

    # -- proposal -------------------------------------------------------- #
    def propose(self) -> list[Recommendation]:
        """One advisor cycle over the (policy-scoped) logged workload.

        Every priced proposal becomes a :class:`Recommendation`; the
        advisor's greedy budget selection moves winners to ``ACCEPTED``
        and the rest to ``REJECTED`` (a rejected recommendation can be
        re-accepted manually via :meth:`accept`).
        """
        store = self._scoped_logs()
        proposals = self.advisor.propose(store, self.warehouse.template_queries)
        accepted_ids = {id(report) for report in proposals.accepted}
        recommendations: list[Recommendation] = []
        for report in proposals.reports:
            rec = Recommendation(
                rec_id=self.warehouse.ledger.issue_rec_id(),
                report=report,
                tenant_shares=self._tenant_shares(store, report),
            )
            self._transition(
                rec,
                RecommendationState.ACCEPTED
                if id(report) in accepted_ids
                else RecommendationState.REJECTED,
            )
            self._enter(rec)
            recommendations.append(rec)
        self.cycles_run += 1
        return recommendations

    def accept(self, rec: Recommendation) -> Recommendation:
        """Manually accept a proposed/rejected recommendation."""
        self._transition(rec, RecommendationState.ACCEPTED)
        return rec

    def reject(self, rec: Recommendation) -> Recommendation:
        """Manually reject a proposed/accepted recommendation."""
        self._transition(rec, RecommendationState.REJECTED)
        return rec

    # -- apply / rollback ------------------------------------------------ #
    def apply(self, rec: Recommendation) -> Recommendation:
        """Apply one accepted recommendation on background compute.

        A **two-record protocol** over the warehouse ledger
        (:mod:`repro.core.ledger`), which holds ``rec`` and moves it: a
        :class:`~repro.core.journal.TuningIntent` carrying its report
        (whose candidate is the action) and the pre-mutation
        :class:`~repro.core.journal.UndoSnapshot` is committed before
        the catalog mutates (``APPLYING``), and a
        :class:`~repro.core.journal.TuningCommit` after (``APPLIED``) —
        whose effects register an applied MV with the serving rewriter
        and meter the one-time dollars into the originating tenants'
        bills.  A crash between the two leaves the apply
        *in doubt*; recovery rolls it back via the journaled snapshot
        (see :mod:`repro.core.recovery`).  On success the plan caches
        are flushed: serving must never reuse a pre-tuning plan.  Another
        object under an id the ledger holds raises ``TuningStateError``.
        """
        ledger = self.warehouse.ledger
        with ledger.lock:
            held = ledger.recommendations.get(rec.rec_id, rec)
            self._check(held, RecommendationState.APPLYING)
            self._enter(rec)
        background = self.background
        try:
            undo = background.capture_undo(rec.report)
        except Exception as exc:
            # Before the intent nothing is journaled or mutated.
            rec.error = str(exc)
            self._transition(rec, RecommendationState.FAILED)
            raise
        ledger.commit(
            TuningIntent(rec.rec_id, rec.report, undo, shares_tuple(rec.tenant_shares))
        )
        try:
            background.apply(rec.action, undo)
        except Exception as exc:
            # Nothing mutated (an apply is all-or-nothing before its
            # first catalog write), so the intent is closed as failed
            # rather than left in doubt.
            self._fail(rec, exc)
            raise
        ledger.commit(TuningCommit(rec_id=rec.rec_id))
        self.warehouse.invalidate_plan_cache()
        return rec

    def apply_all(
        self, recommendations: Iterable[Recommendation] | None = None
    ) -> list[Recommendation]:
        """Apply every accepted recommendation (default: all pending).

        A recommendation that fails to apply (e.g. a duplicate of one
        already applied in an earlier cycle) is marked ``FAILED`` with
        the error carried on it, and the batch proceeds — one bad action
        must not strand later accepted recommendations half-applied.
        Returns the successfully applied recommendations.
        """
        targets = (
            list(recommendations)
            if recommendations is not None
            else [r for r in self.recommendations if r.accepted]
        )
        applied: list[Recommendation] = []
        for rec in targets:
            if not rec.accepted:
                continue
            try:
                applied.append(self.apply(rec))
            except ReproError as exc:
                self.last_error = exc
                continue  # carried on rec.error, state FAILED
        return applied

    def rollback(self, rec: Recommendation) -> Recommendation:
        """Reverse an applied recommendation.

        Physically restores the snapshotted prior state (bit-identical
        catalog entries; for reclustering, the exact prior stored
        table), meters the reversal's cost, and flushes the plan caches
        so serving immediately returns to pre-tuning plans.  The mirror
        protocol of :meth:`apply` (``ROLLING_BACK``, then
        ``ROLLED_BACK``): the recommendation keeps its apply-time
        snapshot, so if the process dies mid-rollback, recovery
        completes the reversal forward; a rollback that fails before
        mutating leaves it ``APPLIED``, to be rolled back again.

        A journaled recommendation is named by its id: an object held
        across a recovery rolls back the recovered one, which is the
        object this returns and moves.
        """
        ledger = self.warehouse.ledger
        with ledger.lock:
            rec = self._held(rec)
            self._check(rec, RecommendationState.ROLLING_BACK)
            ledger.commit(RollbackIntent(rec_id=rec.rec_id))
        try:
            self.background.rollback(rec.action, rec.undo)
        except Exception as exc:
            # Close the in-doubt window: an in-process rollback failure
            # (fault fired before anything mutated) leaves the action
            # applied, and a later crash recovery must not complete it
            # forward.
            self._fail(rec, exc)
            raise
        ledger.commit(RollbackCommit(rec_id=rec.rec_id))
        self.warehouse.invalidate_plan_cache()
        return rec

    def _fail(self, rec: Recommendation, exc: Exception) -> None:
        """An in-process apply / rollback failure after its intent:
        committed as ``TuningFailed``, whose message the ledger sets as
        the recommendation's ``error``."""
        self.warehouse.ledger.commit(
            TuningFailed(rec_id=rec.rec_id, message=str(exc))
        )

    # -- recurring cycles ------------------------------------------------ #
    def maybe_run_cycle(
        self, since_query_id: int, since_clock: float
    ) -> list[Recommendation] | None:
        """Run a cycle if the batch just served crossed a multiple of
        the policy's cadence.

        ``since_query_id`` and ``since_clock`` are the newest query id
        and the clock before the batch; the cadence counts from them to
        the ledger's values now, so nothing here is kept between
        batches.  Called by the serving layer between batches.
        Auto-applies the accepted recommendations that clear the
        policy's forecast-fed gate.  Returns the cycle's
        recommendations, or ``None`` when no cycle was due.
        """
        policy = self.policy
        warehouse = self.warehouse
        # The tenant scope, if any, applies to the advisor's *input*,
        # not the trigger.
        due = (
            policy.cadence_queries is not None
            and warehouse.logs.last_query_id // policy.cadence_queries
            > since_query_id // policy.cadence_queries
        ) or (
            policy.cadence_seconds is not None
            and warehouse.clock // policy.cadence_seconds
            > since_clock // policy.cadence_seconds
        )
        if not due:
            return None
        if not self.breaker.allow():
            # OPEN: a persistently failing tuner must stop burning
            # background dollars; the breaker's call-counted cooldown
            # re-probes after enough skipped cycles.
            return None
        # Background tuning must never fail foreground serving: any
        # library error (bind/execution/catalog, not just TuningError)
        # stays on the recommendation / is dropped — but never silently:
        # it is recorded on ``last_error`` and counted into the breaker.
        # A poisoned cycle waits for the next cadence multiple.
        try:
            recommendations = self.propose()
        except ReproError as exc:
            self._note_cycle_failure(exc)
            return None
        cycle_error: Exception | None = None
        for rec in recommendations:
            if rec.accepted and self.policy.auto_apply_allows(rec.report):
                try:
                    self.apply(rec)
                except ReproError as exc:
                    cycle_error = exc  # carried on rec.error, state FAILED
                    continue
        if cycle_error is not None:
            self._note_cycle_failure(cycle_error)
        else:
            self._note_cycle_success()
        return recommendations

    def _note_cycle_failure(self, exc: Exception) -> None:
        self.last_error = exc
        self.breaker.record_failure()

    def _note_cycle_success(self) -> None:
        self.breaker.record_success()

    # -- internals ------------------------------------------------------- #
    def _scoped_logs(self) -> "QueryLogStore | TenantLogView":
        if self.policy.tenant is not None:
            return self.warehouse.logs.for_tenant(self.policy.tenant)
        return self.warehouse.logs

    def _tenant_shares(
        self, store: "QueryLogStore | TenantLogView", report: TuningReport
    ) -> dict[str, float]:
        templates = {impact.template for impact in report.impacts}
        counts = store.tenant_counts(templates)
        total = sum(counts.values())
        if not total:
            return {}
        return {tenant: count / total for tenant, count in counts.items()}

    def _enter(self, rec: Recommendation) -> None:
        """Hold the caller's object in the ledger, for its records to
        move; an id the ledger holds is never handed to another object."""
        ledger = self.warehouse.ledger
        with ledger.lock:
            held = ledger.recommendations.setdefault(rec.rec_id, rec)
        if held is not rec:
            raise TuningStateError(
                f"recommendation #{rec.rec_id} is held by the ledger as "
                "another object",
                state=held.state.value,
            )

    def _held(self, rec: Recommendation) -> Recommendation:
        """The ledger's object for ``rec``: ``rec`` itself, or the one
        recovery rebuilt from the journal for a journaled copy of it
        (same action, ``undo`` set) that outlived the crash."""
        held = self.warehouse.ledger.recommendations.get(rec.rec_id)
        if held is rec or (
            held is not None
            and rec.undo is not None
            and held.action == rec.action
        ):
            return held
        raise TuningStateError(
            f"recommendation #{rec.rec_id} is not held by this warehouse's "
            "ledger",
            state=rec.state.value,
        )

    def _check(self, rec: Recommendation, target: RecommendationState) -> None:
        if target not in _TRANSITIONS[rec.state]:
            raise TuningStateError(
                f"recommendation #{rec.rec_id} cannot move "
                f"{rec.state.value!r} -> {target.value!r}",
                state=rec.state.value,
            )

    def _transition(
        self, rec: Recommendation, target: RecommendationState
    ) -> None:
        self._check(rec, target)
        rec.state = target
