"""Tuning-layer request model: typed actions, Recommendations, TuningService.

Mirror of the serving redesign in :mod:`repro.core.service`: tuning is a
long-lived *service* owned by the warehouse, not a one-shot call.  The
paper's §4 loop (Statistics Service -> What-If pricing -> background
compute) keeps its components, but the API around them becomes:

- :class:`TuningAction` — a frozen, typed action hierarchy
  (:class:`MaterializeView`, :class:`Recluster`).  Each action *carries
  its candidate object* end-to-end, so nothing downstream ever
  re-derives a candidate by parsing ``action_name`` strings (the old
  ``recluster_<table>_on_<key>`` round-trip broke for identifiers that
  contain ``_on_`` and silently skipped MVs whose template binding had
  gone stale).
- :class:`Recommendation` — one proposal's lifecycle
  (``PROPOSED -> ACCEPTED -> APPLYING -> APPLIED / REJECTED /
  ROLLED_BACK / FAILED``) with per-stage wall timings, the What-If
  :class:`~repro.tuning.whatif.TuningReport` attached, and the undo
  snapshot captured at apply time.
- :class:`TuningService` — owned by the warehouse; holds one persistent
  :class:`~repro.tuning.whatif.WhatIfService` /
  :class:`~repro.tuning.advisor.AutoTuningAdvisor` /
  :class:`~repro.tuning.background.BackgroundComputeService` and exposes
  ``propose() / apply(rec) / apply_all() / rollback(rec)``.  Apply and
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

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, ClassVar, Iterable

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
from repro.tuning.advisor import AdvisorProposals, AutoTuningAdvisor
from repro.tuning.background import BackgroundComputeService
from repro.tuning.clustering import ReclusterCandidate
from repro.tuning.mv import MVCandidate
from repro.tuning.whatif import TuningReport, WhatIfService
from repro.util.units import GB

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.warehouse import CostIntelligentWarehouse


# --------------------------------------------------------------------- #
# Typed actions
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class TuningAction:
    """Base class for typed tuning actions.

    Subclasses are frozen value objects that carry the candidate the
    What-If Service priced, so apply/rollback operate on the exact
    object that was evaluated.
    """

    kind: ClassVar[str] = "abstract"

    @property
    def name(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class MaterializeView(TuningAction):
    """Build (and register) an aggregate materialized view."""

    candidate: MVCandidate
    kind: ClassVar[str] = "materialized-view"

    @property
    def name(self) -> str:
        return self.candidate.name


@dataclass(frozen=True)
class Recluster(TuningAction):
    """Re-sort a table on a new clustering key."""

    candidate: ReclusterCandidate
    kind: ClassVar[str] = "recluster"

    @property
    def name(self) -> str:
        return self.candidate.name


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
    ROLLED_BACK = "rolled_back"
    FAILED = "failed"


#: Legal forward transitions; anything else raises TuningStateError.
_TRANSITIONS: dict[RecommendationState, set[RecommendationState]] = {
    RecommendationState.PROPOSED: {
        RecommendationState.ACCEPTED,
        RecommendationState.REJECTED,
    },
    RecommendationState.ACCEPTED: {
        RecommendationState.APPLYING,
        RecommendationState.REJECTED,
    },
    RecommendationState.REJECTED: {RecommendationState.ACCEPTED},
    RecommendationState.APPLYING: {
        RecommendationState.APPLIED,
        RecommendationState.FAILED,
    },
    RecommendationState.APPLIED: {
        RecommendationState.ROLLED_BACK,
        RecommendationState.FAILED,
    },
    RecommendationState.ROLLED_BACK: set(),
    RecommendationState.FAILED: set(),
}


@dataclass
class Recommendation:
    """One priced tuning proposal and its apply/rollback lifecycle.

    Carries the typed :class:`TuningAction` (with its candidate object),
    the What-If :class:`~repro.tuning.whatif.TuningReport`, per-stage
    wall timings (``propose`` / ``apply`` / ``rollback``), and the
    tenant-attribution shares used to meter background spend.
    """

    rec_id: int
    action: TuningAction
    report: TuningReport
    state: RecommendationState = RecommendationState.PROPOSED
    tenant_shares: dict[str, float] = field(default_factory=dict)
    stage_timings: dict[str, float] = field(default_factory=dict)
    error: Exception | None = None
    _undo: UndoSnapshot | None = field(default=None, repr=False)

    @property
    def applied(self) -> bool:
        return self.state is RecommendationState.APPLIED

    @property
    def accepted(self) -> bool:
        return self.state is RecommendationState.ACCEPTED

    def describe(self) -> str:
        from repro.util.units import fmt_dollars

        head = (
            f"[{self.state.value}] #{self.rec_id} {self.action.name} "
            f"({self.action.kind}) net={fmt_dollars(self.report.net_per_hour)}/h"
        )
        if self.stage_timings:
            stages = ", ".join(
                f"{name}={seconds * 1e3:.2f}ms"
                for name, seconds in self.stage_timings.items()
            )
            head += f"\n  stages: {stages}"
        return head


# --------------------------------------------------------------------- #
# Policy
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class TuningPolicy:
    """When and how aggressively the warehouse tunes itself.

    ``cadence_queries`` / ``cadence_seconds`` make the service recurring:
    the serving layer calls :meth:`TuningService.maybe_run_cycle` after
    every batch, and a cycle runs when either cadence has elapsed
    (``cadence_queries`` counts the warehouse-wide log — an O(1) check).
    ``tenant`` scopes the advisor's input to one tenant's log view.
    Auto-apply is forecast-fed: a recommendation is applied without a
    human in the loop only when its net rate clears
    ``auto_apply_net_threshold`` *and* its break-even horizon (one-time
    cost divided by the forecast-driven net rate) is within
    ``auto_apply_break_even_hours``.
    """

    cadence_queries: int | None = None
    cadence_seconds: float | None = None
    tenant: str | None = None
    storage_budget_bytes: float = 50 * GB
    min_forecast_observations: int = 2
    auto_apply: bool = False
    auto_apply_net_threshold: float = 0.0
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
        if report.net_per_hour < self.auto_apply_net_threshold:
            return False
        return report.break_even_hours <= self.auto_apply_break_even_hours


# --------------------------------------------------------------------- #
# Service
# --------------------------------------------------------------------- #
class TuningService:
    """The warehouse's persistent auto-tuning service.

    Owns one What-If Service, one advisor, and one background-compute
    executor for the warehouse's lifetime, keeps the
    full :class:`Recommendation` history, and guarantees serving-layer
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
        self.advisor = AutoTuningAdvisor(
            warehouse.catalog,
            self.whatif,
            storage_budget_bytes=self.policy.storage_budget_bytes,
            min_template_count=self.policy.min_forecast_observations,
        )
        self.background = BackgroundComputeService(
            database=warehouse.database,
            catalog=warehouse.catalog,
            ledger=warehouse.ledger.background_spend,
            faults=warehouse.fault_port,
        )
        #: Full recommendation history, every cycle, every state.
        self.recommendations: list[Recommendation] = []
        #: The raw advisor output of the latest cycle (legacy shape).
        self.last_proposals: AdvisorProposals | None = None
        self.cycles_run = 0
        #: Failure-domain observability: background cycles swallow
        #: ``ReproError`` by design (tuning must never fail foreground
        #: serving), but swallowed errors must not *vanish* — the last
        #: one is kept here, and the consecutive-failure count feeds the
        #: circuit breaker that stops a persistently failing tuner from
        #: burning background dollars.  Surfaced by
        #: ``warehouse.describe_health()``.
        self.last_error: Exception | None = None
        self.consecutive_failures = 0
        self.breaker = CircuitBreaker("tuning")
        self._last_cycle_log_len = 0
        self._last_cycle_clock: float | None = None

    # -- observability -------------------------------------------------- #
    @property
    def background_dollars(self) -> float:
        """Total background-compute spend across applies and rollbacks."""
        return self.background.total_spend

    @property
    def applied_recommendations(self) -> list[Recommendation]:
        return [r for r in self.recommendations if r.applied]

    def describe(self) -> str:
        lines = [
            f"tuning service: {self.cycles_run} cycles, "
            f"{len(self.recommendations)} recommendations, "
            f"${self.background_dollars:.4f} background spend"
        ]
        lines.extend(rec.describe() for rec in self.recommendations)
        return "\n".join(lines)

    # -- proposal -------------------------------------------------------- #
    def propose(
        self, *, storage_budget_bytes: float | None = None
    ) -> list[Recommendation]:
        """One advisor cycle over the (policy-scoped) logged workload.

        Every priced proposal becomes a :class:`Recommendation`; the
        advisor's greedy budget selection moves winners to ``ACCEPTED``
        and the rest to ``REJECTED`` (a rejected recommendation can be
        re-accepted manually via :meth:`accept`).
        """
        store = self._scoped_logs()
        start = time.perf_counter()
        proposals = self.advisor.propose(
            store,
            self.warehouse.template_queries,
            storage_budget_bytes=storage_budget_bytes,
        )
        elapsed = time.perf_counter() - start
        self.last_proposals = proposals
        accepted_ids = {id(report) for report in proposals.accepted}
        recommendations: list[Recommendation] = []
        for report in proposals.reports:
            rec = Recommendation(
                rec_id=self.warehouse.ledger.issue_rec_id(),
                action=self._action_for(report),
                report=report,
                tenant_shares=self._tenant_shares(store, report),
            )
            rec.stage_timings["propose"] = elapsed
            self._transition(
                rec,
                RecommendationState.ACCEPTED
                if id(report) in accepted_ids
                else RecommendationState.REJECTED,
            )
            recommendations.append(rec)
            self.recommendations.append(rec)
        self.cycles_run += 1
        self._last_cycle_log_len = len(self.warehouse.logs)
        self._last_cycle_clock = self.warehouse.clock
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
        (:mod:`repro.core.ledger`): a
        :class:`~repro.core.journal.TuningIntent` carrying the
        pre-mutation :class:`~repro.core.journal.UndoSnapshot` is
        committed before the catalog mutates, and a
        :class:`~repro.core.journal.TuningCommit` after — whose effects
        register an applied MV with the serving rewriter, meter the
        one-time dollars into the originating tenants' bills and list
        the background spend.  A crash between the two leaves the apply
        *in doubt*; recovery rolls it back via the journaled snapshot
        (see :mod:`repro.core.recovery`).  On success the plan caches
        are flushed: serving must never reuse a pre-tuning plan.
        """
        ledger = self.warehouse.ledger
        action, report = rec.action, rec.report
        ident = {"rec_id": rec.rec_id, "name": action.name, "kind": action.kind}
        shares = shares_tuple(rec.tenant_shares)
        self._transition(rec, RecommendationState.APPLYING)
        start = time.perf_counter()
        try:
            undo = self._capture_undo(action, report)
            ledger.commit(TuningIntent(**ident, undo=undo, tenant_shares=shares))
            self._dispatch_apply(action, undo)
        except Exception as exc:
            # Nothing mutated (dispatch is all-or-nothing before its
            # first catalog write), so the intent is closed as failed
            # rather than left in doubt.
            self._fail(rec, "apply", start, exc)
            raise
        rec._undo = undo
        ledger.commit(
            TuningCommit(
                **ident,
                dollars=report.one_time_dollars,
                tenant_shares=shares,
                candidate=action.candidate
                if isinstance(action, MaterializeView)
                else None,
                physical=undo.physical,
            )
        )
        self.warehouse.invalidate_plan_cache()
        rec.stage_timings["apply"] = time.perf_counter() - start
        self._transition(rec, RecommendationState.APPLIED)
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
        protocol of :meth:`apply`: the
        :class:`~repro.core.journal.RollbackIntent` carries the
        apply-time snapshot, so if the process dies mid-rollback,
        recovery completes the reversal forward.
        """
        if rec.state is not RecommendationState.APPLIED:
            raise TuningStateError(
                f"cannot roll back recommendation #{rec.rec_id} in state "
                f"{rec.state.value!r}; only applied recommendations roll back",
                state=rec.state.value,
            )
        assert rec._undo is not None
        ledger = self.warehouse.ledger
        action, undo = rec.action, rec._undo
        ident = {"rec_id": rec.rec_id, "name": action.name, "kind": action.kind}
        spend = {
            "dollars": undo.dollars,
            "tenant_shares": shares_tuple(rec.tenant_shares),
        }
        start = time.perf_counter()
        ledger.commit(RollbackIntent(**ident, undo=undo, **spend))
        try:
            self.background.rollback(undo)
        except Exception as exc:
            # Close the in-doubt window: an in-process rollback failure
            # (fault fired before anything mutated) must not be
            # "completed forward" by a later crash recovery.
            self._fail(rec, "rollback", start, exc)
            raise
        ledger.commit(
            RollbackCommit(
                **ident,
                **spend,
                candidate=action.candidate
                if isinstance(action, MaterializeView)
                else None,
                physical=undo.physical,
            )
        )
        self.warehouse.invalidate_plan_cache()
        rec.stage_timings["rollback"] = time.perf_counter() - start
        rec._undo = None
        self._transition(rec, RecommendationState.ROLLED_BACK)
        return rec

    def _fail(
        self, rec: Recommendation, stage: str, start: float, exc: Exception
    ) -> None:
        """An in-process apply / rollback failure: carried on the
        recommendation and committed as ``TuningFailed``."""
        rec.error = exc
        rec.stage_timings[stage] = time.perf_counter() - start
        self.warehouse.ledger.commit(
            TuningFailed(
                rec_id=rec.rec_id,
                name=rec.action.name,
                kind=rec.action.kind,
                message=str(exc),
            )
        )
        self._transition(rec, RecommendationState.FAILED)

    # -- recurring cycles ------------------------------------------------ #
    def maybe_run_cycle(self) -> list[Recommendation] | None:
        """Run a cycle if the policy's cadence has elapsed.

        Called by the serving layer between batches.  Auto-applies the
        accepted recommendations that clear the policy's forecast-fed
        gate.  Returns the cycle's recommendations, or ``None`` when no
        cycle was due (or the log was empty).
        """
        if not self.policy.recurring:
            return None
        due = False
        if self.policy.cadence_queries is not None:
            # Cadence counts the shared log (O(1) length check — this
            # runs after every submit); the tenant scope, if any,
            # applies to the advisor's *input*, not the trigger.
            due = (
                len(self.warehouse.logs) - self._last_cycle_log_len
                >= self.policy.cadence_queries
            )
        if not due and self.policy.cadence_seconds is not None:
            due = (
                self._last_cycle_clock is None
                or self.warehouse.clock - self._last_cycle_clock
                >= self.policy.cadence_seconds
            )
        if not due:
            return None
        if not self.breaker.allow():
            # OPEN: a persistently failing tuner must stop burning
            # background dollars.  The cadence advances so the skipped
            # cycle is not re-attempted after every query; the breaker's
            # call-counted cooldown re-probes after enough skipped
            # cycles.
            self._last_cycle_log_len = len(self.warehouse.logs)
            self._last_cycle_clock = self.warehouse.clock
            return None
        # Background tuning must never fail foreground serving: any
        # library error (bind/execution/catalog, not just TuningError)
        # stays on the recommendation / is dropped — but never silently:
        # it is recorded on ``last_error`` and counted into the breaker.
        # The cadence counters advance so a poisoned cycle is not
        # retried per query.
        try:
            recommendations = self.propose()
        except ReproError as exc:
            self._last_cycle_log_len = len(self.warehouse.logs)
            self._last_cycle_clock = self.warehouse.clock
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
        self.consecutive_failures += 1
        self.breaker.record_failure()

    def _note_cycle_success(self) -> None:
        self.consecutive_failures = 0
        self.breaker.record_success()

    # -- internals ------------------------------------------------------- #
    def _scoped_logs(self) -> "QueryLogStore | TenantLogView":
        if self.policy.tenant is not None:
            return self.warehouse.logs.for_tenant(self.policy.tenant)
        return self.warehouse.logs

    def _action_for(self, report: TuningReport) -> TuningAction:
        candidate = report.candidate
        if isinstance(candidate, MVCandidate):
            return MaterializeView(candidate)
        if isinstance(candidate, ReclusterCandidate):
            return Recluster(candidate)
        raise TuningError(
            f"report {report.action_name!r} carries no typed candidate "
            "(was it produced by the What-If Service?)"
        )

    def _capture_undo(
        self, action: TuningAction, report: TuningReport
    ) -> UndoSnapshot:
        if isinstance(action, (MaterializeView, Recluster)):
            return self.background.capture_undo(action.candidate, report)
        raise TuningError(
            f"no background executor for {action.kind!r} actions yet"
        )

    def _dispatch_apply(self, action: TuningAction, undo: UndoSnapshot) -> None:
        if isinstance(action, MaterializeView):
            name = action.candidate.name
            catalog = self.warehouse.catalog
            if catalog.has_view(name) or catalog.has_table(name):
                raise TuningError(
                    f"{name!r} already exists in the catalog; roll the prior "
                    "application back (or rename the candidate) first"
                )
            self.background.apply_mv(action.candidate, undo)
        else:
            self.background.apply_recluster(action.candidate, undo)

    def _tenant_shares(
        self, store: "QueryLogStore | TenantLogView", report: TuningReport
    ) -> dict[str, float]:
        templates = {impact.template for impact in report.impacts}
        counts = store.tenant_counts(templates)
        total = sum(counts.values())
        if not total:
            return {}
        return {tenant: count / total for tenant, count in counts.items()}

    def _transition(
        self, rec: Recommendation, target: RecommendationState
    ) -> None:
        if target not in _TRANSITIONS[rec.state]:
            raise TuningStateError(
                f"recommendation #{rec.rec_id} cannot move "
                f"{rec.state.value!r} -> {target.value!r}",
                state=rec.state.value,
            )
        rec.state = target
