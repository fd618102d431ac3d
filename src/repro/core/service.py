"""Serving-layer request model: QueryRequest -> QueryHandle -> QueryOutcome.

The paper's interaction model (§2) is a *service* contract — "state a
latency SLA or a budget, get results plus an auditable cost report" —
and a service needs more than one blocking call with nine keyword
arguments.  This module is the warehouse's public serving API:

- :class:`QueryRequest` — one frozen value object describing a
  submission: the SQL, the user constraint, and the execution /
  simulation options.
- :class:`QueryHandle` — the lifecycle of one submission
  (``QUEUED -> BOUND -> PLANNED -> SIMULATED -> DONE/FAILED``) with
  per-stage wall timings and ``result()`` returning the
  :class:`QueryOutcome`.  Failures are carried on the handle as
  :class:`~repro.errors.QueryFailedError` (which item, which SQL, what
  cause) instead of aborting a whole batch.
- :class:`Session` — who is asking.  A session carries per-tenant
  defaults (constraint, scaling policy, template namespace), sees an
  isolated per-tenant view of the Statistics Service log, and its
  spending rolls up into the warehouse's per-tenant billing.
- :class:`ServingScheduler` — the one ordered serve loop behind
  ``submit_many``: *dispatch ahead -> collect or stage -> finalize*.
  Staging (plan -> execute -> simulate) is deterministic, so where it
  runs is an executor adapter's business: inline (nothing dispatched),
  a future per handle on a thread pool over the locked plan
  caches, or planning on the warm worker-*process* pool
  (:mod:`repro.core.sharding`).  Finalization (logging and billing)
  runs in submission order on the calling thread, so every batch is
  bit-identical to sequential submission.  Denial,
  ``fail_fast``, throttling, the degraded fallback, failure wrapping and
  the failure counter each exist once: in that loop and in the
  per-handle step :meth:`Session.submit` shares with it.

Per-tenant admission and accounting follows the framing of *Saving Money
for Analytical Workloads in the Cloud* (Srivastava et al.): cost-aware
serving is a multi-tenant scheduling problem, not a single call.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.core.governance import AdmissionVerdict
from repro.core.journal import AdmissionDecision as JournalAdmissionDecision
from repro.core.journal import QueryServed, RetryCharge
from repro.core.ledger import TenantBill
from repro.core.planning import Planned
from repro.core.resilience import StageGuard
from repro.dop.constraints import Constraint
from repro.engine.local_executor import LocalExecutor
from repro.errors import DeadlineExceededError, QueryFailedError, ReproError
from repro.sql.parameterize import parameterize_sql
from repro.statsvc.records import served_record
from repro.util.units import to_ledger_units

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.bioptimizer import PlanChoice
    from repro.core.warehouse import CostIntelligentWarehouse
    from repro.engine.batch import Batch
    from repro.sim.distsim import ScalingPolicy, SimResult
    from repro.sql.binder import BoundQuery
    from repro.statsvc.logs import QueryRecord, TenantLogView


# --------------------------------------------------------------------- #
# Request
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class QueryRequest:
    """One immutable submission: SQL + constraint + serving options.

    Fields left as ``None`` are filled from the submitting
    :class:`Session`'s defaults during resolution; a request without a
    constraint can only be served by a session that carries one.
    """

    sql: str
    constraint: Constraint | None = None
    template: str = "adhoc"
    at_time: float | None = None
    policy: "str | ScalingPolicy | None" = None
    execute_locally: bool = False
    simulate: bool = True
    truth: Mapping[int, float] | None = None
    use_plan_cache: bool = True
    tenant: str | None = None

    def replace(self, **changes) -> "QueryRequest":
        """A copy with the given fields changed (requests are frozen)."""
        return replace(self, **changes)


class QueryState(Enum):
    """Lifecycle states of one submission."""

    QUEUED = "queued"
    BOUND = "bound"
    PLANNED = "planned"
    SIMULATED = "simulated"
    DONE = "done"
    FAILED = "failed"
    #: Terminal: admission control refused the query (tenant budget
    #: exhausted) before any serving work ran.  The handle carries an
    #: :class:`~repro.errors.AdmissionDeniedError`.
    DENIED = "denied"


# --------------------------------------------------------------------- #
# Outcome
# --------------------------------------------------------------------- #
@dataclass
class QueryOutcome:
    """Everything one submission produced."""

    sql: str
    choice: "PlanChoice"
    sim: "SimResult | None"
    batch: "Batch | None"
    record: "QueryRecord"
    constraint: Constraint
    #: Degraded-mode serving: the optimize stage blew its deadline and
    #: the plan is the fallback (``degraded_mode``: ``"skeleton"`` =
    #: cached template shapes re-planned, bit-identical to full
    #: optimization; ``"heuristic"`` = the left-deep default plan).
    degraded: bool = False
    degraded_mode: str | None = None

    @property
    def tenant(self) -> str:
        return self.record.tenant

    @property
    def latency(self) -> float:
        if self.sim is not None:
            return self.sim.latency
        return self.choice.dop_plan.estimate.latency

    @property
    def dollars(self) -> float:
        if self.sim is not None:
            return self.sim.total_dollars
        return self.choice.dop_plan.estimate.total_dollars

    @property
    def sla_met(self) -> bool | None:
        if self.constraint.latency_sla is None:
            return None
        return self.latency <= self.constraint.latency_sla

    @property
    def constraint_met(self) -> bool:
        """Whether the outcome honored the user's constraint — the
        latency SLA or the dollar budget, whichever was stated
        (:attr:`sla_met` is ``None`` for budget-constrained queries;
        this covers both kinds)."""
        if self.constraint.is_sla:
            return self.sla_met  # type: ignore[return-value]
        assert self.constraint.budget is not None
        return self.dollars <= self.constraint.budget

    def describe(self) -> str:
        from repro.util.units import fmt_dollars, fmt_duration

        lines = [
            f"constraint: {self.constraint.describe()}",
            f"plan: {self.choice.describe()}",
            f"outcome: latency={fmt_duration(self.latency)} "
            f"cost={fmt_dollars(self.dollars)}",
            f"constraint met: {self.constraint_met}",
        ]
        if self.degraded:
            lines.append(f"degraded: optimize deadline ({self.degraded_mode} plan)")
        return "\n".join(lines)


# --------------------------------------------------------------------- #
# Handle
# --------------------------------------------------------------------- #
@dataclass
class _Staged:
    """Output of the concurrent stage phase, awaiting ordered finalize."""

    bound: "BoundQuery"
    choice: "PlanChoice"
    batch: "Batch | None"
    sim: "SimResult | None"
    degraded: bool = False
    degraded_mode: str | None = None


class QueryHandle:
    """The observable lifecycle of one submitted :class:`QueryRequest`.

    A handle moves ``QUEUED -> BOUND -> PLANNED [-> SIMULATED] -> DONE``
    (or ``FAILED`` from any state), accumulating wall time per stage in
    :attr:`stage_timings` (keys: ``queued``, ``bind``, ``plan``,
    ``execute``, ``simulate``, ``finalize``).  :meth:`result` returns
    the :class:`QueryOutcome` or raises the carried
    :class:`~repro.errors.QueryFailedError`.
    """

    def __init__(self, request: QueryRequest, index: int = 0) -> None:
        self.request = request
        self.index = index
        self.state = QueryState.QUEUED
        self.stage_timings: dict[str, float] = {}
        self.error: QueryFailedError | None = None
        #: Warehouse-clock admission timestamp (set at admission, used
        #: for the log record — identical to sequential submission).
        self.timestamp: float | None = None
        #: The admission controller's verdict (``None`` when no tenant
        #: budgets are configured — the admit-all fast path).
        self.admission: AdmissionVerdict | None = None
        #: Retry attempts the resilience layer burned staging this
        #: request (their modeled dollars are on the tenant's bill).
        self.retries = 0
        self._outcome: QueryOutcome | None = None
        #: Exactly-once finalize latch (set under the serving lock):
        #: logging and billing must never apply twice to one handle.
        self._finalized = False
        self._last_mark = time.perf_counter()

    # -- lifecycle bookkeeping (serving internals) --------------------- #
    def _advance(self, state: QueryState, stage: str) -> None:
        now = time.perf_counter()
        self.stage_timings[stage] = (
            self.stage_timings.get(stage, 0.0) + now - self._last_mark
        )
        self._last_mark = now
        self.state = state

    def _complete(self, outcome: QueryOutcome) -> None:
        self._outcome = outcome
        self._advance(QueryState.DONE, "finalize")

    def _fail(self, error: QueryFailedError) -> None:
        self.error = error
        self.state = QueryState.FAILED

    def _deny(self, error: QueryFailedError) -> None:
        self.error = error
        self.state = QueryState.DENIED

    # -- public surface ------------------------------------------------ #
    @property
    def done(self) -> bool:
        return self.state in (QueryState.DONE, QueryState.FAILED, QueryState.DENIED)

    @property
    def failed(self) -> bool:
        return self.state is QueryState.FAILED

    @property
    def denied(self) -> bool:
        """Admission control refused this query (budget exhausted)."""
        return self.state is QueryState.DENIED

    @property
    def degraded(self) -> bool:
        """Whether this query was served by the degraded-mode fallback."""
        return self._outcome is not None and self._outcome.degraded

    def result(self) -> QueryOutcome:
        """The outcome; raises the carried error for failed queries."""
        if self.error is not None:
            raise self.error
        if self._outcome is None:
            raise ReproError(
                f"query #{self.index} has not finished serving "
                f"(state: {self.state.value})"
            )
        return self._outcome

    def describe(self) -> str:
        sql = self.request.sql
        head = f"[{self.state.value}] #{self.index} {sql[:60]}"
        if not self.stage_timings:
            return head
        stages = ", ".join(
            f"{name}={seconds * 1e3:.2f}ms"
            for name, seconds in self.stage_timings.items()
        )
        return f"{head}\n  stages: {stages}"


# --------------------------------------------------------------------- #
# Session
# --------------------------------------------------------------------- #
class Session:
    """A tenant's connection to the warehouse.

    Carries per-tenant defaults (constraint, scaling policy, template
    namespace) so requests stay terse, exposes an isolated view of the
    Statistics Service log, and accounts every served query's dollars
    against its tenant in the warehouse's billing roll-up.
    """

    def __init__(
        self,
        warehouse: "CostIntelligentWarehouse",
        *,
        tenant: str = "default",
        constraint: Constraint | None = None,
        policy: "str | ScalingPolicy | None" = None,
        template_namespace: str | None = None,
    ) -> None:
        self.warehouse = warehouse
        self.tenant = tenant
        self.default_constraint = constraint
        self.default_policy = policy
        self.template_namespace = template_namespace

    # -- request resolution -------------------------------------------- #
    def resolve(
        self, request: QueryRequest | str, constraint: Constraint | None = None
    ) -> QueryRequest:
        """Fill a request's open fields from this session's defaults."""
        if isinstance(request, str):
            request = QueryRequest(sql=request, constraint=constraint)
        elif constraint is not None and request.constraint is None:
            request = request.replace(constraint=constraint)
        resolved_constraint = request.constraint or self.default_constraint
        if resolved_constraint is None:
            raise ReproError(
                "no constraint for query: set one on the QueryRequest "
                "or give the session a default"
            )
        template = request.template
        prefix = f"{self.template_namespace}." if self.template_namespace else ""
        if prefix and not template.startswith(prefix):
            # Idempotent: resubmitting an already-resolved request (e.g.
            # ``handle.request``) must not double-prefix the template and
            # split the family in the log / skeleton cache / advisor.
            template = prefix + template
        return request.replace(
            constraint=resolved_constraint,
            template=template,
            policy=request.policy
            if request.policy is not None
            else (self.default_policy or "dop-monitor"),
            tenant=request.tenant or self.tenant,
        )

    # -- submission ----------------------------------------------------- #
    def submit(
        self, request: QueryRequest | str, constraint: Constraint | None = None
    ) -> QueryHandle:
        """Serve one request through the full lifecycle; never raises —
        failures (including resolution failures such as a missing
        constraint) and admission denials are carried on the returned
        handle."""
        try:
            resolved = self.resolve(request, constraint)
        except Exception as exc:  # noqa: BLE001 - carried on the handle
            handle = QueryHandle(_as_request(request, constraint))
            handle._fail(_wrap_failure(handle, exc))
            return handle
        handle = QueryHandle(resolved)
        self._admit([handle])
        if not handle.denied:
            self._serve_handle(handle)
            self.warehouse._between_batches()
        return handle

    def submit_many(
        self,
        items: Iterable["QueryRequest | str | tuple[str, Constraint]"],
        *,
        constraint: Constraint | None = None,
        fail_fast: bool = False,
        max_workers: int = 1,
    ) -> list[QueryHandle]:
        """Serve a batch of requests through the :class:`ServingScheduler`.

        Items are :class:`QueryRequest`\\ s, bare SQL strings (planned
        under ``constraint`` or the session default), or ``(sql,
        constraint)`` pairs.  With ``fail_fast=False`` (default) a
        failing item — including one that fails *resolution*, e.g. a
        bare SQL string with no constraint anywhere, or one *denied* by
        admission control (:class:`~repro.errors.AdmissionDeniedError`,
        handle in the ``DENIED`` state) — is reported on its own handle
        (index + SQL prefix) and the rest of the batch proceeds;
        ``fail_fast=True`` keeps the legacy abort-the-batch behavior.
        ``max_workers`` > 1 stages on a thread pool (unless a planner
        worker-process pool is enabled, which takes precedence) —
        bit-identical to sequential submission either way.
        """
        entries: list[QueryRequest | QueryHandle] = []
        for index, item in enumerate(items):
            try:
                if isinstance(item, (QueryRequest, str)):
                    # resolve() rejects constraint-less items itself.
                    entries.append(self.resolve(item, constraint))
                else:
                    sql, item_constraint = item
                    entries.append(
                        self.resolve(QueryRequest(sql=sql, constraint=item_constraint))
                    )
            except Exception as exc:  # noqa: BLE001 - carried on the handle
                handle = QueryHandle(_as_request(item, constraint), index=index)
                handle._fail(_wrap_failure(handle, exc))
                if fail_fast:
                    raise handle.error from exc
                entries.append(handle)
        scheduler = ServingScheduler(
            self, max_workers=max_workers, fail_fast=fail_fast
        )
        handles = scheduler.run(entries)
        # Recurring tuning runs *between* batches (policy cadence), never
        # while scheduler threads are staging over the shared caches;
        # scheduled cost collection follows the same contract.
        self.warehouse._between_batches()
        return handles

    def plan(
        self,
        sql: str,
        constraint: Constraint | None = None,
        *,
        use_plan_cache: bool = True,
    ) -> "tuple[BoundQuery, PlanChoice]":
        """Bind + optimize without executing or logging (the serving-layer
        planning path; see :meth:`CostIntelligentWarehouse.plan`)."""
        resolved = constraint or self.default_constraint
        if resolved is None:
            raise ReproError(
                "no constraint for query: pass one or give the session a default"
            )
        return self.warehouse.plan(sql, resolved, use_plan_cache=use_plan_cache)

    # -- per-tenant views ----------------------------------------------- #
    @property
    def logs(self) -> "TenantLogView":
        """This tenant's isolated view of the Statistics Service log."""
        return self.warehouse.logs.for_tenant(self.tenant)

    @property
    def bill(self) -> TenantBill:
        """This tenant's running bill (zeroed view if nothing served)."""
        return self.warehouse.billing.get(self.tenant) or TenantBill(self.tenant)

    @property
    def dollars_spent(self) -> float:
        return self.bill.dollars

    # -- serving internals ---------------------------------------------- #
    def _admit(self, handles: list[QueryHandle]) -> None:
        """Admission-check and timestamp handles in submission order.

        Done up front under the serving lock so threaded staging cannot
        perturb the clock semantics sequential submission would have,
        and so the admission controller reads billing state no finalize
        can be mutating concurrently.  When tenant budgets are
        configured, each handle gets the controller's verdict: ``DENY``
        marks the handle ``DENIED`` (typed error, no timestamp — the
        warehouse clock never advances for work that is not served);
        ``DEFER`` leaves the timestamp unassigned, to be granted by a
        re-admission at the tail of the batch; ``ADMIT``/``THROTTLE``
        proceed.  Every verdict is committed to the ledger as an
        ``AdmissionDecision`` (its transition counts it), in handle
        order.  Each admitted handle also *reserves* its tenant's
        historical average cost per query, so a long batch from one
        tenant escalates mid-batch (to THROTTLE, then DEFER — whose
        tail re-check sees the real dollars and may deny) instead of
        being admitted wholesale against the bill as of batch start.
        A single handle (one submission, a one-item batch, a deferred
        handle's re-admission) has nothing to defer behind, so its
        ``DEFER`` downgrades to ``THROTTLE``, which for one query just
        serves it.  With no budgets this is timestamping only — the
        pre-governance fast path, byte for byte.
        """
        warehouse = self.warehouse
        ledger = warehouse.ledger
        controller = warehouse.admission
        reserved: dict[str, float] = {}
        defer_ok = len(handles) > 1
        with ledger.lock:
            for handle in handles:
                was_deferred = handle.admission is AdmissionVerdict.DEFER
                if controller.active:
                    tenant = handle.request.tenant or self.tenant
                    bill = ledger.billing.get(tenant)
                    verdict = controller.check(
                        tenant,
                        bill,
                        defer_ok=defer_ok,
                        reserved_dollars=reserved.get(tenant, 0.0),
                    )
                    # Verdict counters are authoritative state (budget
                    # enforcement history): every decision is committed,
                    # and its transition counts it.  For a DENY this is
                    # the *only* record the query leaves — no billing,
                    # no log entry.
                    ledger.commit(
                        JournalAdmissionDecision(tenant=tenant, verdict=verdict.value)
                    )
                    handle.admission = verdict
                    if verdict is AdmissionVerdict.DENY:
                        warehouse.metrics.counter(
                            "repro_queries_denied_total", tenant=tenant
                        )
                        handle._deny(
                            controller.denied_error(
                                tenant,
                                bill,
                                index=handle.index,
                                sql=handle.request.sql,
                            )
                        )
                        continue
                    if verdict is AdmissionVerdict.DEFER:
                        continue
                    # Admitted: reserve the tenant's average per-query
                    # spend so later batch items see it as projected.
                    if bill is not None and bill.queries:
                        reserved[tenant] = reserved.get(tenant, 0.0) + (
                            bill.dollars / bill.queries
                        )
                at_time = handle.request.at_time
                timestamp = ledger.clock if at_time is None else at_time
                if was_deferred:
                    # A re-admitted deferred handle finalizes behind work
                    # admitted after it; clamp its explicit at_time up to
                    # the clock so the log stays append-ordered.
                    timestamp = max(timestamp, ledger.clock)
                ledger.advance_clock(timestamp)
                handle.timestamp = timestamp

    def _serve_handle(
        self,
        handle: QueryHandle,
        executor: "_InlineExecutor | None" = None,
        ticket=None,
    ) -> bool:
        """Stage (or, given a ``ticket``, collect what ``executor``
        staged ahead) and finalize one admitted handle.  Never raises:
        a failure is carried on the handle and counted; returns whether
        the handle was served."""
        try:
            staged = (
                self._stage(handle)
                if ticket is None
                else executor.collect(handle, ticket)
            )
            self._finalize(handle, staged)
            return True
        except Exception as exc:  # noqa: BLE001 - carried on the handle
            handle._fail(_wrap_failure(handle, exc))
            self.warehouse.metrics.counter(
                "repro_queries_failed_total",
                tenant=handle.request.tenant or self.tenant,
            )
            return False

    def _stage(self, handle: QueryHandle, remote_plan=None) -> _Staged:
        """The concurrent phase: plan -> execute -> simulate.

        Deterministic given the request (caches only memoize pure
        planning functions and the simulator derives its own RNG), so
        outcomes, logs, and billing are exact on scheduler threads.
        The optimizer/estimator *observability counters* (memo hits,
        timing-evaluation counts) are updated without locks and may
        under-count slightly under a concurrent batch.
        ``remote_plan`` blocks for a plan a worker process was sent
        ahead of time, in place of planning here.
        """
        warehouse = self.warehouse
        request = handle.request
        assert request.constraint is not None  # resolved at submission
        guard = _request_guard(warehouse, request.tenant)
        scratch = None

        def on_bound(_bound: "BoundQuery") -> None:
            handle._advance(QueryState.BOUND, "bind")

        degraded = False
        try:
            if remote_plan is None:
                handle._advance(handle.state, "queued")
                planned = warehouse.planning.plan(
                    request.sql,
                    request.constraint,
                    use_cache=request.use_plan_cache,
                    on_bound=on_bound,
                    guard=guard,
                )
                scratch = planned.scratch
            else:
                planned = remote_plan()
        except DeadlineExceededError as exc:
            if exc.stage != "optimize":
                raise
            # Degraded-mode serving: an optimize timeout (or a planner
            # worker unresponsive past it) never fails the batch.  Fall
            # back to the skeleton-cache shapes or the heuristic default
            # plan, and finish the remaining stages unguarded — the
            # request already blew its deadline; what is left is
            # completing at floor quality, not enforcing it.
            handle.retries += guard.retries
            guard = None
            degraded = True
            planned = warehouse.planning.plan(
                request.sql, request.constraint, degraded=True
            )
            scratch = planned.scratch
            warehouse.resilience_stats.note_degraded()
        if remote_plan is not None:
            on_bound(planned.bound)
        choice = planned.choice
        handle._advance(QueryState.PLANNED, "plan")

        batch: "Batch | None" = None
        truth = dict(request.truth) if request.truth is not None else None
        if request.execute_locally:
            if warehouse.database is None:
                raise ReproError("cannot execute locally without a Database")
            result = LocalExecutor(warehouse.database).execute(choice.plan)
            batch = result.batch
            if truth is None:
                truth = {k: float(v) for k, v in result.true_rows.items()}
            handle._advance(QueryState.PLANNED, "execute")

        sim: "SimResult | None" = None
        if request.simulate:
            assert request.policy is not None  # resolved at submission

            def simulate() -> "SimResult":
                return warehouse._simulate(
                    choice, request.constraint, request.policy, truth, scratch
                )

            sim = guard.run("simulate", simulate) if guard is not None else simulate()
            handle._advance(QueryState.SIMULATED, "simulate")
        if guard is not None:
            handle.retries += guard.retries
        return _Staged(
            bound=planned.bound,
            choice=choice,
            batch=batch,
            sim=sim,
            degraded=degraded,
            degraded_mode=planned.level if degraded else None,
        )

    def _finalize(self, handle: QueryHandle, staged: _Staged) -> None:
        """The ordered phase: log and bill the tenant.

        Exactly-once: the handle's finalize latch is checked and set
        under the serving lock, so no interleaving of scheduler threads
        (or a retried finalize after a mid-batch fault) can log or bill
        the same handle twice.
        """
        warehouse = self.warehouse
        ledger = warehouse.ledger
        request = handle.request
        assert handle.timestamp is not None and request.constraint is not None
        assert request.tenant is not None
        with ledger.lock:
            if handle._finalized:
                return
            handle._finalized = True
            record = served_record(ledger.logs, request, handle.timestamp, staged)
            # Write-ahead: the record (which carries the billing delta)
            # is journaled *before* the log append and the charge, so a
            # crash between them is redone by replay and a crash before
            # the journal write leaves no trace (the next record takes
            # the same query id).
            ledger.commit(QueryServed(record=record))
            # Serving-event metrics (registry lock is innermost; dollar
            # amounts are integral ledger units).
            warehouse.metrics.counter(
                "repro_queries_served_total", tenant=record.tenant
            )
            warehouse.metrics.counter(
                "repro_serving_cost_ledger_units",
                to_ledger_units(record.dollars),
                tenant=record.tenant,
            )
            warehouse.metrics.histogram(
                "repro_query_latency_seconds",
                record.latency_s,
                tenant=record.tenant,
            )
        # Roll a checkpoint when the journal's interval policy says so.
        warehouse._maybe_checkpoint()
        handle._complete(
            QueryOutcome(
                sql=request.sql,
                choice=staged.choice,
                sim=staged.sim,
                batch=staged.batch,
                record=record,
                constraint=request.constraint,
                degraded=staged.degraded,
                degraded_mode=staged.degraded_mode,
            )
        )


def _as_request(item: object, constraint: Constraint | None) -> QueryRequest:
    """Best-effort request for a handle whose item failed resolution."""
    if isinstance(item, QueryRequest):
        return item
    if isinstance(item, str):
        return QueryRequest(sql=item, constraint=constraint)
    return QueryRequest(sql=repr(item), constraint=constraint)


def _wrap_failure(handle: QueryHandle, exc: Exception) -> QueryFailedError:
    if isinstance(exc, QueryFailedError):
        return exc
    return QueryFailedError(
        str(exc),
        index=handle.index,
        sql=handle.request.sql,
        cause=exc,
        # Typed resilience errors name the stage that failed; for
        # anything else, the handle's lifecycle state at failure time
        # is the best picklable locator we have.
        stage=getattr(exc, "stage", None) or handle.state.value,
    )


def _request_guard(
    warehouse: "CostIntelligentWarehouse", tenant: str | None
) -> StageGuard:
    """One request's :class:`~repro.core.resilience.StageGuard`.

    The retry allowance is budget-aware: every step the tenant's current
    admission verdict (``check`` with no reservation, never committed)
    sits past ``ADMIT`` in :class:`AdmissionVerdict` costs one attempt, and each
    retry's modeled compute is committed to the tenant's bill as a
    :class:`~repro.core.journal.RetryCharge`.
    """
    policy = warehouse.resilience
    attempts = policy.retry.max_attempts
    if tenant is not None and warehouse.admission.active:
        verdict = warehouse.admission.check(tenant, warehouse.billing.get(tenant))
        attempts = policy.retry.attempts_for(list(AdmissionVerdict).index(verdict))

    def charge(dollars: float) -> None:
        if tenant is not None and dollars > 0.0:
            warehouse.ledger.commit(RetryCharge(tenant=tenant, dollars=dollars))

    return StageGuard(
        policy,
        attempts=attempts,
        faults=warehouse.fault_port,
        charge_retry=charge,
        stats=warehouse.resilience_stats,
    )


# --------------------------------------------------------------------- #
# Executors: where a batch's staging runs ahead of its serve position
# --------------------------------------------------------------------- #
class _InlineExecutor:
    """The executor port, and its inline adapter: nothing is dispatched,
    so every handle stages on the calling thread when the loop reaches
    it.  Adapters that dispatch add ``collect(handle, ticket)``, which
    blocks for the staged result or raises its failure."""

    def has_room(self, handle: QueryHandle) -> bool:
        """Whether dispatching ``handle`` now could not block."""
        return True

    def dispatch(self, handle: QueryHandle):
        """Start staging ``handle`` ahead; returns a ticket to collect,
        or ``None`` to stage it in-process at its position."""
        return None

    def close(self, unclaimed: Iterable) -> None:
        """The batch is over; ``unclaimed`` tickets (a ``fail_fast``
        abort leaves some) will never be collected."""


class _ThreadExecutor(_InlineExecutor):
    """A future per handle: the whole stage phase runs on a thread pool
    over the locked plan caches, every handle dispatched up front."""

    def __init__(self, session: Session, max_workers: int) -> None:
        self._stage = session._stage
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="serving"
        )

    def dispatch(self, handle: QueryHandle):
        return self._pool.submit(self._stage, handle)

    def collect(self, handle: QueryHandle, ticket) -> _Staged:
        return ticket.result()

    def close(self, unclaimed: Iterable) -> None:
        for future in unclaimed:
            future.cancel()
        self._pool.shutdown()


class _ProcessExecutor(_InlineExecutor):
    """Planning on the warm worker-process pool (:mod:`repro.core.sharding`,
    which owns ordering, crash and hang recovery); execute and simulate
    in-process at the serve position.  Dispatch runs ahead only while
    the target worker is below the pool's in-flight cap, so the
    coordinator finalizes the first handle while workers plan the ones
    behind it and never waits on a reply it is not about to use.
    Nothing is polled: which handles are dispatched is a pure function
    of the batch."""

    def __init__(self, session: Session, pool) -> None:
        self.session = session
        self.pool = pool
        self.planning = session.warehouse.planning
        pool.sync()

    def _eligible(self, handle: QueryHandle) -> bool:
        """A worker runs the cached walk only; a request that bypasses
        the cache or executes locally stages in-process."""
        request = handle.request
        return (
            request.use_plan_cache
            and not request.execute_locally
            and self.planning.exact is not None
        )

    def has_room(self, handle: QueryHandle) -> bool:
        return not self._eligible(handle) or self.pool.has_room(
            parameterize_sql(handle.request.sql).template_key
        )

    def dispatch(self, handle: QueryHandle):
        if not self._eligible(handle):
            return None
        request = handle.request
        planning = self.planning
        keys = planning.keys(request.sql, request.constraint)
        cached = planning.exact.lookup(keys.exact)
        if cached is not None:
            # A hit costs no planning.  The entry itself is the ticket:
            # the stage at this handle's serve position starts from it,
            # so this is the query's one exact lookup, as on every other
            # executor (looking it up again there counted each hit twice).
            return Planned(*cached)
        skeleton_hint = None
        if planning.skeletons is not None:
            skeleton_hint = planning.skeletons.lookup(keys.skeleton)
        handle._advance(handle.state, "queued")
        return self.pool.dispatch(
            sql=request.sql,
            constraint=request.constraint,
            template_key=keys.parameterized.template_key,
            stats_version=keys.version,
            skeleton_trees=skeleton_hint,
            skeleton_key=keys.skeleton,
        )

    def collect(self, handle: QueryHandle, ticket) -> _Staged:
        if isinstance(ticket, Planned):
            # Nothing ran ahead for a carried hit: it was queued until
            # now, as at the inline stage's start.
            handle._advance(handle.state, "queued")
            return self.session._stage(handle, lambda: ticket)
        return self.session._stage(handle, lambda: self._plan_for(handle, ticket))

    def _plan_for(self, handle: QueryHandle, task_id: int):
        """Await one remote plan and fold it into the coordinator's
        levels, so later batches (and the degraded fallback) reuse it.
        The worker's measured planning costs join the handle's wall
        timings as ``worker_bind`` / ``worker_optimize``."""
        plan = self.pool.result_for(task_id)
        request = handle.request
        self.planning.absorb(self.planning.keys(request.sql, request.constraint), plan)
        handle.stage_timings["worker_bind"] = plan.bind_s
        handle.stage_timings["worker_optimize"] = plan.optimize_s
        return plan

    def close(self, unclaimed: Iterable) -> None:
        self.pool.abandon([t for t in unclaimed if not isinstance(t, Planned)])


# --------------------------------------------------------------------- #
# Scheduler
# --------------------------------------------------------------------- #
class ServingScheduler:
    """The ordered serve loop over one session (see the module
    docstring): whichever executor stages, finalization is applied in
    submission order on the calling thread, so outcomes and the log are
    bit-identical to sequential submission — enforced by the concurrency
    and sharded parity tests."""

    def __init__(
        self,
        session: Session,
        *,
        max_workers: int = 1,
        fail_fast: bool = False,
    ) -> None:
        if max_workers < 1:
            raise ReproError(f"max_workers must be >= 1, got {max_workers}")
        self.session = session
        self.max_workers = max_workers
        self.fail_fast = fail_fast

    def _executor(self, order: list[QueryHandle]) -> _InlineExecutor:
        worker_pool = self.session.warehouse._worker_pool
        if worker_pool is not None and worker_pool.alive:
            return _ProcessExecutor(self.session, worker_pool)
        if self.max_workers > 1 and sum(map(_dispatchable, order)) > 1:
            return _ThreadExecutor(self.session, self.max_workers)
        return _InlineExecutor()

    def run(
        self, entries: "list[QueryRequest | QueryHandle]"
    ) -> list[QueryHandle]:
        """Serve resolved requests; already-failed handles (items that
        died during resolution) pass through in position, unscheduled.

        One loop over serve positions: before position *i* is served,
        staging is dispatched ahead in order while the executor has
        room, stopping at the first handle that would block; then *i* is
        collected — or, if never dispatched, staged here — and finalized.

        Admission verdicts shape the batch: ``DENIED`` handles pass
        through unserved (typed error carried; other tenants' items are
        unaffected); ``THROTTLE``\\ d handles lose batch parallelism
        (staged at their position); ``DEFER``\\ red handles go behind
        the rest of the batch and are re-admitted when reached — by then
        the tenant's bill includes the batch's spend, so the re-check
        may deny them.  Under ``fail_fast`` a denial or failure aborts
        *at its position*: items before it are served, logged, and
        billed exactly as sequential submission would have (the legacy
        abort-the-batch contract).
        """
        session = self.session
        handles = [
            entry
            if isinstance(entry, QueryHandle)
            else QueryHandle(entry, index=index)
            for index, entry in enumerate(entries)
        ]
        live = [handle for handle in handles if not handle.failed]
        session._admit(live)
        order = [h for h in live if h.admission is not AdmissionVerdict.DEFER]
        order += [h for h in live if h.admission is AdmissionVerdict.DEFER]
        executor = self._executor(order)
        tickets: dict[QueryHandle, object] = {}
        ahead = 0  # first position not yet considered for dispatch
        try:
            for position, handle in enumerate(order):
                while ahead < len(order):
                    candidate = order[ahead]
                    if _dispatchable(candidate):
                        # Position i itself always goes out: only replies
                        # to abandoned work can still fill its worker,
                        # and dispatch drains those.
                        if ahead > position and not executor.has_room(candidate):
                            break
                        ticket = executor.dispatch(candidate)
                        if ticket is not None:
                            tickets[candidate] = ticket
                    ahead += 1
                if handle.admission is AdmissionVerdict.DEFER:
                    # Re-admission assigns the timestamp now, so the log
                    # stays append-ordered behind the batch it deferred to.
                    session._admit([handle])
                served = not handle.denied and session._serve_handle(
                    handle, executor, tickets.pop(handle, None)
                )
                if not served and self.fail_fast:
                    assert handle.error is not None
                    raise handle.error
        finally:
            executor.close(tickets.values())
        return handles


def _dispatchable(handle: QueryHandle) -> bool:
    """Whether an executor may stage ``handle`` ahead of its position:
    admitted outright, or no budgets configured.  (Throttled handles
    stage serially, deferred ones await re-admission, denied ones are
    never served.)"""
    return handle.admission in (None, AdmissionVerdict.ADMIT)
