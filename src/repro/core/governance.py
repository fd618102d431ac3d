"""Resource governance: the inputs of cost-driven retention and admission.

The paper's thesis is that the warehouse should spend compute and memory
where the *dollars* say to, not where raw recency says to.  The serving
stack makes two resource decisions, and this module supplies what each
one reads:

- **Retention** — which plan-cache entry leaves a full level — is a
  score the level computes itself (:mod:`repro.core.plan_cache`,
  "Retention"): under ``retention_policy="cost-aware"`` every level is
  handed :meth:`TemplateFrequencyProvider.rate_for`, the *forecast
  template frequency* from the Statistics Service log, and multiplies
  it by the *re-optimization cost saved* (the measured planning seconds
  the entry amortizes), so a hot recurring report's skeleton survives
  eviction pressure that plain recency would age out.  Under the
  default ``"lru"`` the levels evict by recency alone.
- **Admission** (:class:`AdmissionController`): whether to serve a
  tenant's query at all, given the tenant's running
  :class:`~repro.core.ledger.TenantBill` (serving *plus* background
  tuning spend) against a configured :class:`TenantBudget`.  Verdicts
  escalate ``ADMIT -> THROTTLE -> DEFER -> DENY`` as spend approaches
  the budget; a denial surfaces as a typed
  :class:`~repro.errors.AdmissionDeniedError` and a ``DENIED`` terminal
  state on the :class:`~repro.core.service.QueryHandle`, never as a
  failure of other tenants' in-flight work.  The controller holds the
  budgets and only decides; the serving layer commits each verdict to
  the ledger as an ``AdmissionDecision`` record, whose transition counts
  it on the tenant's bill.

Layering: this module sits between the Statistics Service (it *reads*
logs and forecasts) and the serving layer (which *consults* it); it
imports nothing of :mod:`repro.core` at runtime — the forecast refresh
is the ``statsvc`` fault point and fires through the warehouse's
:class:`~repro.core.resilience.FaultPort`, handed in with the statsvc
breaker — so caches and sessions can depend on it without cycles.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Hashable, Iterable, Mapping

from repro.errors import AdmissionDeniedError, ReproError
from repro.statsvc.forecast import WorkloadForecaster
from repro.statsvc.logs import WINDOW_RECORDS, LogView

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.ledger import TenantBill
    from repro.core.resilience import CircuitBreaker, FaultPort
    from repro.statsvc.logs import QueryLogStore

#: The warehouse constructor's ``retention_policy`` names: ``"lru"``
#: evicts by recency, ``"cost-aware"`` hands every plan-cache level
#: :meth:`TemplateFrequencyProvider.rate_for` to score its entries with
#: (:mod:`repro.core.plan_cache`, "Retention").
RETENTION_POLICY_NAMES = ("lru", "cost-aware")
#: Logged queries between two forecast refreshes.
REFRESH_EVERY = 32
#: The forecaster every refresh runs (stateless).
FORECASTER = WorkloadForecaster()


# --------------------------------------------------------------------- #
# Forecast-fed template frequency
# --------------------------------------------------------------------- #
class TemplateFrequencyProvider:
    """Per-template arrival-rate forecasts for retention and warming.

    Bridges the Statistics Service to the cache layer: the serving path
    registers which literal-free *template key* belongs to which logged
    template *family* (:meth:`note_template`), and the provider answers
    ``rate_for(template_key)`` from the
    :class:`~repro.statsvc.forecast.WorkloadForecaster`'s per-family
    arrival rates — the same forecasts that gate
    :class:`~repro.tuning.service.TuningPolicy` auto-apply.  Forecasts
    are recomputed on the *log-append* path (:meth:`note_template`), at
    most once every :data:`REFRESH_EVERY` new records and only over the
    log's window, its newest
    :data:`~repro.statsvc.logs.WINDOW_RECORDS` (refresh cost is
    bounded, not O(total history) — it runs under the serving lock);
    :meth:`rate_for` is a lock-free dictionary read, because it runs
    during victim selection under a cache lock — a forecast there would
    stall every planning thread.
    """

    def __init__(
        self,
        logs: "QueryLogStore",
        *,
        breaker: "CircuitBreaker",
        faults: "FaultPort",
    ) -> None:
        self.logs = logs
        #: The circuit breaker around forecast refreshes (the
        #: ``statsvc`` failure domain): a failing forecaster clears the
        #: rates — cost-aware retention scores drop to zero, which is
        #: exact LRU — and an OPEN breaker skips refresh attempts until
        #: its call-counted cooldown elapses.  The ``statsvc`` fault
        #: point (chaos testing) fires through ``faults`` at the top of
        #: every attempted refresh.
        self.breaker = breaker
        self.faults = faults
        self._rates: dict[str, float] = {}
        self._families: dict[Hashable, str] = {}
        self._refreshed_at = -1
        self._lock = threading.Lock()

    def note_template(self, family: str, template_key: Hashable) -> None:
        """Register that ``template_key`` instantiates log family
        ``family``, refreshing the forecasts when enough new records
        have accumulated (this runs once per logged query, outside any
        cache lock)."""
        with self._lock:
            self._families[template_key] = family
        self._maybe_refresh()

    def rate_for(self, template_key: Hashable) -> float:
        """Forecast arrivals/hour for a template key (0.0 when unknown).

        Lock-free: reads the dictionaries the refresh path replaces
        wholesale — safe to call from eviction under a cache lock.
        """
        family = self._families.get(template_key)
        if family is None:
            return 0.0
        return self._rates.get(family, 0.0)

    def family_rates(self) -> dict[str, float]:
        """Forecast arrivals/hour per logged template family."""
        self._maybe_refresh()
        with self._lock:
            return dict(self._rates)

    def invalidate(self) -> None:
        """Force a forecast recompute at the next refresh point (the
        next logged query or :meth:`family_rates` call)."""
        with self._lock:
            self._refreshed_at = -1

    def _maybe_refresh(self) -> None:
        # The newest id counts every record logged; the window's length
        # stops growing once it is full.
        size = self.logs.last_query_id
        with self._lock:
            if (
                self._refreshed_at >= 0
                and size - self._refreshed_at < REFRESH_EVERY
            ):
                return
            if not self.breaker.allow():
                # OPEN: skip the refresh but advance the watermark so an
                # outage costs one denied call per refresh window, not
                # one per logged query; rates stay degraded (possibly
                # empty — LRU behavior) until the breaker half-opens.
                self._refreshed_at = size
                return
            try:
                self.faults.fire("statsvc")
                rates = self._compute_rates()
            except ReproError:  # lint-allow: stage-guard the statsvc breaker's degrade path
                # Forecaster down: degrade retention scoring to LRU
                # (empty rates score every entry 0.0, and a cache level's
                # ties break toward least-recently-used) rather than
                # failing the serving path that triggered the refresh.
                self._refreshed_at = size
                self._rates = {}
                self.breaker.record_failure()
                return
            self._refreshed_at = size
            self._rates = rates
            self.breaker.record_success()

    def _compute_rates(self) -> dict[str, float]:
        """Per-family rates over the log's window (bounded)."""
        records = self.logs.tail(WINDOW_RECORDS)
        if not records:
            return {}
        return FORECASTER.rates(LogView(records))


# --------------------------------------------------------------------- #
# Admission control
# --------------------------------------------------------------------- #
class AdmissionVerdict(Enum):
    """Escalating decisions as a tenant's spend approaches its budget."""

    ADMIT = "admit"
    THROTTLE = "throttle"
    DEFER = "defer"
    DENY = "deny"


@dataclass(frozen=True)
class TenantBudget:
    """A per-tenant dollar ceiling with escalation thresholds.

    Spend is the tenant's *total* bill — serving plus background tuning
    dollars — against ``dollars``.  At ``throttle_at`` of the budget the
    tenant's queries lose batch parallelism (staged serially); at
    ``defer_at`` they are pushed behind other tenants' work in the batch
    and re-checked; at the full budget they are denied.
    """

    dollars: float
    throttle_at: float = 0.75
    defer_at: float = 0.9

    def __post_init__(self) -> None:
        if self.dollars <= 0:
            raise ReproError(f"budget dollars must be positive, got {self.dollars}")
        if not 0.0 < self.throttle_at <= self.defer_at <= 1.0:
            raise ReproError(
                "budget thresholds must satisfy 0 < throttle_at <= defer_at <= 1, "
                f"got throttle_at={self.throttle_at}, defer_at={self.defer_at}"
            )

    def verdict(self, spent_dollars: float) -> AdmissionVerdict:
        if spent_dollars >= self.dollars:
            return AdmissionVerdict.DENY
        if spent_dollars >= self.defer_at * self.dollars:
            return AdmissionVerdict.DEFER
        if spent_dollars >= self.throttle_at * self.dollars:
            return AdmissionVerdict.THROTTLE
        return AdmissionVerdict.ADMIT


class AdmissionController:
    """Budget-driven admission decisions, consulted at query admission.

    Owned by the warehouse; :class:`~repro.core.service.Session` calls
    :meth:`check` (under the serving lock, so bills are consistent) for
    every admitted handle when any budget is configured, and commits the
    verdict to the ledger, whose ``AdmissionDecision`` transition counts
    it on the tenant's :class:`~repro.core.ledger.TenantBill`.  The
    controller keeps budgets only, no counts.
    """

    def __init__(
        self, budgets: "Mapping[str, TenantBudget | float] | None" = None
    ) -> None:
        self._budgets: dict[str, TenantBudget] = {}
        for tenant, budget in (budgets or {}).items():
            self.set_budget(tenant, budget)

    @property
    def active(self) -> bool:
        """Whether any tenant has a budget (False = admit-all fast path)."""
        return bool(self._budgets)

    def set_budget(self, tenant: str, budget: "TenantBudget | float") -> None:
        if not isinstance(budget, TenantBudget):
            budget = TenantBudget(dollars=float(budget))
        self._budgets[tenant] = budget

    def check(
        self,
        tenant: str,
        bill: "TenantBill | None",
        *,
        defer_ok: bool = True,
        reserved_dollars: float = 0.0,
    ) -> AdmissionVerdict:
        """The verdict for one query from ``tenant`` right now (decided,
        not counted: counting is the committed decision's transition).

        With the defaults this is the tenant's budget *pressure* alone —
        what the resilience layer reads to shrink a near-DENY tenant's
        retry allowance.

        ``reserved_dollars`` is the projected spend of this tenant's
        queries admitted *earlier in the same batch* but not yet billed
        (the serving layer reserves the tenant's historical average cost
        per query).  Projection can escalate the verdict up to ``DEFER``
        — pushing the query behind the batch, where the re-check sees
        real dollars — but never to ``DENY``: only actually-billed spend
        denies, so an estimate cannot refuse work a budget would have
        covered.

        ``defer_ok=False`` (an admission of one handle: a single
        submission, a one-item batch, or the re-check of a deferred
        query at the tail of its batch) downgrades ``DEFER`` to
        ``THROTTLE`` — there is nothing left to defer behind, and spend
        at the defer threshold is above the throttle threshold by
        construction.
        """
        budget = self._budgets.get(tenant)
        if budget is None:
            return AdmissionVerdict.ADMIT
        spent = bill.total_dollars if bill is not None else 0.0
        verdict = budget.verdict(spent)
        if verdict is not AdmissionVerdict.DENY and reserved_dollars > 0.0:
            projected = budget.verdict(spent + reserved_dollars)
            if projected is AdmissionVerdict.DENY:
                projected = AdmissionVerdict.DEFER
            verdict = projected  # spend is monotone: never less severe
        if verdict is AdmissionVerdict.DEFER and not defer_ok:
            verdict = AdmissionVerdict.THROTTLE
        return verdict

    def denied_error(
        self,
        tenant: str,
        bill: "TenantBill | None",
        *,
        index: int | None = None,
        sql: str | None = None,
    ) -> AdmissionDeniedError:
        """The typed denial for one query (budget + spend attached)."""
        budget = self._budgets.get(tenant)
        spent = bill.total_dollars if bill is not None else 0.0
        ceiling = budget.dollars if budget is not None else 0.0
        return AdmissionDeniedError(
            f"tenant {tenant!r} budget exhausted "
            f"(${spent:.4f} spent of ${ceiling:.4f})",
            tenant=tenant,
            spent_dollars=spent,
            budget_dollars=ceiling,
            index=index,
            sql=sql,
        )


def rank_by_forecast(
    workload: "Mapping[str, str] | Iterable[tuple[str, str]]",
    rates: Mapping[str, float],
    counts: Mapping[str, int] | None = None,
) -> list[tuple[str, str]]:
    """Order ``(template family, sql)`` pairs hottest-first.

    Primary key: forecast arrivals/hour; tiebreak: observed log counts,
    then input order (stable) — so with an empty log the input order is
    preserved.  Used by :meth:`CostIntelligentWarehouse.warm_cache`.
    """
    items = list(workload.items()) if isinstance(workload, Mapping) else list(workload)
    counts = counts or {}
    return [
        (family, sql)
        for _, _, _, (family, sql) in sorted(
            (
                (-rates.get(family, 0.0), -counts.get(family, 0), index, (family, sql))
                for index, (family, sql) in enumerate(items)
            ),
        )
    ]
