"""Resource governance: policy-driven cache retention + tenant admission.

The paper's thesis is that the warehouse should spend compute and memory
where the *dollars* say to, not where raw recency says to.  Before this
module, the serving stack made its two resource decisions implicitly:
plan retention was three plain LRUs (an entry survived eviction pressure
exactly as long as it was recently touched), and admission was
unconditional (every query of every tenant was served regardless of what
the tenant had already spent).  Both decisions now live here, behind
explicit, pluggable objects the warehouse wires through serving,
statistics, and billing:

- **Retention** (:class:`RetentionPolicy`): which cache entry to evict
  when a plan cache exceeds capacity.  :class:`LruPolicy`
  is the default and is bit-identical to the pre-governance behavior.
  :class:`CostAwarePolicy` scores each entry by *forecast-fed template
  frequency* (from the Statistics Service log, via
  :class:`TemplateFrequencyProvider`) times the *re-optimization cost
  saved* (the measured planning seconds the entry amortizes), so a hot
  recurring report's skeleton survives eviction pressure that plain
  recency would age out.
- **Admission** (:class:`AdmissionController`): whether to serve a
  tenant's query at all, given the tenant's running
  :class:`~repro.core.ledger.TenantBill` (serving *plus* background
  tuning spend) against a configured :class:`TenantBudget`.  Verdicts
  escalate ``ADMIT -> THROTTLE -> DEFER -> DENY`` as spend approaches
  the budget; a denial surfaces as a typed
  :class:`~repro.errors.AdmissionDeniedError` and a ``DENIED`` terminal
  state on the :class:`~repro.core.service.QueryHandle`, never as a
  failure of other tenants' in-flight work.

Layering: this module sits between the Statistics Service (it *reads*
logs and forecasts) and the serving layer (which *consults* it); of
:mod:`repro.core` it imports only :mod:`repro.core.resilience` at
runtime — the forecast refresh is the ``statsvc`` fault point and fires
through the warehouse's :class:`~repro.core.resilience.FaultPort` — and
neither :mod:`repro.core.plan_cache` nor :mod:`repro.core.service`, so
caches and sessions can depend on it without cycles.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Mapping

from repro.core.resilience import FaultPort
from repro.errors import AdmissionDeniedError, ReproError
from repro.statsvc.forecast import WorkloadForecaster
from repro.statsvc.logs import LogView

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections import OrderedDict

    from repro.core.resilience import CircuitBreaker
    from repro.core.ledger import TenantBill
    from repro.statsvc.logs import QueryLogStore

#: Retention policies constructible by name (the warehouse constructor's
#: ``retention_policy`` argument).
RETENTION_POLICY_NAMES = ("lru", "cost-aware")
#: How many entries, from the least recently used end, a
#: :class:`CostAwarePolicy` scores per eviction.  Victim selection runs
#: under the cache lock on every over-capacity store, so it must not
#: scan the whole cache; 64 is what one eviction scanned when a default
#: 256-entry cache was four hash partitions, and it measures the same.
VICTIM_WINDOW = 64


# --------------------------------------------------------------------- #
# Retention policies
# --------------------------------------------------------------------- #
class RetentionPolicy:
    """Pluggable eviction decision for one serving cache.

    The cache calls :meth:`victim` whenever it exceeds capacity,
    :meth:`record` when the warehouse stores an entry (attaching the
    template identity and the planning seconds the entry saves),
    :meth:`on_evict` after removing the chosen victim, and :meth:`clear`
    on explicit invalidation — every hook under the cache's lock, so a
    policy needs none of its own.  One policy instance governs one cache
    (metadata is keyed by that cache's keys); construct a fresh instance
    per cache via :func:`make_retention_policy`.
    """

    name = "retention"

    def __init__(self) -> None:
        #: Evictions decided by this policy (per-policy counter, distinct
        #: from the cache's lifetime ``evictions`` total only when the
        #: policy is swapped mid-flight).
        self.evictions = 0

    def victim(self, entries: "OrderedDict[Hashable, object]") -> Hashable:
        """The key to evict; ``entries`` iterates LRU -> MRU."""
        raise NotImplementedError

    def record(
        self,
        key: Hashable,
        *,
        template: Hashable | None = None,
        cost_s: float = 0.0,
    ) -> None:
        """Metadata hook: ``key`` was stored for ``template`` and took
        ``cost_s`` seconds of planning work to produce (the re-optimization
        cost an eviction would re-incur).  No-op for recency policies."""

    def on_evict(self, key: Hashable) -> None:
        self.evictions += 1

    def clear(self) -> None:
        """Drop per-key metadata (the cache was invalidated)."""

    def reset_stats(self) -> None:
        self.evictions = 0


class LruPolicy(RetentionPolicy):
    """Evict the least-recently-used entry — the pre-governance default.

    ``victim`` returns the front of the cache's ordered dict, which is
    exactly what ``popitem(last=False)`` removed before retention became
    pluggable; behavior and counters are bit-identical (pinned by the
    parity tests in ``tests/core/test_governance.py``).
    """

    name = "lru"

    def victim(self, entries: "OrderedDict[Hashable, object]") -> Hashable:
        return next(iter(entries))


class CostAwarePolicy(RetentionPolicy):
    """Evict the entry whose loss costs the fewest forecast dollars.

    Each entry's retention score is ``expected re-uses per hour x
    planning seconds saved per re-use``: the arrival-rate forecast of
    the entry's template family (from the Statistics Service, via the
    ``frequency`` callable) times the measured planning time the entry
    amortizes.  The victim is the lowest-scoring of the
    :data:`VICTIM_WINDOW` least recently used entries; ties (including
    the cold-start case where no forecast exists yet) break toward the
    least recently used, so with no signal the policy degrades to exact
    LRU.  Entries never :meth:`record`-ed score zero and are evicted
    first.
    """

    name = "cost-aware"

    def __init__(
        self,
        frequency: Callable[[Hashable], float] | None = None,
        *,
        min_cost_s: float = 1e-6,
    ) -> None:
        super().__init__()
        self._frequency = frequency
        self._min_cost_s = min_cost_s
        #: key -> (template identity, planning seconds saved)
        self._meta: dict[Hashable, tuple[Hashable | None, float]] = {}

    def record(
        self,
        key: Hashable,
        *,
        template: Hashable | None = None,
        cost_s: float = 0.0,
    ) -> None:
        self._meta[key] = (template, float(cost_s))

    def score(self, key: Hashable) -> float:
        meta = self._meta.get(key)
        if meta is None:
            return 0.0
        template, cost_s = meta
        if template is None or self._frequency is None:
            return 0.0
        return self._frequency(template) * max(cost_s, self._min_cost_s)

    def victim(self, entries: "OrderedDict[Hashable, object]") -> Hashable:
        best_key: Hashable = None
        best_score = float("inf")
        # LRU -> MRU; strict < keeps LRU order on ties
        for key in islice(entries, VICTIM_WINDOW):
            current = self.score(key)
            if current < best_score:
                best_key, best_score = key, current
        return best_key

    def on_evict(self, key: Hashable) -> None:
        super().on_evict(key)
        self._meta.pop(key, None)

    def clear(self) -> None:
        self._meta.clear()


def make_retention_policy(
    policy: "str | Callable[[], RetentionPolicy]",
    *,
    frequency: Callable[[Hashable], float] | None = None,
) -> RetentionPolicy:
    """One fresh policy instance for one cache.

    ``policy`` is a name from :data:`RETENTION_POLICY_NAMES` or a
    zero-argument factory (for custom policies).  ``frequency`` feeds
    :class:`CostAwarePolicy` the forecast arrival rate of a template.
    """
    if callable(policy):
        made = policy()
        if not isinstance(made, RetentionPolicy):
            raise ReproError(
                f"retention policy factory returned {type(made).__name__}, "
                "expected a RetentionPolicy"
            )
        return made
    if policy == "lru":
        return LruPolicy()
    if policy == "cost-aware":
        return CostAwarePolicy(frequency)
    raise ReproError(
        f"unknown retention policy {policy!r}; known: {RETENTION_POLICY_NAMES}"
    )


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
    most once every ``refresh_every`` new records and only over the most
    recent ``window_records`` of the log (refresh cost is bounded, not
    O(total history) — it runs under the serving lock); :meth:`rate_for`
    is a lock-free dictionary read, because it runs during victim
    selection under a cache lock — a full-log forecast there would
    stall every planning thread.
    """

    def __init__(
        self,
        logs: "QueryLogStore",
        forecaster: WorkloadForecaster | None = None,
        *,
        refresh_every: int = 32,
        window_records: int = 2048,
        breaker: "CircuitBreaker | None" = None,
        faults: FaultPort | None = None,
    ) -> None:
        if refresh_every < 1:
            raise ReproError(f"refresh_every must be >= 1, got {refresh_every}")
        if window_records < 1:
            raise ReproError(f"window_records must be >= 1, got {window_records}")
        self.logs = logs
        self.forecaster = forecaster or WorkloadForecaster()
        self.refresh_every = refresh_every
        self.window_records = window_records
        #: Optional circuit breaker around forecast refreshes (the
        #: ``statsvc`` failure domain): a failing forecaster clears the
        #: rates — cost-aware retention scores drop to zero, which is
        #: exact LRU — and an OPEN breaker skips refresh attempts until
        #: its call-counted cooldown elapses.  The ``statsvc`` fault
        #: point (chaos testing) fires through ``faults`` at the top of
        #: every attempted refresh.
        self.breaker = breaker
        self.faults = faults or FaultPort()
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
        size = len(self.logs)
        with self._lock:
            if (
                self._refreshed_at >= 0
                and size - self._refreshed_at < self.refresh_every
            ):
                return
            if self.breaker is not None and not self.breaker.allow():
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
                # (empty rates score every entry 0.0, and CostAwarePolicy
                # ties break toward least-recently-used) rather than
                # failing the serving path that triggered the refresh.
                self._refreshed_at = size
                self._rates = {}
                if self.breaker is not None:
                    self.breaker.record_failure()
                return
            self._refreshed_at = size
            self._rates = rates
            if self.breaker is not None:
                self.breaker.record_success()

    def _compute_rates(self) -> dict[str, float]:
        """Per-family rates over the recent tail of the log (bounded)."""
        records = self.logs.tail(self.window_records)
        if not records:
            return {}
        return self.forecaster.rates(LogView(records))


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
    every admitted handle when any budget is configured.  Verdict counts
    are kept per tenant for observability — a deferred query that is
    later re-admitted or denied counts each decision.
    """

    def __init__(
        self, budgets: "Mapping[str, TenantBudget | float] | None" = None
    ) -> None:
        self._budgets: dict[str, TenantBudget] = {}
        self._verdicts: dict[str, dict[str, int]] = {}
        self._lock = threading.Lock()
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
        """The verdict for one query from ``tenant`` right now.

        ``reserved_dollars`` is the projected spend of this tenant's
        queries admitted *earlier in the same batch* but not yet billed
        (the serving layer reserves the tenant's historical average cost
        per query).  Projection can escalate the verdict up to ``DEFER``
        — pushing the query behind the batch, where the re-check sees
        real dollars — but never to ``DENY``: only actually-billed spend
        denies, so an estimate cannot refuse work a budget would have
        covered.

        ``defer_ok=False`` (single submissions, and the re-check of a
        deferred query at the tail of its batch) downgrades ``DEFER`` to
        ``THROTTLE`` — there is nothing left to defer behind, and spend
        at the defer threshold is above the throttle threshold by
        construction.
        """
        budget = self._budgets.get(tenant)
        if budget is None:
            verdict = AdmissionVerdict.ADMIT
        else:
            spent = bill.total_dollars if bill is not None else 0.0
            verdict = budget.verdict(spent)
            if verdict is not AdmissionVerdict.DENY and reserved_dollars > 0.0:
                projected = budget.verdict(spent + reserved_dollars)
                if projected is AdmissionVerdict.DENY:
                    projected = AdmissionVerdict.DEFER
                verdict = projected  # spend is monotone: never less severe
            if verdict is AdmissionVerdict.DEFER and not defer_ok:
                verdict = AdmissionVerdict.THROTTLE
        self.count_verdict(tenant, verdict.value)
        return verdict

    def peek(self, tenant: str, bill: "TenantBill | None") -> AdmissionVerdict:
        """The verdict ``tenant`` would get right now, without counting.

        A read-only check for consumers that need the tenant's budget
        *pressure* but are not admitting a query — the resilience layer
        uses it to shrink a near-DENY tenant's retry allowance.  Ignores
        batch reservations and the ``defer_ok`` downgrade; never touches
        the observability counters.
        """
        budget = self._budgets.get(tenant)
        if budget is None:
            return AdmissionVerdict.ADMIT
        return budget.verdict(bill.total_dollars if bill is not None else 0.0)

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

    @property
    def verdict_counts(self) -> dict[str, dict[str, int]]:
        """Per-tenant admission decisions, e.g. ``{"a": {"admit": 3}}``."""
        with self._lock:
            return {tenant: dict(counts) for tenant, counts in self._verdicts.items()}

    def count_verdict(self, tenant: str, verdict: str) -> None:
        """Count one decision: :meth:`check`'s last step, and the whole
        of replaying a journaled ``AdmissionDecision`` (no budget check
        runs again — the decision already happened)."""
        with self._lock:
            counts = self._verdicts.setdefault(tenant, {})
            counts[verdict] = counts.get(verdict, 0) + 1

    def restore_counts(
        self, counts: "Mapping[str, Mapping[str, int]]"
    ) -> None:
        """Replace the verdict counters wholesale from a recovery
        checkpoint."""
        with self._lock:
            self._verdicts = {
                tenant: dict(per_tenant) for tenant, per_tenant in counts.items()
            }

    def reset_stats(self) -> None:
        with self._lock:
            self._verdicts.clear()

    def describe(self) -> str:
        if not self.active:
            return "admission: no tenant budgets configured (admit all)"
        lines = ["admission by tenant:"]
        counts = self.verdict_counts
        for tenant in sorted(self._budgets):
            budget = self._budgets[tenant]
            decided = counts.get(tenant, {})
            summary = ", ".join(
                f"{name}={decided.get(name, 0)}"
                for name in ("admit", "throttle", "defer", "deny")
            )
            lines.append(f"  {tenant}: ${budget.dollars:.4f} budget, {summary}")
        return "\n".join(lines)


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
