"""Tests for the resource-governance layer (core/governance.py).

Covers both halves: retention policies threaded through the plan
caches (LRU parity with the pre-governance eviction, cost-aware
survival of hot templates under pressure, cache warming), and
budget-driven tenant admission (verdict escalation, denial isolation,
deferred re-admission, throttled scheduling parity).
"""

import random
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.governance import (
    AdmissionController,
    AdmissionVerdict,
    CostAwarePolicy,
    LruPolicy,
    TemplateFrequencyProvider,
    TenantBudget,
    VICTIM_WINDOW,
    make_retention_policy,
    rank_by_forecast,
)
from repro.core.plan_cache import PlanCache, SkeletonCache
from repro.core.service import QueryHandle, QueryRequest, QueryState, ServingScheduler
from repro.core.warehouse import CostIntelligentWarehouse
from repro.dop.constraints import sla_constraint
from repro.errors import AdmissionDeniedError, ReproError
from repro.workloads.tpch_queries import instantiate, template_names
from repro.workloads.tpch_stats import synthetic_tpch_catalog

CONSTRAINT = sla_constraint(15.0)


@pytest.fixture(scope="module")
def catalog():
    return synthetic_tpch_catalog(1.0)


def fresh_warehouse(catalog, **kwargs) -> CostIntelligentWarehouse:
    return CostIntelligentWarehouse(catalog=catalog, **kwargs)


def quick_request(sql: str, template: str = "adhoc", **kwargs) -> QueryRequest:
    return QueryRequest(sql=sql, template=template, simulate=False, **kwargs)


# --------------------------------------------------------------------- #
# Retention: LRU parity
# --------------------------------------------------------------------- #
class ReferenceLru:
    """The pre-governance eviction semantics, verbatim: one OrderedDict,
    move-to-end on hit/store, popitem(last=False) over capacity."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, key):
        found = self.entries.get(key)
        if found is None:
            self.misses += 1
            return None
        self.entries.move_to_end(key)
        self.hits += 1
        return found

    def store(self, key, value):
        self.entries[key] = value
        self.entries.move_to_end(key)
        while len(self.entries) > self.capacity:
            self.entries.popitem(last=False)
            self.evictions += 1


def test_lru_policy_parity_with_pre_governance_eviction():
    """Random lookup/store traffic over a small cache: the pluggable
    LruPolicy must reproduce the hardcoded eviction exactly — same
    hits, misses, evictions, same surviving keys in order."""
    rng = random.Random(7)
    cache = PlanCache(capacity=8, policy=LruPolicy())
    reference = ReferenceLru(capacity=8)
    for step in range(2000):
        key = ("q", rng.randrange(24))
        if rng.random() < 0.5:
            assert (cache.lookup(key) is None) == (reference.lookup(key) is None)
        else:
            cache.store(key, "bound", f"choice-{step}")
            reference.store(key, ("bound", f"choice-{step}"))
    assert cache.hits == reference.hits
    assert cache.misses == reference.misses
    assert cache.evictions == reference.evictions
    assert cache.export_state() == tuple(reference.entries.items())


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 399)), max_size=400))
def test_default_capacity_cache_is_one_exact_lru(operations):
    """At the default capacity, full, any sequence of lookups and stores
    leaves the contents, recency order and counters of one global LRU —
    whatever the keys hash to."""
    cache, reference = PlanCache(256), ReferenceLru(256)
    for number in range(256):
        cache.store(("q", number), "bound", "warm")
        reference.store(("q", number), ("bound", "warm"))
    for step, (is_store, number) in enumerate(operations):
        key = ("q", number)
        if is_store:
            cache.store(key, "bound", step)
            reference.store(key, ("bound", step))
        else:
            assert cache.lookup(key) == reference.lookup(key)
    assert cache.export_state() == tuple(reference.entries.items())
    assert (cache.hits, cache.misses, cache.evictions) == (
        reference.hits,
        reference.misses,
        reference.evictions,
    )


def test_default_policy_is_lru_and_counted():
    cache = SkeletonCache(capacity=1)
    assert cache.policy.name == "lru"
    cache.store("a", ("tree-a",))
    cache.store("b", ("tree-b",))
    assert cache.lookup("a") is None
    assert cache.policy.evictions == 1
    assert cache.evictions == 1
    assert "lru" in cache.describe()
    cache.reset_stats()
    assert cache.policy.evictions == 0
    # The cache's counter and the policy counter stay in lockstep.
    assert cache.evictions == 0


def test_sequential_lru_pinned_at_single_stripe_capacity():
    """Exact eviction order at capacity: least recently *used* (not
    least recently stored) leaves first."""
    cache = PlanCache(capacity=2)
    cache.store("a", "b", "c")
    cache.store("x", "y", "z")
    assert cache.lookup("a") is not None  # refresh "a": now "x" is LRU
    cache.store("n", "e", "w")  # evicts "x"
    assert cache.lookup("x") is None
    assert cache.lookup("a") is not None
    assert cache.lookup("n") is not None


# --------------------------------------------------------------------- #
# Retention: cost-aware
# --------------------------------------------------------------------- #
def test_cost_aware_keeps_hot_template_under_pressure():
    """At capacity, pressure that ages a hot template out of plain LRU
    leaves it untouched under the cost-aware policy."""
    rates = {"hot": 60.0, "cold": 0.5}
    lru = SkeletonCache(capacity=2, policy=LruPolicy())
    aware = SkeletonCache(
        capacity=2, policy=CostAwarePolicy(lambda template: rates[template])
    )
    for cache in (lru, aware):
        cache.store("hot-key", ("hot-tree",), template="hot", cost_s=0.02)
        for index in range(4):  # sustained cold pressure
            cache.store(
                f"cold-{index}", ("cold-tree",), template="cold", cost_s=0.02
            )
    assert lru.lookup("hot-key") is None  # recency aged it out
    assert aware.lookup("hot-key") is not None  # forecast value kept it
    # The newest cold entry was admitted (it displaced an older cold
    # entry, never itself: store-time metadata competes in the entry's
    # own eviction round).
    assert aware.lookup("cold-3") is not None
    assert aware.policy.evictions == lru.policy.evictions == 3


def test_cost_aware_degrades_to_lru_without_signal():
    """No recorded metadata / no forecast: scores tie at zero and the
    victim falls back to exact LRU order."""
    aware = PlanCache(capacity=2, policy=CostAwarePolicy(lambda template: 0.0))
    aware.store("a", "b", "c")
    aware.store("x", "y", "z")
    assert aware.lookup("a") is not None
    aware.store("n", "e", "w")
    assert aware.lookup("x") is None
    assert aware.lookup("a") is not None


def test_cost_aware_meta_follows_evictions_and_invalidation():
    policy = CostAwarePolicy(lambda template: 1.0)
    cache = PlanCache(capacity=2, policy=policy)
    cache.store("a", "b", "c", template="t", cost_s=0.5)
    assert policy.score("a") > 0
    cache.store("b", "b", "c")
    cache.store("c", "b", "c")  # evicts "b": zero score, oldest of the zeros
    assert cache.lookup("b") is None
    assert cache.lookup("a") is not None  # the scored entry survived
    policy.on_evict("a")
    assert policy.score("a") == 0.0  # eviction drops the metadata
    cache.store("d", "b", "c", template="t", cost_s=0.5)
    cache.invalidate()
    assert policy.score("d") == 0.0  # clear() dropped everything


def test_cost_aware_meta_never_leaks_under_churn():
    """Literal-varying traffic stores a unique scored key per arrival;
    the policy's metadata must track cache residency, not history."""
    policy = CostAwarePolicy(lambda template: 1.0)
    cache = PlanCache(capacity=2, policy=policy)
    for index in range(100):
        cache.store(f"key-{index}", "bound", "choice", template="t", cost_s=0.1)
    assert len(cache) == 2
    assert len(policy._meta) == 2  # one record per resident entry


def test_cost_aware_scores_only_the_least_recently_used_window():
    """Victim selection is bounded: the lowest score among the
    ``VICTIM_WINDOW`` least recently used entries leaves, and an
    unscored entry (zero, the lowest score there is) beyond the window
    survives."""
    capacity = VICTIM_WINDOW + 36
    rates = {index: 10.0 + index for index in range(capacity)}
    rates[17] = 1.0
    cache = PlanCache(capacity, policy=CostAwarePolicy(rates.__getitem__))
    for index in range(capacity):
        if index == VICTIM_WINDOW + 6:
            cache.store("unscored", "bound", "choice")
        else:
            cache.store(index, "bound", "choice", template=index, cost_s=1.0)
    cache.store("newcomer", "bound", "choice", template=0, cost_s=1.0)
    assert cache.evictions == 1
    assert cache.lookup(17) is None
    assert cache.lookup("unscored") is not None


def test_make_retention_policy_names_and_errors():
    assert make_retention_policy("lru").name == "lru"
    assert make_retention_policy("cost-aware").name == "cost-aware"
    custom = make_retention_policy(LruPolicy)
    assert isinstance(custom, LruPolicy)
    with pytest.raises(ReproError):
        make_retention_policy("mru")
    with pytest.raises(ReproError):
        make_retention_policy(lambda: object())


# --------------------------------------------------------------------- #
# Retention: end-to-end over the warehouse
# --------------------------------------------------------------------- #
def test_warehouse_cost_aware_beats_lru_on_hot_template(catalog):
    """Serving-path version of the survival test: a hot template under
    forecast-visible traffic keeps hitting the skeleton cache that plain
    LRU keeps missing, and the served plans stay bit-identical."""
    names = list(template_names())
    hot, cold = names[0], names[1:]
    hit_rates = {}
    hot_choices = {}
    for policy in ("lru", "cost-aware"):
        warehouse = fresh_warehouse(
            catalog, plan_cache_size=4, retention_policy=policy
        )
        session = warehouse.session(tenant="t", constraint=CONSTRAINT)
        seed, clock = 1, 0.0
        choices = []

        def arrive(name, *, seed, clock):
            handle = session.submit(
                quick_request(instantiate(name, seed=seed), template=name,
                              at_time=clock)
            )
            return handle.result().choice

        # Warm-up traffic builds the Statistics Service log the
        # forecasts read; the measured phase starts from clean counters.
        for index in range(40):
            name = hot if index % 5 == 0 else cold[index % len(cold)]
            arrive(name, seed=seed, clock=clock)
            seed += 1
            clock += 60.0
        warehouse.frequency.invalidate()
        warehouse.reset_cache_stats()
        for index in range(40):
            name = hot if index % 5 == 0 else cold[index % len(cold)]
            choice = arrive(name, seed=1000 + index, clock=clock)
            if name == hot:
                choices.append(choice)
            clock += 60.0
        hit_rates[policy] = warehouse.describe_caches()["skeleton_cache"]["hit_rate"]
        hot_choices[policy] = choices
    assert hit_rates["cost-aware"] > hit_rates["lru"]
    # Retention changes *when* we re-optimize, never *what* we serve.
    for lru_choice, aware_choice in zip(hot_choices["lru"], hot_choices["cost-aware"]):
        assert lru_choice.dop_plan.dops == aware_choice.dop_plan.dops
        assert (
            lru_choice.dop_plan.estimate.latency
            == aware_choice.dop_plan.estimate.latency
        )


def test_warm_cache_ranks_by_forecast_and_populates_skeletons(catalog):
    warehouse = fresh_warehouse(catalog, retention_policy="cost-aware")
    session = warehouse.session(tenant="t", constraint=CONSTRAINT)
    # Log traffic: q6 hot (3 of every 4 arrivals), q1 occasional.
    clock = 0.0
    for index in range(16):
        name = "q1_pricing_summary" if index % 4 == 0 else "q6_revenue_forecast"
        session.submit(
            quick_request(instantiate(name, seed=index + 1), template=name,
                          at_time=clock)
        )
        clock += 300.0
    warehouse.invalidate_plan_cache()
    warehouse.frequency.invalidate()
    workload = {
        "q1_pricing_summary": instantiate("q1_pricing_summary", seed=500),
        "q6_revenue_forecast": instantiate("q6_revenue_forecast", seed=500),
        "q12_shipmode": instantiate("q12_shipmode", seed=500),
    }
    warmed = warehouse.warm_cache(workload, CONSTRAINT, top=2)
    assert warmed == ["q6_revenue_forecast", "q1_pricing_summary"]
    assert len(warehouse.skeleton_cache) == 2
    # A fresh instantiation of a warmed template hits the skeleton level.
    warehouse.reset_cache_stats()
    session.submit(
        quick_request(
            instantiate("q6_revenue_forecast", seed=900),
            template="q6_revenue_forecast",
            at_time=clock,
        )
    ).result()
    assert warehouse.describe_caches()["skeleton_cache"]["hits"] == 1


def test_warm_cache_empty_log_preserves_input_order(catalog):
    warehouse = fresh_warehouse(catalog)
    workload = [
        ("scan_orders", instantiate("scan_orders", seed=1)),
        ("q6_revenue_forecast", instantiate("q6_revenue_forecast", seed=1)),
    ]
    assert warehouse.warm_cache(workload, CONSTRAINT) == [
        "scan_orders",
        "q6_revenue_forecast",
    ]


def test_rank_by_forecast_tiebreaks():
    ranked = rank_by_forecast(
        [("a", "sql-a"), ("b", "sql-b"), ("c", "sql-c")],
        rates={"b": 5.0},
        counts={"c": 3},
    )
    assert [family for family, _ in ranked] == ["b", "c", "a"]


# --------------------------------------------------------------------- #
# Frequency provider
# --------------------------------------------------------------------- #
def test_frequency_provider_refresh_and_mapping(catalog):
    warehouse = fresh_warehouse(catalog, retention_policy="cost-aware")
    session = warehouse.session(tenant="t", constraint=CONSTRAINT)
    provider = warehouse.frequency
    for index in range(6):
        session.submit(
            quick_request(
                instantiate("q6_revenue_forecast", seed=index + 1),
                template="revenue",
                at_time=index * 600.0,
            )
        ).result()
    provider.invalidate()
    rates = provider.family_rates()
    assert rates["revenue"] > 0
    # The serving path registered the literal-free template key.
    from repro.sql.parameterize import parameterize_sql

    key = parameterize_sql(instantiate("q6_revenue_forecast", seed=99)).template_key
    assert provider.rate_for(key) == rates["revenue"]
    assert provider.rate_for(("unknown",)) == 0.0


def test_frequency_provider_validates_refresh_interval():
    from repro.statsvc.logs import QueryLogStore

    with pytest.raises(ReproError):
        TemplateFrequencyProvider(QueryLogStore(), refresh_every=0)
    with pytest.raises(ReproError):
        TemplateFrequencyProvider(QueryLogStore(), window_records=0)


def test_adhoc_family_never_feeds_retention_scores(catalog):
    """Untemplated queries all log under the default 'adhoc' family; its
    aggregate arrival rate must not score their cache entries, or a
    stream of one-off queries would outscore (and evict) genuinely
    recurring templates."""
    warehouse = fresh_warehouse(catalog, retention_policy="cost-aware")
    session = warehouse.session(tenant="t", constraint=CONSTRAINT)
    for index in range(8):  # a busy ad-hoc stream (default template)
        session.submit(
            QueryRequest(
                sql=instantiate("q6_revenue_forecast", seed=index + 1),
                at_time=index * 60.0,
                simulate=False,
            )
        ).result()
    warehouse.frequency.invalidate()
    # The adhoc *family* is still forecast (its rate exists)...
    assert warehouse.frequency.family_rates().get("adhoc", 0.0) > 0
    # ...but no template key maps to it, so its entries score zero.
    from repro.sql.parameterize import parameterize_sql

    key = parameterize_sql(instantiate("q6_revenue_forecast", seed=99)).template_key
    assert warehouse.frequency.rate_for(key) == 0.0


def test_frequency_refresh_is_bounded_to_the_log_tail():
    """Rates are computed over the last window_records only, so the
    serving-path refresh never scales with total log history."""
    from repro.statsvc.logs import QueryLogStore, QueryRecord

    def record(query_id, timestamp, template):
        return QueryRecord(
            query_id=query_id,
            timestamp=timestamp,
            sql="SELECT 1",
            template=template,
            tables=(),
            columns=(),
            join_edges=(),
        )

    store = QueryLogStore()
    # Ancient history: a once-hot template that went quiet.
    for index in range(20):
        store.append(record(index + 1, index * 60.0, "legacy"))
    # Recent tail: only "current" arrives.
    for index in range(8):
        store.append(record(100 + index, 10_000.0 + index * 60.0, "current"))
    assert [r.template for r in store.tail(3)] == ["current"] * 3
    assert store.tail(0) == []
    provider = TemplateFrequencyProvider(store, window_records=8)
    provider.note_template("legacy", ("legacy-key",))
    provider.note_template("current", ("current-key",))
    rates = provider.family_rates()
    assert "legacy" not in rates  # outside the window entirely
    assert rates["current"] > 0
    assert provider.rate_for(("legacy-key",)) == 0.0


# --------------------------------------------------------------------- #
# Admission: verdicts
# --------------------------------------------------------------------- #
class _Bill:
    def __init__(self, total: float) -> None:
        self.total_dollars = total


def test_tenant_budget_verdict_escalation():
    budget = TenantBudget(dollars=10.0, throttle_at=0.5, defer_at=0.8)
    assert budget.verdict(0.0) is AdmissionVerdict.ADMIT
    assert budget.verdict(4.99) is AdmissionVerdict.ADMIT
    assert budget.verdict(5.0) is AdmissionVerdict.THROTTLE
    assert budget.verdict(8.0) is AdmissionVerdict.DEFER
    assert budget.verdict(10.0) is AdmissionVerdict.DENY
    assert budget.verdict(99.0) is AdmissionVerdict.DENY


def test_tenant_budget_validation():
    with pytest.raises(ReproError):
        TenantBudget(dollars=0.0)
    with pytest.raises(ReproError):
        TenantBudget(dollars=1.0, throttle_at=0.9, defer_at=0.5)
    with pytest.raises(ReproError):
        TenantBudget(dollars=1.0, throttle_at=0.0)


def test_controller_counts_and_defer_downgrade():
    controller = AdmissionController({"a": TenantBudget(5.0, defer_at=0.9)})
    assert controller.active
    assert controller.check("a", _Bill(0.0)) is AdmissionVerdict.ADMIT
    assert controller.check("a", _Bill(4.6)) is AdmissionVerdict.DEFER
    # No batch to defer behind: the same spend throttles instead.
    assert (
        controller.check("a", _Bill(4.6), defer_ok=False)
        is AdmissionVerdict.THROTTLE
    )
    assert controller.check("b", None) is AdmissionVerdict.ADMIT  # no budget
    assert controller.verdict_counts == {
        "a": {"admit": 1, "defer": 1, "throttle": 1},
        "b": {"admit": 1},
    }
    controller.reset_stats()
    assert controller.verdict_counts == {}
    assert controller.active  # budgets survive a stats reset


def test_controller_accepts_bare_floats():
    controller = AdmissionController({"a": 2.5})
    error = controller.denied_error("a", _Bill(3.0), index=4, sql="SELECT 1")
    assert isinstance(error, AdmissionDeniedError)
    assert error.tenant == "a"
    assert error.spent_dollars == 3.0
    assert error.budget_dollars == 2.5
    assert error.index == 4


# --------------------------------------------------------------------- #
# Admission: end-to-end over the serving layer
# --------------------------------------------------------------------- #
def exhaust_tenant(warehouse, session) -> float:
    """Serve one query and set the tenant's budget below what it spent."""
    handle = session.submit(
        quick_request(instantiate("q6_revenue_forecast", seed=1))
    )
    spent = handle.result().dollars
    warehouse.admission.set_budget(session.tenant, spent / 2)
    return spent


def test_exhausted_budget_denies_with_typed_error(catalog):
    warehouse = fresh_warehouse(catalog)
    session = warehouse.session(tenant="a", constraint=CONSTRAINT)
    exhaust_tenant(warehouse, session)
    handle = session.submit(quick_request(instantiate("q6_revenue_forecast", seed=2)))
    assert handle.state is QueryState.DENIED
    assert handle.denied and handle.done and not handle.failed
    assert handle.admission is AdmissionVerdict.DENY
    assert isinstance(handle.error, AdmissionDeniedError)
    assert handle.error.tenant == "a"
    with pytest.raises(AdmissionDeniedError):
        handle.result()
    # Denied queries are not timestamped, logged, or billed.
    assert handle.timestamp is None
    assert len(warehouse.logs) == 1
    assert warehouse.billing["a"].queries == 1


def test_denial_is_isolated_per_tenant_in_mixed_batch(catalog):
    """One tenant running dry mid-batch must not fail the other tenant's
    in-flight items — fail_fast=False reports denial per handle."""
    warehouse = fresh_warehouse(catalog)
    poor = warehouse.session(tenant="poor", constraint=CONSTRAINT)
    exhaust_tenant(warehouse, poor)
    rich = warehouse.session(tenant="rich", constraint=CONSTRAINT)
    items = [
        quick_request(instantiate("q6_revenue_forecast", seed=3), tenant="poor"),
        quick_request(instantiate("q6_revenue_forecast", seed=4), tenant="rich"),
        quick_request(instantiate("q6_revenue_forecast", seed=5), tenant="poor"),
        quick_request(instantiate("q6_revenue_forecast", seed=6), tenant="rich"),
    ]
    handles = rich.submit_many(items, fail_fast=False)
    assert [h.state for h in handles] == [
        QueryState.DENIED,
        QueryState.DONE,
        QueryState.DENIED,
        QueryState.DONE,
    ]
    assert all(isinstance(h.error, AdmissionDeniedError) for h in handles if h.denied)
    assert warehouse.billing["rich"].queries == 2


def test_denial_raises_under_fail_fast(catalog):
    warehouse = fresh_warehouse(catalog)
    session = warehouse.session(tenant="a", constraint=CONSTRAINT)
    exhaust_tenant(warehouse, session)
    with pytest.raises(AdmissionDeniedError):
        session.submit_many(
            [quick_request(instantiate("q6_revenue_forecast", seed=7))],
            fail_fast=True,
        )


def test_fail_fast_denial_aborts_at_its_position(catalog, serving_executor):
    """Legacy abort-the-batch semantics, on every executor: items
    submitted *before* the denied one are served, logged, and billed;
    items after are not."""
    warehouse = fresh_warehouse(catalog)
    poor = warehouse.session(tenant="poor", constraint=CONSTRAINT)
    exhaust_tenant(warehouse, poor)
    max_workers = serving_executor(warehouse)
    rich = warehouse.session(tenant="rich", constraint=CONSTRAINT)
    items = [
        quick_request(instantiate("q6_revenue_forecast", seed=61), tenant="rich"),
        quick_request(instantiate("q6_revenue_forecast", seed=62), tenant="poor"),
        quick_request(instantiate("q6_revenue_forecast", seed=63), tenant="rich"),
    ]
    handles = [
        QueryHandle(rich.resolve(item), index=index)
        for index, item in enumerate(items)
    ]
    scheduler = ServingScheduler(rich, max_workers=max_workers, fail_fast=True)
    with pytest.raises(AdmissionDeniedError):
        scheduler.run(handles)
    assert [h.state for h in handles[:2]] == [QueryState.DONE, QueryState.DENIED]
    assert not handles[2].done
    assert warehouse.billing["rich"].queries == 1  # item 0 served
    # probe + item 0, in that order; item 2 never ran
    assert [record.tenant for record in warehouse.logs] == ["poor", "rich"]


def test_deferred_tenant_runs_after_batch_and_can_be_denied(catalog):
    """A tenant at the defer threshold is pushed behind the batch; its
    own deferred spend can then exhaust the budget mid-tail, denying the
    rest — other tenants unaffected."""
    warehouse = fresh_warehouse(catalog)
    meter = warehouse.session(tenant="metered", constraint=CONSTRAINT)
    probe = meter.submit(quick_request(instantiate("q6_revenue_forecast", seed=1)))
    spent = probe.result().dollars
    # Spend sits in [defer_at, 1.0) of budget; one more query exhausts it.
    warehouse.admission.set_budget(
        "metered", TenantBudget(dollars=spent * 1.5, throttle_at=0.5, defer_at=0.6)
    )
    other = warehouse.session(tenant="other", constraint=CONSTRAINT)
    items = [
        quick_request(instantiate("q6_revenue_forecast", seed=11), tenant="metered"),
        quick_request(instantiate("q6_revenue_forecast", seed=12), tenant="other"),
        quick_request(instantiate("q6_revenue_forecast", seed=13), tenant="metered"),
    ]
    handles = other.submit_many(items, fail_fast=False)
    # Both metered items were deferred at batch admission (the counter
    # remembers; handle.admission reflects the latest decision, which
    # for a re-admitted deferred handle is its tail-of-batch verdict).
    assert warehouse.admission.verdict_counts["metered"]["defer"] == 2
    assert handles[1].admission is AdmissionVerdict.ADMIT
    # First deferred item served once the batch drained...
    assert handles[0].state is QueryState.DONE
    assert handles[0].admission is AdmissionVerdict.THROTTLE  # re-admitted
    # ...its spend exhausted the budget, so the second was denied.
    assert handles[2].state is QueryState.DENIED
    assert handles[1].state is QueryState.DONE
    # The deferred item finalized after the admitted one: log order.
    templates = [record.tenant for record in warehouse.logs]
    assert templates == ["metered", "other", "metered"]


def test_throttled_batch_is_bit_identical_to_unthrottled(catalog):
    """Throttling only withdraws batch parallelism; outcomes, logs, and
    bills match an untrottled warehouse serving the same traffic."""
    items = [
        quick_request(instantiate("q6_revenue_forecast", seed=21)),
        quick_request(instantiate("q1_pricing_summary", seed=22)),
        quick_request(instantiate("q6_revenue_forecast", seed=23)),
    ]
    outcomes = {}
    for throttled in (False, True):
        warehouse = fresh_warehouse(catalog)
        session = warehouse.session(tenant="a", constraint=CONSTRAINT)
        spent = exhaust_tenant(warehouse, session)
        if throttled:
            # Spend lands in [throttle_at, defer_at): every batch item
            # gets the THROTTLE verdict and stages serially.
            warehouse.admission.set_budget(
                "a", TenantBudget(dollars=spent * 100, throttle_at=0.005, defer_at=0.99)
            )
        else:
            warehouse.admission.set_budget("a", TenantBudget(dollars=spent * 100))
        handles = session.submit_many(items, max_workers=4)
        expected = AdmissionVerdict.THROTTLE if throttled else AdmissionVerdict.ADMIT
        assert all(h.admission is expected for h in handles)
        outcomes[throttled] = [h.result() for h in handles]
    for plain, throttled in zip(outcomes[False], outcomes[True]):
        assert plain.choice.dop_plan.dops == throttled.choice.dop_plan.dops
        assert plain.dollars == throttled.dollars
        assert plain.record.query_id == throttled.record.query_id


def test_deferred_explicit_timestamps_keep_log_append_ordered(catalog):
    """A deferred item carrying an earlier at_time than later batch items
    must still serve: its timestamp is clamped up to the warehouse clock
    at re-admission so the Statistics Service log stays append-ordered."""
    warehouse = fresh_warehouse(catalog)
    meter = warehouse.session(tenant="metered", constraint=CONSTRAINT)
    probe = meter.submit(quick_request(instantiate("q6_revenue_forecast", seed=1)))
    spent = probe.result().dollars
    warehouse.admission.set_budget(
        "metered", TenantBudget(dollars=spent * 5, throttle_at=0.1, defer_at=0.15)
    )
    other = warehouse.session(tenant="other", constraint=CONSTRAINT)
    items = [
        quick_request(
            instantiate("q6_revenue_forecast", seed=41),
            tenant="metered",
            at_time=100.0,
        ),
        quick_request(
            instantiate("q6_revenue_forecast", seed=42),
            tenant="other",
            at_time=200.0,
        ),
    ]
    handles = other.submit_many(items, fail_fast=False)
    assert [h.state for h in handles] == [QueryState.DONE, QueryState.DONE]
    # The deferred item finalized last, clamped to the clock.
    assert handles[0].timestamp == 200.0
    timestamps = [record.timestamp for record in warehouse.logs]
    assert timestamps == sorted(timestamps)


def test_mixed_throttled_and_pooled_batch_matches_sequential(catalog):
    """A threaded batch mixing pooled (admitted) and serially-staged
    (throttled) tenants is bit-identical to the same batch served
    sequentially on an ungoverned warehouse."""
    items = [
        quick_request(instantiate("q6_revenue_forecast", seed=51), tenant="calm"),
        quick_request(instantiate("q1_pricing_summary", seed=52), tenant="spender"),
        quick_request(instantiate("q6_revenue_forecast", seed=53), tenant="calm"),
        quick_request(instantiate("q12_shipmode", seed=54), tenant="spender"),
    ]

    def serve(governed: bool):
        warehouse = fresh_warehouse(catalog)
        spender = warehouse.session(tenant="spender", constraint=CONSTRAINT)
        seeded = spender.submit(
            quick_request(instantiate("q6_revenue_forecast", seed=50))
        )
        spent = seeded.result().dollars
        if governed:
            warehouse.admission.set_budget(
                "spender",
                TenantBudget(dollars=spent * 100, throttle_at=0.005, defer_at=0.99),
            )
        session = warehouse.session(tenant="calm", constraint=CONSTRAINT)
        handles = session.submit_many(items, max_workers=4)
        return warehouse, handles

    plain_wh, plain = serve(governed=False)
    governed_wh, governed = serve(governed=True)
    verdicts = [h.admission for h in governed]
    assert verdicts == [
        AdmissionVerdict.ADMIT,
        AdmissionVerdict.THROTTLE,
        AdmissionVerdict.ADMIT,
        AdmissionVerdict.THROTTLE,
    ]
    for before, after in zip(plain, governed):
        assert before.result().dollars == after.result().dollars
        assert (
            before.result().choice.dop_plan.dops
            == after.result().choice.dop_plan.dops
        )
        assert before.result().record.query_id == after.result().record.query_id
    assert [r.template for r in plain_wh.logs] == [
        r.template for r in governed_wh.logs
    ]


def test_single_submit_defers_nothing(catalog):
    """With no batch to defer behind, the defer band throttles instead
    (the query still serves)."""
    warehouse = fresh_warehouse(catalog)
    session = warehouse.session(tenant="a", constraint=CONSTRAINT)
    spent = exhaust_tenant(warehouse, session)
    warehouse.admission.set_budget(
        "a", TenantBudget(dollars=spent * 1.5, throttle_at=0.1, defer_at=0.2)
    )
    handle = session.submit(quick_request(instantiate("q6_revenue_forecast", seed=31)))
    assert handle.admission is AdmissionVerdict.THROTTLE
    assert handle.state is QueryState.DONE
