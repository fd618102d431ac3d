"""Named fault scenarios over the serving path.

Each test drives real serving traffic while a deterministic
:class:`~repro.testing.faults.FaultPlan` injects one failure shape, and
asserts what that shape must produce: degraded-mode plans bit-identical
to the cold heuristic (``explore_bushy=False``) optimizer or to the
cached skeleton shapes, a degraded plan never cached, exactly-once
finalize under a mid-batch fault, retry dollars on the bill, fewer
attempts for a tenant near its budget, and both circuit breakers
opening and recovering.  Generated fault schedules over every verb are
``test_histories.py``'s.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.resilience import BreakerState, ResiliencePolicy, RetryPolicy
from repro.core.service import QueryRequest, QueryState
from repro.core.warehouse import CostIntelligentWarehouse
from repro.dop.constraints import sla_constraint
from repro.errors import BindError, QueryFailedError
from repro.testing import FaultPlan, FaultSpec, outage
from repro.workloads.tpch_stats import synthetic_tpch_catalog

SLA = sla_constraint(20.0)

T_ORDERS = "SELECT count(*) AS c FROM orders WHERE o_totalprice > {v}"
T_LINEITEM = "SELECT count(*) AS c FROM lineitem WHERE l_quantity > {v}"
T_JOIN = (
    "SELECT n_name, sum(c_acctbal) AS bal, count(*) AS cnt "
    "FROM customer, nation WHERE c_nationkey = n_nationkey "
    "AND n_regionkey = {v} GROUP BY n_name"
)
# Four tables: bushy exploration actually considers variants here, so
# heuristic-vs-full parity is a real statement, not a tautology.
Q_FOUR_TABLES = (
    "SELECT n_name, count(*) AS cnt "
    "FROM customer, orders, lineitem, nation "
    "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey "
    "AND c_nationkey = n_nationkey AND o_totalprice > {v} "
    "GROUP BY n_name"
)


@pytest.fixture(scope="module")
def catalog():
    return synthetic_tpch_catalog(
        1.0, cluster_keys={"lineitem": "l_shipdate", "orders": "o_orderdate"}
    )


def plan_snapshot(choice):
    estimate = choice.dop_plan.estimate
    return (
        choice.join_tree.describe(),
        dict(choice.dop_plan.dops),
        estimate.latency,
        estimate.total_dollars,
        estimate.machine_seconds,
    )


# --------------------------------------------------------------------- #
# Degraded-mode parity: bit-identical to the cold heuristic path
# --------------------------------------------------------------------- #
def test_degraded_heuristic_plan_matches_cold_explore_bushy_false(catalog):
    sql = Q_FOUR_TABLES.format(v=150_000)
    wh = CostIntelligentWarehouse(
        catalog=catalog,
        resilience=ResiliencePolicy(stage_deadline_s={"optimize": 0.5}),
    )
    wh.inject_faults(
        FaultPlan(
            [FaultSpec(point="optimize", latency_rate=1.0, latency_s=1.0, limit=1)]
        )
    )
    handle = wh.session(tenant="t", constraint=SLA).submit(
        QueryRequest(sql=sql, simulate=False)
    )
    assert handle.done and handle.degraded
    outcome = handle.result()
    assert outcome.degraded_mode == "heuristic"
    assert outcome.choice.variants_considered == 1
    assert outcome.choice.variant_index == 0

    reference = CostIntelligentWarehouse(catalog=catalog, explore_bushy=False)
    ref_outcome = (
        reference.session(tenant="t", constraint=SLA)
        .submit(QueryRequest(sql=sql, simulate=False))
        .result()
    )
    assert not ref_outcome.degraded
    assert plan_snapshot(outcome.choice) == plan_snapshot(ref_outcome.choice)


def test_degraded_skeleton_mode_reuses_template_shapes(catalog):
    """With the template's skeleton cached, the optimize-deadline
    fallback re-plans the cached shapes — bit-identical to full
    optimization by the skeleton parity contract."""
    wh = CostIntelligentWarehouse(
        catalog=catalog,
        resilience=ResiliencePolicy(stage_deadline_s={"optimize": 0.5}),
    )
    session = wh.session(tenant="t", constraint=SLA)
    warm = session.submit(
        QueryRequest(sql=Q_FOUR_TABLES.format(v=100_000), simulate=False)
    )
    assert warm.state is QueryState.DONE
    assert not warm.degraded  # healthy submit populates the skeleton cache
    wh.inject_faults(
        FaultPlan(
            [FaultSpec(point="optimize", latency_rate=1.0, latency_s=1.0, limit=1)]
        )
    )
    degraded_sql = Q_FOUR_TABLES.format(v=200_000)
    handle = session.submit(QueryRequest(sql=degraded_sql, simulate=False))
    assert handle.done and handle.degraded
    assert handle.result().degraded_mode == "skeleton"

    clean = CostIntelligentWarehouse(catalog=catalog)
    assert plan_snapshot(handle.result().choice) == plan_snapshot(
        clean.plan(degraded_sql, SLA)[1]
    )


def test_degraded_plan_not_cached_healthy_resubmit_reoptimizes(catalog):
    sql = Q_FOUR_TABLES.format(v=120_000)
    wh = CostIntelligentWarehouse(
        catalog=catalog,
        resilience=ResiliencePolicy(stage_deadline_s={"optimize": 0.5}),
    )
    wh.inject_faults(
        FaultPlan(
            [FaultSpec(point="optimize", latency_rate=1.0, latency_s=1.0, limit=1)]
        )
    )
    session = wh.session(tenant="t", constraint=SLA)
    first = session.submit(QueryRequest(sql=sql, simulate=False))
    assert first.done and first.degraded
    wh.inject_faults(None)
    hits = wh.describe_caches()["plan_cache"]["hits"]
    second = session.submit(QueryRequest(sql=sql, simulate=False))
    assert second.state is QueryState.DONE and not second.degraded
    # The degraded plan was not stored: the healthy resubmission missed
    # the exact cache and re-optimized from scratch.
    assert wh.describe_caches()["plan_cache"]["hits"] == hits
    clean = CostIntelligentWarehouse(catalog=catalog)
    assert plan_snapshot(second.result().choice) == plan_snapshot(
        clean.plan(sql, SLA)[1]
    )


# --------------------------------------------------------------------- #
# Mid-batch faults under concurrency (satellite: exactly-once finalize)
# --------------------------------------------------------------------- #
def test_concurrent_batch_mid_fault_finalizes_each_handle_exactly_once(catalog):
    wh = CostIntelligentWarehouse(catalog=catalog)
    # A deterministic (non-transient) error on bind invocations 3 and 4:
    # exactly two handles fail, whichever threads drew them.
    wh.inject_faults(
        FaultPlan(
            [
                FaultSpec(
                    point="bind", error_rate=1.0, error=BindError, after=3, limit=2
                )
            ]
        )
    )
    session = wh.session(tenant="alpha", constraint=SLA)
    handles = session.submit_many(
        [
            QueryRequest(sql=T_ORDERS.format(v=1_000 + i), at_time=30.0 * i)
            for i in range(10)
        ],
        fail_fast=False,
        max_workers=4,
    )
    done = [h for h in handles if h.state is QueryState.DONE]
    failed = [h for h in handles if h.state is QueryState.FAILED]
    assert len(failed) == 2 and len(done) == 8
    for handle in failed:
        assert isinstance(handle.error, QueryFailedError)
        assert handle.error.stage == "bind"
        assert handle.error.cause_type == "BindError"
        assert handle.error.index is not None
    records = list(wh.logs)
    assert len(records) == 8  # one record per DONE handle, none for failed
    assert [r.query_id for r in records] == list(range(1, 9))
    assert wh.billing["alpha"].dollars == pytest.approx(
        sum(r.dollars for r in records)
    )

    # Another tenant's batch is untouched by alpha's exhausted fault
    # window: per-handle failure isolation extends across tenants.
    beta = wh.session(tenant="beta", constraint=SLA)
    beta_handles = beta.submit_many(
        [
            QueryRequest(sql=T_LINEITEM.format(v=20 + i), at_time=600.0 + 30.0 * i)
            for i in range(4)
        ],
        fail_fast=False,
    )
    assert all(h.state is QueryState.DONE for h in beta_handles)


def test_two_tenant_batches_interleaved_with_faults_stay_isolated(catalog):
    """Concurrent batches from two tenants under a transient-fault storm:
    every handle terminal, failures carry their own tenant's context,
    and each tenant's bill matches exactly its own logged spend."""
    wh = CostIntelligentWarehouse(
        catalog=catalog,
        resilience=ResiliencePolicy(retry=RetryPolicy(max_attempts=2, seed=5)),
    )
    wh.inject_faults(
        FaultPlan([FaultSpec(point="simulate", error_rate=0.4)], seed=5)
    )
    results: dict[str, list] = {}

    def run_batch(tenant: str, base: int) -> None:
        session = wh.session(tenant=tenant, constraint=SLA)
        results[tenant] = session.submit_many(
            [
                QueryRequest(
                    sql=T_ORDERS.format(v=base + i), at_time=30.0 * i
                )
                for i in range(8)
            ],
            fail_fast=False,
            max_workers=2,
        )

    threads = [
        threading.Thread(target=run_batch, args=("alpha", 10_000)),
        threading.Thread(target=run_batch, args=("beta", 20_000)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    records = list(wh.logs)
    assert [r.query_id for r in records] == list(range(1, len(records) + 1))
    for tenant in ("alpha", "beta"):
        handles = results[tenant]
        assert all(
            h.state in (QueryState.DONE, QueryState.FAILED) for h in handles
        )
        tenant_records = [r for r in records if r.tenant == tenant]
        assert len(tenant_records) == sum(
            1 for h in handles if h.state is QueryState.DONE
        )
        bill = wh.billing.get(tenant)
        if tenant_records:
            assert bill.dollars == pytest.approx(
                sum(r.dollars for r in tenant_records)
            )


# --------------------------------------------------------------------- #
# Budget-aware retries
# --------------------------------------------------------------------- #
def test_retry_dollars_metered_and_visible_to_admission(catalog):
    wh = CostIntelligentWarehouse(
        catalog=catalog,
        resilience=ResiliencePolicy(
            retry=RetryPolicy(max_attempts=3, jitter=0.0, backoff_base_s=0.5)
        ),
    )
    wh.inject_faults(FaultPlan([outage("simulate", limit=2)]))
    session = wh.session(tenant="payer", constraint=SLA)
    handle = session.submit(QueryRequest(sql=T_ORDERS.format(v=1)))
    assert handle.done
    assert handle.retries == 2
    bill = wh.billing["payer"]
    # jitter=0: backoffs 0.5s + 1.0s at $0.01/s.
    assert bill.retry_dollars == pytest.approx(0.015)
    assert bill.retries == 2
    assert bill.total_dollars == pytest.approx(
        bill.dollars + bill.background_dollars + bill.retry_dollars
    )
    assert wh.describe_health()["resilience"]["retry_dollars"] == pytest.approx(
        0.015
    )


def test_tenant_near_deny_gets_fewer_attempts_than_healthy_tenant(catalog):
    """The same two-failure fault window: a healthy tenant retries
    through it, a throttled tenant (pressure 1 → one fewer attempt)
    exhausts and fails."""

    def run(tenant: str, budgeted: bool):
        wh = CostIntelligentWarehouse(
            catalog=catalog,
            resilience=ResiliencePolicy(retry=RetryPolicy(max_attempts=3)),
        )
        session = wh.session(tenant=tenant, constraint=SLA)
        if budgeted:
            # Prime the bill, then set the budget so spend sits in the
            # THROTTLE band [0.75, 0.9).
            session.submit(QueryRequest(sql=T_ORDERS.format(v=7))).result()
            spent = wh.billing[tenant].total_dollars
            wh.admission.set_budget(tenant, spent / 0.8)
        wh.inject_faults(FaultPlan([outage("simulate", after=0, limit=2)]))
        return session.submit(QueryRequest(sql=T_LINEITEM.format(v=30)))

    healthy = run("healthy", budgeted=False)
    assert healthy.done and healthy.retries == 2

    throttled = run("throttled", budgeted=True)
    assert throttled.failed
    assert throttled.error.cause_type == "RetryExhaustedError"
    assert "2 times" in throttled.error.cause_message


# --------------------------------------------------------------------- #
# Statsvc breaker: forecaster outage degrades retention to LRU
# --------------------------------------------------------------------- #
def test_statsvc_outage_opens_breaker_and_degrades_to_lru(catalog):
    wh = CostIntelligentWarehouse(catalog=catalog, retention_policy="cost-aware")
    session = wh.session(tenant="t", constraint=SLA)
    for i in range(6):
        session.submit(
            QueryRequest(
                sql=T_ORDERS.format(v=50_000 + i),
                template="counts",
                at_time=i * 600.0,
                simulate=False,
            )
        ).result()
    wh.frequency.invalidate()
    assert wh.frequency.family_rates()  # healthy forecaster has rates

    wh.inject_faults(FaultPlan([outage("statsvc")]))
    for _ in range(3):  # three failed refreshes trip the breaker
        wh.frequency.invalidate()
        wh.frequency.family_rates()
    snap = wh.statsvc_breaker.snapshot()
    assert snap["state"] == "open"
    assert wh.describe_health()["breakers"]["statsvc"]["opens"] == 1
    # Degraded: rates cleared, retention scores fall back to LRU (0.0).
    assert wh.frequency.family_rates() == {}
    assert wh.frequency.rate_for(("anything",)) == 0.0

    # Recovery: the outage ends; after the call-counted cooldown the
    # half-open probe succeeds and forecasts come back.
    wh.inject_faults(None)
    for _ in range(wh.statsvc_breaker.cooldown_calls):
        wh.frequency.invalidate()
        wh.frequency.family_rates()
    assert wh.statsvc_breaker.state is BreakerState.CLOSED
    assert wh.frequency.family_rates()


def test_tuning_apply_outage_opens_breaker_and_stops_spending(catalog):
    """Background compute dies on every apply: the error is recorded
    (never swallowed silently), the tuning breaker opens after three
    failed cycles and stops burning background dollars, and foreground
    serving never notices."""
    from repro.tuning.service import TuningPolicy

    wh = CostIntelligentWarehouse(
        catalog=catalog,
        tuning_policy=TuningPolicy(cadence_queries=6, auto_apply=True),
    )
    wh.inject_faults(FaultPlan([outage("tuning_apply")]))
    session = wh.session(tenant="alpha", constraint=SLA)
    clock = 0.0

    def run_batch():
        nonlocal clock
        requests = []
        for i in range(6):
            requests.append(
                QueryRequest(
                    sql=T_JOIN.format(v=i % 3),
                    template="q5ish",
                    at_time=clock,
                    simulate=False,
                )
            )
            clock += 30.0
        return session.submit_many(requests)

    for cycle in range(3):  # three failed cycles trip the breaker
        handles = run_batch()
        assert all(h.state is QueryState.DONE for h in handles)
        assert wh.tuning.cycles_run == cycle + 1
        assert wh.tuning.breaker.consecutive_failures == cycle + 1
        assert isinstance(wh.tuning.last_error, Exception)

    health = wh.describe_health()
    assert health["breakers"]["tuning"]["state"] == "open"
    assert health["tuning"]["consecutive_failures"] == 3
    assert health["tuning"]["last_error"].startswith("InjectedFault")
    # Nothing was half-applied and nothing was billed: the fault fires
    # before any mutation or ledger entry.
    assert wh.background_dollars == 0.0
    assert not wh.tuning.applied_recommendations
    failed = [
        r for r in wh.tuning.recommendations if r.state.name == "FAILED"
    ]
    assert failed

    # With the breaker open, due cycles are skipped entirely — the
    # failing tuner stops burning proposals and dollars.
    run_batch()
    assert wh.tuning.cycles_run == 3


def test_statsvc_outage_never_fails_serving(catalog):
    wh = CostIntelligentWarehouse(catalog=catalog, retention_policy="cost-aware")
    wh.inject_faults(FaultPlan([outage("statsvc")]))
    session = wh.session(tenant="t", constraint=SLA)
    handles = session.submit_many(
        [
            QueryRequest(
                sql=T_JOIN.format(v=i % 4), template="joins", at_time=30.0 * i
            )
            for i in range(8)
        ]
    )
    assert all(h.state is QueryState.DONE for h in handles)

