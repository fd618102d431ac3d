"""Chaos suite: seeded fault schedules vs the serving invariants (PR 6).

Every test drives real serving traffic while a deterministic
:class:`~repro.testing.faults.FaultPlan` injects failures and latency
spikes at the named fault points, then asserts the failure-domain
invariants that must hold under *every* schedule and interleaving:

- every handle reaches a terminal state (no lost or stuck handles);
- finalize is ordered and exactly-once (sequential query ids, one log
  record and one billing charge per DONE handle);
- every fault surfaces as a typed, picklable error on its own handle or
  as a degraded outcome — never as a lost query or a failed batch;
- degraded plans are never cached (post-fault serving is bit-identical
  to a never-faulted warehouse);
- degraded-mode plans are bit-identical to the cold heuristic
  (``explore_bushy=False``) optimizer.
"""

from __future__ import annotations

import pickle
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
CHAOS_SEEDS = range(20)

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


def workload_sqls() -> list[str]:
    sqls = []
    for i in range(4):
        sqls.append(T_ORDERS.format(v=100_000 + i))
        sqls.append(T_LINEITEM.format(v=10 + i))
        sqls.append(T_JOIN.format(v=i % 4))
    return sqls


def plan_snapshot(choice):
    estimate = choice.dop_plan.estimate
    return (
        choice.join_tree.describe(),
        dict(choice.dop_plan.dops),
        estimate.latency,
        estimate.total_dollars,
        estimate.machine_seconds,
    )


@pytest.fixture(scope="module")
def reference_plans(catalog):
    """Never-faulted plans for the workload, from a pristine warehouse."""
    clean = CostIntelligentWarehouse(catalog=catalog)
    return {
        sql: plan_snapshot(clean.plan(sql, SLA)[1]) for sql in workload_sqls()
    }


# --------------------------------------------------------------------- #
# The matrix: seeded schedules over bind/optimize/simulate/statsvc
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_chaos_schedule_preserves_serving_invariants(
    catalog, reference_plans, seed
):
    wh = CostIntelligentWarehouse(
        catalog=catalog,
        retention_policy="cost-aware",
        resilience=ResiliencePolicy(
            retry=RetryPolicy(max_attempts=3, seed=seed),
            stage_deadline_s={"optimize": 1.0},
        ),
    )
    plan = FaultPlan(
        [
            FaultSpec(point="bind", error_rate=0.15),
            # 2s spikes against a 1s optimize deadline: some submissions
            # must take the degraded fallback.
            FaultSpec(
                point="optimize",
                error_rate=0.15,
                latency_rate=0.3,
                latency_s=2.0,
            ),
            FaultSpec(point="simulate", error_rate=0.15),
            FaultSpec(point="statsvc", error_rate=0.6),
        ],
        seed=seed,
    )
    wh.inject_faults(plan)
    session = wh.session(tenant="chaos", constraint=SLA)
    sqls = workload_sqls()
    requests = [
        QueryRequest(sql=sql, at_time=30.0 * i) for i, sql in enumerate(sqls)
    ]
    handles = session.submit_many(requests[:6], max_workers=4)
    # Mid-workload statsvc traffic: the forecaster consults the fault
    # plan; failures must degrade retention, never serving.
    wh.frequency.invalidate()
    wh.frequency.family_rates()
    handles += session.submit_many(requests[6:], max_workers=4)

    # -- no lost or stuck handles ------------------------------------- #
    assert len(handles) == len(sqls)
    done = [h for h in handles if h.state is QueryState.DONE]
    failed = [h for h in handles if h.state is QueryState.FAILED]
    assert len(done) + len(failed) == len(handles)

    # -- typed-error-or-degraded for every fault ----------------------- #
    for handle in failed:
        error = handle.error
        assert isinstance(error, QueryFailedError)
        assert error.stage in {"bind", "optimize", "simulate"}
        assert error.cause_type in {
            "InjectedFault",
            "RetryExhaustedError",
            "DeadlineExceededError",
        }
        clone = pickle.loads(pickle.dumps(error))  # crosses processes
        assert clone.cause_type == error.cause_type
    for handle in done:
        outcome = handle.result()
        if handle.degraded:
            assert outcome.degraded_mode in {"heuristic", "skeleton"}

    # -- ordered, exactly-once finalize -------------------------------- #
    records = list(wh.logs)
    assert len(records) == len(done)
    assert [r.query_id for r in records] == list(range(1, len(records) + 1))

    # -- exactly-once billing ------------------------------------------ #
    bill = wh.billing.get("chaos")
    if done:
        assert bill is not None
        assert bill.dollars == pytest.approx(sum(r.dollars for r in records))
    health = wh.describe_health()
    if bill is not None:
        assert bill.retry_dollars == pytest.approx(
            health["resilience"]["retry_dollars"]
        )
    assert health["resilience"]["degraded_queries"] == sum(
        1 for h in done if h.degraded
    )
    assert health["faults"]["active"]

    # -- degraded plans were never cached ------------------------------ #
    # With faults cleared, every workload query must plan exactly as a
    # never-faulted warehouse does — whatever the caches absorbed during
    # the chaos run, none of it is a degraded plan.
    wh.inject_faults(None)
    for sql in sqls:
        assert plan_snapshot(wh.plan(sql, SLA)[1]) == reference_plans[sql]


def test_chaos_matrix_covers_degradation_and_failure(catalog):
    """Meta-check: across the seed matrix the schedules actually exercise
    both terminal failures and degraded fallbacks (not a trivially green
    matrix)."""
    saw_failed = saw_degraded = saw_retry = False
    for seed in CHAOS_SEEDS:
        wh = CostIntelligentWarehouse(
            catalog=catalog,
            resilience=ResiliencePolicy(
                retry=RetryPolicy(max_attempts=2, seed=seed),
                stage_deadline_s={"optimize": 1.0},
            ),
        )
        wh.inject_faults(
            FaultPlan(
                [
                    FaultSpec(
                        point="optimize",
                        error_rate=0.3,
                        latency_rate=0.3,
                        latency_s=2.0,
                    ),
                    FaultSpec(point="simulate", error_rate=0.3),
                ],
                seed=seed,
            )
        )
        session = wh.session(tenant="probe", constraint=SLA)
        handles = session.submit_many(
            [
                QueryRequest(sql=T_ORDERS.format(v=500 + i), at_time=30.0 * i)
                for i in range(6)
            ]
        )
        saw_failed = saw_failed or any(h.failed for h in handles)
        saw_degraded = saw_degraded or any(
            h.done and h.degraded for h in handles
        )
        saw_retry = saw_retry or wh.resilience_stats.snapshot()["retries"] > 0
    assert saw_failed and saw_degraded and saw_retry


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
    wh.reset_cache_stats()
    second = session.submit(QueryRequest(sql=sql, simulate=False))
    assert second.state is QueryState.DONE and not second.degraded
    # The degraded plan was not stored: the healthy resubmission missed
    # the exact cache and re-optimized from scratch.
    assert wh.describe_caches()["plan_cache"]["hits"] == 0
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
        assert wh.tuning.consecutive_failures == cycle + 1
        assert isinstance(wh.tuning.last_error, Exception)

    health = wh.describe_health()
    assert health["breakers"]["tuning"]["state"] == "open"
    assert health["tuning"]["consecutive_failures"] == 3
    assert health["tuning"]["last_error"].startswith("InjectedFault")
    # Nothing was half-applied and nothing was billed: the fault fires
    # before any mutation or ledger entry.
    assert wh.background_dollars == 0.0
    assert not wh.tuning.background.ledger
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


def test_chaos_matrix_sweeps_at_least_twenty_seeds():
    assert len(CHAOS_SEEDS) >= 20
