"""Process-sharded serving: pool lifecycle, parity, and recovery.

Every behavioral claim the sharded path makes is pinned here against
the threaded baseline: bit-identical plans, logs, and ledger bills;
warm worker caches; crash restart with exactly-once effects; hang
detection feeding the degraded fallback; and cache-coherency
broadcasts on catalog changes.  The heavier seeded sweeps live in
``tests/chaos/test_sharded_matrix.py`` — this file is the fast
functional surface.
"""

from __future__ import annotations

import pytest

from repro.core.service import QueryRequest
from repro.core.sharding import PlannerWorkerPool, _worker_index_for
from repro.core.warehouse import CostIntelligentWarehouse
from repro.dop.constraints import sla_constraint
from repro.errors import ReproError
from repro.testing.faults import FaultPlan, FaultSpec
from repro.workloads.tpch_stats import synthetic_tpch_catalog

SLA = sla_constraint(20.0)
T_ORDERS = "SELECT count(*) AS c FROM orders WHERE o_totalprice > {v}"
T_JOIN = (
    "SELECT n_name, sum(c_acctbal) AS bal, count(*) AS cnt "
    "FROM customer, nation WHERE c_nationkey = n_nationkey "
    "AND n_regionkey = {v} GROUP BY n_name"
)


def make_requests(count=6, start=0):
    requests = []
    for i in range(start, start + count):
        requests.append(
            QueryRequest(sql=T_ORDERS.format(v=100_000 + i), at_time=30.0 * i)
        )
        requests.append(
            QueryRequest(sql=T_JOIN.format(v=i % 4), at_time=30.0 * i + 10)
        )
    return requests


def make_warehouse(plan=None):
    warehouse = CostIntelligentWarehouse(catalog=synthetic_tpch_catalog(1.0))
    if plan is not None:
        warehouse.inject_faults(plan)
    return warehouse


def outcomes(handles):
    result = []
    for handle in handles:
        outcome = handle.result()
        result.append(
            (
                outcome.sql,
                outcome.record.dollars,
                outcome.record.latency_s,
                dict(outcome.choice.dop_plan.dops),
                outcome.choice.variant_index,
            )
        )
    return result


def observable_state(warehouse):
    return (
        {t: b.ledger_snapshot() for t, b in warehouse.billing.items()},
        [
            (r.timestamp, r.template, r.dollars, r.machine_seconds)
            for r in warehouse.logs.tail(200)
        ],
    )


def serve(warehouse, requests, *, sharded, workers=2, **pool_kwargs):
    if sharded:
        warehouse.enable_sharding(workers=workers, **pool_kwargs)
    try:
        session = warehouse.session(tenant="t1", constraint=SLA)
        served = outcomes(session.submit_many(requests, max_workers=4))
        return served, observable_state(warehouse)
    finally:
        if sharded:
            warehouse.disable_sharding()


@pytest.fixture(scope="module")
def threaded_baseline():
    warehouse = make_warehouse()
    return serve(warehouse, make_requests(), sharded=False)


# ----------------------------- lifecycle ------------------------------ #
def test_enable_disable_lifecycle():
    warehouse = make_warehouse()
    assert warehouse.worker_pool is None
    warehouse.enable_sharding(workers=2)
    pool = warehouse.worker_pool
    assert pool is not None and pool.alive and pool.size == 2
    assert "2 worker(s)" in pool.describe()
    # re-enabling replaces the pool; disabling is idempotent
    warehouse.enable_sharding(workers=1)
    second = warehouse.worker_pool
    assert second is not pool and second.size == 1
    assert not pool.alive
    warehouse.disable_sharding()
    warehouse.disable_sharding()
    assert warehouse.worker_pool is None
    assert not second.alive


def test_worker_affinity_is_deterministic():
    assert _worker_index_for("a b", 4) == _worker_index_for("a b", 4)
    # crc32 of the key's bytes, not ``hash()``: stable across processes.
    assert _worker_index_for("select ? from t", 4) == 3
    spread = {_worker_index_for(f"t{i}", 4) for i in range(32)}
    assert len(spread) > 1  # templates actually spread across workers


# ------------------------------- parity -------------------------------- #
def test_sharded_matches_threaded_bit_for_bit(threaded_baseline):
    served, state = serve(make_warehouse(), make_requests(), sharded=True)
    assert (served, state) == threaded_baseline


def test_single_worker_parity(threaded_baseline):
    served, state = serve(
        make_warehouse(), make_requests(), sharded=True, workers=1
    )
    assert (served, state) == threaded_baseline


def test_warm_caches_hit_on_repeat_templates():
    warehouse = make_warehouse()
    warehouse.enable_sharding(workers=2)
    try:
        session = warehouse.session(tenant="t1", constraint=SLA)
        outcomes(session.submit_many(make_requests(3), max_workers=4))
        pool = warehouse.worker_pool
        # literal-varying repeats of the same templates: skeletons (and
        # for repeated literals, bindings) are served from worker-local
        # caches, not recomputed
        assert pool.warm_skeleton_hits > 0
        assert pool.tasks_dispatched == 6
    finally:
        warehouse.disable_sharding()


def test_exact_cache_hits_skip_dispatch():
    warehouse = make_warehouse()
    warehouse.enable_sharding(workers=2)
    try:
        session = warehouse.session(tenant="t1", constraint=SLA)
        first = make_requests(2)
        outcomes(session.submit_many(first, max_workers=4))
        dispatched = warehouse.worker_pool.tasks_dispatched
        # identical SQL again: the coordinator's exact plan cache
        # answers, nothing crosses a pipe
        repeat = [
            QueryRequest(sql=r.sql, at_time=r.at_time + 500.0) for r in first
        ]
        outcomes(session.submit_many(repeat, max_workers=4))
        assert warehouse.worker_pool.tasks_dispatched == dispatched
    finally:
        warehouse.disable_sharding()


def test_ineligible_requests_stage_inline(threaded_baseline):
    warehouse = make_warehouse()
    warehouse.enable_sharding(workers=2)
    try:
        session = warehouse.session(tenant="t1", constraint=SLA)
        requests = [
            QueryRequest(
                sql=r.sql, at_time=r.at_time, use_plan_cache=False
            )
            for r in make_requests()
        ]
        served = outcomes(session.submit_many(requests, max_workers=4))
        assert warehouse.worker_pool.tasks_dispatched == 0
        assert served == threaded_baseline[0]
    finally:
        warehouse.disable_sharding()


def test_deep_single_template_batch_does_not_deadlock():
    # 48 literal variations of one template all key to one worker: far
    # past the per-worker in-flight cap, this would fill both pipe
    # directions and deadlock without dispatch-side backpressure.
    warehouse = make_warehouse()
    warehouse.enable_sharding(workers=2)
    try:
        session = warehouse.session(tenant="t1", constraint=SLA)
        requests = [
            QueryRequest(sql=T_ORDERS.format(v=200_000 + i), at_time=30.0 * i)
            for i in range(48)
        ]
        served = outcomes(session.submit_many(requests, max_workers=4))
        assert len(served) == 48
        pool = warehouse.worker_pool
        assert pool.tasks_dispatched == 48
        assert pool.restarts == 0
    finally:
        warehouse.disable_sharding()


def test_dispatch_runs_ahead_of_collection_without_blocking(monkeypatch):
    # One worker, 48 tasks, cap 8: the serving loop tops the worker up
    # before each collect and never enters dispatch's blocking drain,
    # so the first handle is finalized while later ones are unsent.
    from repro.core import sharding

    warehouse = make_warehouse()
    warehouse.enable_sharding(workers=1)
    try:
        pool = warehouse.worker_pool

        def no_drain(index):
            raise AssertionError("dispatch blocked on a full worker")

        monkeypatch.setattr(pool, "_drain", no_drain)
        events = []
        dispatch, result_for = pool.dispatch, pool.result_for

        def recording_dispatch(**task):
            depth = len(pool._outstanding[0])
            events.append(("send", depth))
            return dispatch(**task)

        def recording_result_for(task_id):
            events.append(("collect", task_id))
            return result_for(task_id)

        monkeypatch.setattr(pool, "dispatch", recording_dispatch)
        monkeypatch.setattr(pool, "result_for", recording_result_for)
        session = warehouse.session(tenant="t1", constraint=SLA)
        requests = [
            QueryRequest(sql=T_ORDERS.format(v=300_000 + i), at_time=30.0 * i)
            for i in range(48)
        ]
        assert len(outcomes(session.submit_many(requests, max_workers=4))) == 48
        assert pool.tasks_dispatched == 48 and pool.restarts == 0
        sends = [depth for kind, depth in events if kind == "send"]
        assert max(sends) == sharding._MAX_INFLIGHT - 1
        # Eight go out, the first is collected, the ninth goes out, ...
        kinds = [kind for kind, _ in events]
        assert kinds[:10] == ["send"] * 8 + ["collect", "send"]
        assert [task for kind, task in events if kind == "collect"] == list(range(48))
    finally:
        warehouse.disable_sharding()


def test_fail_fast_abandons_only_what_was_sent():
    # A failure at position 0 of a deep batch: only the tasks already
    # dispatched ahead are abandoned, and their late replies neither
    # leak into nor block the next batch.
    warehouse = make_warehouse()
    warehouse.enable_sharding(workers=1)
    try:
        pool = warehouse.worker_pool
        session = warehouse.session(tenant="t1", constraint=SLA)
        bad = QueryRequest(sql="SELECT nope FROM orders", at_time=0.0)
        good = [
            QueryRequest(sql=T_ORDERS.format(v=400_000 + i), at_time=30.0 * (i + 1))
            for i in range(20)
        ]
        with pytest.raises(ReproError):
            session.submit_many([bad] + good, max_workers=4, fail_fast=True)
        assert pool.tasks_dispatched <= 8
        served = outcomes(session.submit_many(good, max_workers=4))
        assert len(served) == 20
        assert not pool._abandoned and not pool._results and not pool._owner
    finally:
        warehouse.disable_sharding()


# ------------------------------ recovery -------------------------------- #
def test_kill_worker_between_batches_restarts_warm(threaded_baseline):
    warehouse = make_warehouse()
    warehouse.enable_sharding(workers=2)
    try:
        session = warehouse.session(tenant="t1", constraint=SLA)
        requests = make_requests()
        served = outcomes(session.submit_many(requests[:6], max_workers=4))
        warehouse.worker_pool.kill_worker(0)
        warehouse.worker_pool.kill_worker(1)
        served += outcomes(session.submit_many(requests[6:], max_workers=4))
        assert warehouse.worker_pool.restarts >= 1
        assert (served, observable_state(warehouse)) == threaded_baseline
    finally:
        warehouse.disable_sharding()


def test_injected_worker_crash_keeps_parity(threaded_baseline):
    plan = FaultPlan(
        [FaultSpec(point="worker_crash", error_rate=1.0, limit=3)], seed=11
    )
    warehouse = make_warehouse(plan)
    warehouse.enable_sharding(workers=2)
    try:
        session = warehouse.session(tenant="t1", constraint=SLA)
        served = outcomes(session.submit_many(make_requests(), max_workers=4))
        pool = warehouse.worker_pool
        assert pool.injected_kills == 3
        assert pool.restarts >= 1 and pool.restaged_tasks >= 1
        # crash recovery is free for tenants: no retry charges, same bills
        assert (served, observable_state(warehouse)) == threaded_baseline
        assert warehouse.resilience_stats.retries == 0
    finally:
        warehouse.disable_sharding()


def test_restart_with_an_uncollected_reply_keeps_sequential_parity(monkeypatch):
    # One worker and every task dispatched up front: past the in-flight
    # cap, dispatch drains the first reply (the template's freshly
    # planned skeleton) into the pool's results, where it waits for its
    # ordered collect.  The kill drawn at that dispatch makes the next
    # one restart the worker while the reply is still uncollected, so
    # the restart spec cannot have been seeded from it.
    from repro.core import sharding
    from tests.chaos.test_sharded_matrix import assert_same_state, observable_state

    requests = [
        QueryRequest(sql=T_JOIN.format(v=i), at_time=30.0 * i)
        for i in range(sharding._MAX_INFLIGHT + 4)
    ]
    sequential = make_warehouse()
    session = sequential.session(tenant="t1", constraint=SLA)
    baseline = observable_state(sequential, session.submit_many(requests))

    plan = FaultPlan(
        [
            FaultSpec(
                point="worker_crash",
                error_rate=1.0,
                after=sharding._MAX_INFLIGHT,
                limit=1,
            )
        ]
    )
    warehouse = make_warehouse(plan)
    warehouse.enable_sharding(workers=1)
    try:
        pool = warehouse.worker_pool
        uncollected_at_restart = []
        restart = pool._restart

        def recording_restart(index):
            uncollected_at_restart.append(len(pool._results))
            restart(index)

        monkeypatch.setattr(pool, "has_room", lambda template_key: True)
        monkeypatch.setattr(pool, "_restart", recording_restart)
        session = warehouse.session(tenant="t1", constraint=SLA)
        handles = session.submit_many(requests, max_workers=4)
        assert pool.injected_kills == 1
        assert uncollected_at_restart and uncollected_at_restart[0] >= 1
        assert_same_state(observable_state(warehouse, handles), baseline)
    finally:
        warehouse.disable_sharding()


def test_hung_worker_takes_degraded_fallback_and_restages():
    warehouse = make_warehouse()
    warehouse.enable_sharding(workers=2, liveness_timeout_s=1.5)
    try:
        pool = warehouse.worker_pool
        session = warehouse.session(tenant="t1", constraint=SLA)
        pool.hang_worker(0)
        pool.hang_worker(1)
        served = outcomes(session.submit_many(make_requests(2), max_workers=4))
        assert len(served) == 4  # every query still answered
        assert pool.restarts >= 1
        assert warehouse.metrics.value("repro_degraded_queries_total") >= 1
        assert warehouse.resilience_stats.deadline_hits >= 1
    finally:
        warehouse.disable_sharding()


def test_result_for_unknown_task_raises():
    warehouse = make_warehouse()
    warehouse.enable_sharding(workers=1)
    try:
        with pytest.raises(ReproError):
            warehouse.worker_pool.result_for(999)
    finally:
        warehouse.disable_sharding()


# ----------------------------- coherency -------------------------------- #
def test_stats_refresh_broadcasts_before_dispatch():
    threaded = make_warehouse()
    sharded = make_warehouse()
    sharded.enable_sharding(workers=2)
    try:
        requests = make_requests()
        results = []
        for warehouse in (threaded, sharded):
            session = warehouse.session(tenant="t1", constraint=SLA)
            served = outcomes(session.submit_many(requests[:6], max_workers=4))
            catalog = warehouse.catalog
            catalog.register_table(catalog.table("orders"), replace_existing=True)
            served += outcomes(session.submit_many(requests[6:], max_workers=4))
            results.append((served, observable_state(warehouse)))
        assert results[0] == results[1]
        assert sharded.worker_pool.restarts == 0  # refresh, not restart
    finally:
        sharded.disable_sharding()


def test_plan_cache_invalidation_reaches_workers():
    warehouse = make_warehouse()
    warehouse.enable_sharding(workers=2)
    try:
        pool = warehouse.worker_pool
        session = warehouse.session(tenant="t1", constraint=SLA)
        outcomes(session.submit_many(make_requests(2), max_workers=4))
        warehouse.invalidate_plan_cache()
        outcomes(session.submit_many(make_requests(2), max_workers=4))
        # the flush epoch changed the fingerprint: identical SQL was
        # re-dispatched (no exact-cache hits survive the flush)
        assert pool.tasks_dispatched == 8
    finally:
        warehouse.disable_sharding()


# ---------------------------- observability ----------------------------- #
def test_worker_pool_metrics_are_sourced():
    warehouse = make_warehouse()
    assert warehouse.metrics.value("repro_worker_pool_size") == 0
    warehouse.enable_sharding(workers=2)
    try:
        session = warehouse.session(tenant="t1", constraint=SLA)
        outcomes(session.submit_many(make_requests(3), max_workers=4))
        metrics = warehouse.metrics
        assert metrics.value("repro_worker_pool_size") == 2
        assert metrics.value("repro_worker_restarts_total") == 0
        sourced = metrics.sourced("repro_worker_warm_task_hits_total")
        assert set(sourced) == {("bind",), ("skeleton",)}
        samples = {s.name for s in metrics.collect()}
        assert "repro_worker_ipc_roundtrip_seconds" in samples
    finally:
        warehouse.disable_sharding()
