"""The serving-layer request model: QueryRequest / QueryHandle / Session
and the concurrent ServingScheduler."""

import dataclasses
import threading

import pytest

from repro.core.service import (
    QueryHandle,
    QueryRequest,
    QueryState,
    ServingScheduler,
    Session,
    STATE_ORDER,
)
from repro.core.warehouse import CostIntelligentWarehouse
from repro.dop.constraints import budget_constraint, sla_constraint
from repro.errors import QueryFailedError, ReproError
from repro.workloads.tpch_queries import instantiate
from repro.workloads.tpch_stats import synthetic_tpch_catalog

Q_COUNT = "SELECT count(*) AS c FROM orders"
Q_SUM = "SELECT sum(o_totalprice) AS s FROM orders"
Q_BROKEN = "SELECT broken FROM no_such_table"


@pytest.fixture()
def warehouse():
    return CostIntelligentWarehouse(
        catalog=synthetic_tpch_catalog(
            1.0, cluster_keys={"lineitem": "l_shipdate", "orders": "o_orderdate"}
        )
    )


# ----------------------------- QueryRequest ---------------------------- #
def test_request_is_frozen():
    request = QueryRequest(sql=Q_COUNT, constraint=sla_constraint(10.0))
    with pytest.raises(dataclasses.FrozenInstanceError):
        request.sql = "SELECT 1"


def test_request_replace_returns_new_copy():
    request = QueryRequest(sql=Q_COUNT, constraint=sla_constraint(10.0))
    tightened = request.replace(constraint=sla_constraint(2.0))
    assert request.constraint.latency_sla == 10.0
    assert tightened.constraint.latency_sla == 2.0
    assert tightened.sql == request.sql


# ------------------------------ lifecycle ------------------------------ #
def test_handle_lifecycle_and_stage_timings(warehouse):
    session = warehouse.session()
    handle = session.submit(QueryRequest(sql=Q_COUNT, constraint=sla_constraint(10.0)))
    assert handle.state is QueryState.DONE
    assert handle.done and not handle.failed
    # Every stage the request went through left a wall-time entry.
    for stage in ("queued", "bind", "plan", "simulate", "finalize"):
        assert handle.stage_timings[stage] >= 0.0
    assert handle.result().sql == Q_COUNT
    assert "done" in handle.describe()


def test_simulate_false_skips_simulated_state(warehouse):
    session = warehouse.session()
    handle = session.submit(
        QueryRequest(sql=Q_COUNT, constraint=sla_constraint(10.0), simulate=False)
    )
    assert handle.state is QueryState.DONE
    assert "simulate" not in handle.stage_timings
    assert handle.result().sim is None


def test_state_order_is_the_documented_progression():
    assert STATE_ORDER == (
        QueryState.QUEUED,
        QueryState.BOUND,
        QueryState.PLANNED,
        QueryState.SIMULATED,
        QueryState.DONE,
    )


def test_unfinished_handle_result_raises():
    handle = QueryHandle(QueryRequest(sql=Q_COUNT))
    with pytest.raises(ReproError):
        handle.result()


# ------------------------------- Session ------------------------------- #
def test_session_default_constraint_applies(warehouse):
    session = warehouse.session(constraint=sla_constraint(15.0))
    outcome = session.submit(Q_COUNT).result()
    assert outcome.constraint.latency_sla == 15.0
    # An explicit request constraint wins over the session default.
    budgeted = session.submit(
        QueryRequest(sql=Q_COUNT, constraint=budget_constraint(0.5))
    ).result()
    assert budgeted.constraint.budget == 0.5


def test_submit_without_any_constraint_fails_the_handle(warehouse):
    """Session.submit never raises: even resolution failures (no
    constraint anywhere) come back on the handle."""
    session = warehouse.session()
    handle = session.submit(Q_COUNT)
    assert handle.state is QueryState.FAILED
    assert "constraint" in str(handle.error)
    with pytest.raises(ReproError):
        handle.result()


def test_resolution_failure_in_batch_spares_other_items(warehouse):
    """A constraint-less request inside a fail_fast=False batch fails
    its own handle (with its index) without aborting the rest."""
    session = warehouse.session()  # no default constraint
    handles = session.submit_many(
        [
            QueryRequest(sql=Q_COUNT, constraint=sla_constraint(15.0)),
            QueryRequest(sql=Q_COUNT),  # unresolvable: no constraint
            QueryRequest(sql=Q_COUNT, constraint=budget_constraint(0.5)),
        ]
    )
    assert [h.state for h in handles] == [
        QueryState.DONE,
        QueryState.FAILED,
        QueryState.DONE,
    ]
    assert handles[1].error.index == 1
    with pytest.raises(ReproError):
        session.submit_many([QueryRequest(sql=Q_COUNT)], fail_fast=True)


def test_resolve_is_idempotent_for_namespaced_templates(warehouse):
    """Resubmitting handle.request (already resolved) must not
    double-prefix the template and split its family."""
    session = warehouse.session(
        constraint=sla_constraint(15.0), template_namespace="acme"
    )
    first = session.submit(QueryRequest(sql=Q_COUNT, template="counts"))
    again = session.submit(first.request)
    assert first.result().record.template == "acme.counts"
    assert again.result().record.template == "acme.counts"
    assert set(session.logs.by_template()) == {"acme.counts"}


def test_template_namespace_prefixes_log_records(warehouse):
    session = warehouse.session(
        tenant="acme", constraint=sla_constraint(15.0), template_namespace="acme"
    )
    session.submit(QueryRequest(sql=Q_COUNT, template="counts"))
    record = next(iter(session.logs))
    assert record.template == "acme.counts"
    assert "acme.counts" in warehouse.template_queries


def test_tenant_log_views_are_isolated(warehouse):
    alpha = warehouse.session(tenant="alpha", constraint=sla_constraint(15.0))
    beta = warehouse.session(tenant="beta", constraint=sla_constraint(15.0))
    alpha.submit(Q_COUNT)
    alpha.submit(Q_COUNT)
    beta.submit(Q_COUNT)
    assert len(alpha.logs) == 2
    assert len(beta.logs) == 1
    assert len(warehouse.logs) == 3
    assert all(r.tenant == "alpha" for r in alpha.logs)
    assert set(beta.logs.by_template()) == {"adhoc"}


def test_tenant_dollars_roll_up_into_warehouse_billing(warehouse):
    alpha = warehouse.session(tenant="alpha", constraint=sla_constraint(15.0))
    beta = warehouse.session(tenant="beta", constraint=budget_constraint(0.5))
    alpha.submit(Q_COUNT)
    beta.submit(instantiate("q1_pricing_summary", seed=1))
    beta.submit(instantiate("q6_revenue_forecast", seed=1))
    assert alpha.dollars_spent == alpha.logs.total_dollars > 0
    assert beta.bill.queries == 2
    assert warehouse.billed_dollars == pytest.approx(
        alpha.dollars_spent + beta.dollars_spent
    )
    assert warehouse.billed_dollars == pytest.approx(warehouse.logs.total_dollars)
    assert "alpha" in warehouse.describe_billing()


def test_session_plan_uses_default_constraint(warehouse):
    session = warehouse.session(constraint=sla_constraint(15.0))
    bound, choice = session.plan(Q_COUNT)
    assert choice.dop_plan.feasible
    with pytest.raises(ReproError):
        warehouse.session().plan(Q_COUNT)


# --------------------------- error reporting --------------------------- #
def test_failed_item_reports_index_and_sql_prefix(warehouse):
    session = warehouse.session(constraint=sla_constraint(15.0))
    handles = session.submit_many(
        [Q_COUNT, "SELECT broken FROM no_such_table", Q_COUNT]
    )
    assert [h.state for h in handles] == [
        QueryState.DONE,
        QueryState.FAILED,
        QueryState.DONE,
    ]
    error = handles[1].error
    assert isinstance(error, QueryFailedError)
    assert error.index == 1
    assert "no_such_table" in error.sql_prefix
    assert "query #1" in str(error)
    with pytest.raises(QueryFailedError):
        handles[1].result()
    # The rest of the batch completed and was logged.
    assert len(warehouse.logs) == 2


def test_fail_fast_aborts_the_batch(warehouse, serving_executor):
    """A failure aborts at its position on every executor: the item
    before it is served, logged and billed; the one after never is."""
    max_workers = serving_executor(warehouse)
    session = warehouse.session(constraint=sla_constraint(15.0))
    handles = [
        QueryHandle(session.resolve(sql), index=index)
        for index, sql in enumerate((Q_COUNT, Q_BROKEN, Q_SUM))
    ]
    scheduler = ServingScheduler(session, max_workers=max_workers, fail_fast=True)
    with pytest.raises(QueryFailedError) as excinfo:
        scheduler.run(handles)
    assert excinfo.value.index == 1
    assert [h.state for h in handles[:2]] == [QueryState.DONE, QueryState.FAILED]
    assert not handles[2].done
    assert [record.sql for record in warehouse.logs] == [Q_COUNT]
    assert session.bill.queries == 1


def test_failed_handles_are_counted_on_every_executor(warehouse, serving_executor):
    """``repro_queries_failed_total`` counts a handle that fails inside a
    batch wherever its staging ran (it used to count inline ones only)."""
    max_workers = serving_executor(warehouse)
    session = warehouse.session(constraint=sla_constraint(15.0))
    handles = session.submit_many([Q_COUNT, Q_BROKEN, Q_SUM], max_workers=max_workers)
    assert [h.state for h in handles] == [
        QueryState.DONE,
        QueryState.FAILED,
        QueryState.DONE,
    ]
    counter = warehouse.observe()["metrics"]["repro_queries_failed_total"]
    assert [sample["value"] for sample in counter["samples"]] == [1]


def test_each_served_query_counts_one_exact_lookup(warehouse, serving_executor):
    """``hits + misses == queries served`` on every executor.  The
    process executor used to look an exact hit up when deciding not to
    dispatch it and again at its serve position, so under sharding every
    hit was counted twice; the dispatch-time entry is now carried to the
    serve position."""
    max_workers = serving_executor(warehouse)
    session = warehouse.session(constraint=sla_constraint(15.0))
    batch = [Q_COUNT, Q_SUM, Q_COUNT, Q_SUM, Q_COUNT]
    cold = session.submit_many(batch, max_workers=max_workers)
    warm = session.submit_many(batch, max_workers=max_workers)
    assert all(handle.state is QueryState.DONE for handle in cold + warm)
    block = warehouse.describe_caches()["plan_cache"]
    assert block["hits"] + block["misses"] == len(warehouse.logs) == 10
    assert block["hits"] >= len(warm)  # the second batch only hits
    assert [h.result().choice for h in warm[2:]] == [
        h.result().choice for h in warm[:2]
    ] + [warm[0].result().choice]


def test_fail_fast_abort_leaves_a_carried_exact_hit_unclaimed(
    warehouse, serving_executor
):
    """An exact hit dispatched ahead of a failing item is a ticket the
    abort never collects; closing the executor must cope (the process
    executor's other tickets are worker task ids it abandons)."""
    max_workers = serving_executor(warehouse)
    session = warehouse.session(constraint=sla_constraint(15.0))
    session.submit(Q_COUNT).result()
    with pytest.raises(QueryFailedError) as excinfo:
        session.submit_many(
            [Q_COUNT, Q_BROKEN, Q_COUNT], max_workers=max_workers, fail_fast=True
        )
    assert excinfo.value.index == 1
    assert [record.sql for record in warehouse.logs] == [Q_COUNT, Q_COUNT]
    # The executor is still serviceable afterwards.
    assert session.submit_many([Q_SUM], max_workers=max_workers)[0].result()


def test_warehouse_submit_shim_raises_original_error_types(warehouse):
    """A failed handle's QueryFailedError keeps the original error
    (BindError, ...) as its in-process ``cause``: callers that want the
    concrete class read it there.  (The test id is kept stable.)"""
    from repro.errors import BindError

    handle = warehouse.session().submit(
        "SELECT x FROM no_such_table", sla_constraint(15.0)
    )
    with pytest.raises(QueryFailedError) as excinfo:
        handle.result()
    assert isinstance(excinfo.value.cause, BindError)
    assert excinfo.value.cause_type == "BindError"


def test_warehouse_submit_many_keeps_abort_behavior(warehouse):
    with pytest.raises(QueryFailedError) as excinfo:
        warehouse.session().submit_many(
            [Q_COUNT, "SELECT broken FROM no_such_table"],
            constraint=sla_constraint(15.0),
            fail_fast=True,
        )
    assert excinfo.value.index == 1
    assert "broken" in excinfo.value.sql_prefix


def test_sql_prefix_is_truncated():
    long_sql = "SELECT " + ", ".join(f"col_{i}" for i in range(60)) + " FROM t"
    error = QueryFailedError("boom", index=3, sql=long_sql)
    assert len(error.sql_prefix) == 80
    assert error.sql_prefix.endswith("...")


# ------------------------ concurrency parity --------------------------- #
def _parity_workload():
    templates = ("q1_pricing_summary", "q6_revenue_forecast", "scan_orders")
    requests = []
    seed = 1
    for round_index in range(2):
        for template in templates:
            constraint = (
                sla_constraint(25.0) if round_index % 2 == 0 else budget_constraint(0.05)
            )
            requests.append(
                QueryRequest(
                    sql=instantiate(template, seed=seed),
                    constraint=constraint,
                    template=template,
                )
            )
            seed += 1
    return requests


def _fingerprint(handle):
    outcome = handle.result()
    estimate = outcome.choice.dop_plan.estimate
    return (
        outcome.record,  # full log record: id, timestamp, dollars, tenant...
        tuple(sorted(outcome.choice.dop_plan.dops.items())),
        outcome.choice.variant_index,
        estimate.latency,
        estimate.total_dollars,
        outcome.latency,
        outcome.dollars,
    )


def test_threaded_scheduler_matches_sequential_bit_for_bit():
    """The acceptance gate: a literal-varying workload served by the
    threaded scheduler is bit-identical to sequential submission —
    plans, estimates, simulated outcomes, and the full log records in
    the same deterministic order — and per-tenant dollars sum to the
    warehouse bill."""
    catalog = synthetic_tpch_catalog(
        1.0, cluster_keys={"lineitem": "l_shipdate", "orders": "o_orderdate"}
    )
    requests = _parity_workload()

    sequential_wh = CostIntelligentWarehouse(catalog=catalog)
    sequential = sequential_wh.session(tenant="acme").submit_many(
        requests, max_workers=1
    )
    threaded_wh = CostIntelligentWarehouse(catalog=catalog)
    threaded = threaded_wh.session(tenant="acme").submit_many(requests, max_workers=4)

    assert [h.state for h in sequential] == [h.state for h in threaded]
    for left, right in zip(sequential, threaded):
        assert _fingerprint(left) == _fingerprint(right)
    # Deterministic log ordering: identical record sequences.
    assert list(sequential_wh.logs) == list(threaded_wh.logs)
    # Tenant accounting rolls up identically.
    assert threaded_wh.billed_dollars == sequential_wh.billed_dollars
    assert threaded_wh.billed_dollars == pytest.approx(
        threaded_wh.logs.total_dollars
    )


def test_scheduler_rejects_bad_worker_count(warehouse):
    with pytest.raises(ReproError):
        ServingScheduler(warehouse.session(), max_workers=0)


def test_default_batch_stages_inline_on_no_serving_thread(warehouse, monkeypatch):
    """Without ``max_workers`` a batch is staged inline: the thread
    adapter is something a caller asks for, never a default."""
    started = []
    start = threading.Thread.start

    def recording_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    session = warehouse.session(constraint=sla_constraint(15.0))
    handles = session.submit_many([Q_COUNT, Q_SUM])
    assert [h.state for h in handles] == [QueryState.DONE] * 2
    assert not [name for name in started if name.startswith("serving")]
    # The probe does see the adapter's threads when one is asked for.
    session.submit_many([Q_COUNT + " WHERE o_totalprice > 1", Q_SUM], max_workers=2)
    assert [name for name in started if name.startswith("serving")]


def test_scheduler_timestamps_match_sequential_clock(warehouse):
    session = warehouse.session(constraint=sla_constraint(15.0))
    handles = session.submit_many(
        [
            QueryRequest(sql=Q_COUNT, at_time=10.0),
            QueryRequest(sql=Q_COUNT),  # inherits the advanced clock
            QueryRequest(sql=Q_COUNT, at_time=30.0),
        ],
        max_workers=2,
    )
    assert [h.result().record.timestamp for h in handles] == [10.0, 10.0, 30.0]
    assert warehouse.clock == 30.0


# ---------------------- satellite regressions -------------------------- #
def test_template_bindings_invisible_after_stats_change(warehouse):
    """The tuning advisor must never see bound queries from a previous
    stats version (regression: invalidate_plan_cache left them)."""
    session = warehouse.session(constraint=sla_constraint(15.0))
    session.submit(QueryRequest(sql=Q_COUNT, template="counts"))
    assert "counts" in warehouse.template_queries
    warehouse.catalog.set_clustering("orders", "o_orderdate", 0.2)
    assert warehouse.template_queries == {}
    # Serving the template again under the new stats restores it.
    session.submit(QueryRequest(sql=Q_COUNT, template="counts"))
    assert "counts" in warehouse.template_queries


def test_invalidate_plan_cache_clears_template_bindings(warehouse):
    session = warehouse.session(constraint=sla_constraint(15.0))
    session.submit(QueryRequest(sql=Q_COUNT, template="counts"))
    warehouse.invalidate_plan_cache()
    assert warehouse.template_queries == {}


def test_stage_scaler_does_not_mutate_shared_sim_config(warehouse):
    """_simulate must derive the materializing config via
    dataclasses.replace, leaving the warehouse's SimConfig untouched."""
    assert warehouse.sim_config.materialize_exchanges is False
    warehouse.session().submit(
        QueryRequest(
            sql=instantiate("q12_shipmode", seed=1),
            constraint=sla_constraint(25.0),
            policy="stage-scaler",
        )
    ).result()
    assert warehouse.sim_config.materialize_exchanges is False


def test_optimizer_reset_counters(warehouse):
    session = warehouse.session()
    session.submit(Q_COUNT, sla_constraint(15.0)).result()
    # A second constraint reuses the binding, so DAG planning is a memo hit.
    session.submit(Q_COUNT, budget_constraint(0.5)).result()
    optimizer = warehouse.optimizer
    assert optimizer.dag_plans == 1
    assert optimizer.dag_memo_hits > 0
    assert warehouse.skeleton_cache.misses == 2  # one per constraint kind
    warehouse.reset_cache_stats()
    assert optimizer.dag_plans == 0
    assert optimizer.dag_memo_hits == 0
    assert warehouse.skeleton_cache.misses == 0
