"""A planner worker killed after every dispatch position in turn.

The sharded path's contract is bit-identical observability: plans,
statistics-log records, ledger-unit bills and admission verdicts match
sequential serving, and a worker crash is free for tenants and
exactly-once.  ``test_histories.py`` holds that over generated histories
with seeded ``worker_crash`` schedules; this sweep is the exhaustive
half — one kill at each dispatch boundary of a fixed workload.
"""

from __future__ import annotations

import pytest

from repro.core.service import QueryRequest, QueryState
from repro.core.warehouse import CostIntelligentWarehouse
from repro.dop.constraints import sla_constraint
from repro.testing import FaultPlan, FaultSpec
from repro.util.rng import derive_rng
from repro.workloads.tpch_stats import synthetic_tpch_catalog
from tests.chaos.test_histories import assert_same_state

SLA = sla_constraint(20.0)

T_ORDERS = "SELECT count(*) AS c FROM orders WHERE o_totalprice > {v}"
T_LINEITEM = "SELECT count(*) AS c FROM lineitem WHERE l_quantity > {v}"
T_JOIN = (
    "SELECT n_name, sum(c_acctbal) AS bal, count(*) AS cnt "
    "FROM customer, nation WHERE c_nationkey = n_nationkey "
    "AND n_regionkey = {v} GROUP BY n_name"
)
TEMPLATES = (T_ORDERS, T_LINEITEM, T_JOIN)

#: Tight enough that the budgeted tenant crosses every admission
#: threshold mid-workload: the matrix then proves verdict parity, not
#: just bill parity.
TENANT_BUDGET = 0.002


@pytest.fixture(scope="module")
def catalog():
    return synthetic_tpch_catalog(
        1.0, cluster_keys={"lineitem": "l_shipdate", "orders": "o_orderdate"}
    )


def seeded_requests(seed: int) -> list[QueryRequest]:
    """A literal-varying multi-template workload derived from the seed."""
    rng = derive_rng(seed, "sharded-matrix", "workload")
    requests = []
    for i in range(12):
        template = TEMPLATES[int(rng.integers(len(TEMPLATES)))]
        literal = int(rng.integers(8)) if template is T_JOIN else int(
            rng.integers(100_000)
        )
        requests.append(
            QueryRequest(sql=template.format(v=literal), at_time=30.0 * i)
        )
    return requests


def observable_state(warehouse, handles):
    """Everything a tenant or operator can see: per-handle terminal
    state + verdict + plan, the statistics log, and ledger bills."""
    per_handle = []
    for handle in handles:
        row = [handle.state.name, handle.admission.name if handle.admission else None]
        if handle.state is QueryState.DONE:
            outcome = handle.result()
            estimate = outcome.choice.dop_plan.estimate
            row.append(
                (
                    outcome.sql,
                    outcome.choice.join_tree.describe(),
                    dict(outcome.choice.dop_plan.dops),
                    estimate.latency,
                    estimate.total_dollars,
                    estimate.machine_seconds,
                    outcome.record.dollars,
                )
            )
        else:
            row.append(type(handle.error).__name__)
        per_handle.append(tuple(row))
    return (
        tuple(per_handle),
        tuple(
            (r.timestamp, r.tenant, r.template, r.dollars, r.machine_seconds)
            for r in warehouse.logs.tail(200)
        ),
        {t: b.ledger_snapshot() for t, b in warehouse.billing.items()},
    )


def run_mode(catalog, seed, *, mode, fault_plan=None):
    """One serving run; ``mode`` is sequential | threaded | sharded."""
    warehouse = CostIntelligentWarehouse(
        catalog=catalog, tenant_budgets={"capped": TENANT_BUDGET}
    )
    if fault_plan is not None:
        warehouse.inject_faults(fault_plan)
    if mode == "sharded":
        warehouse.enable_sharding(workers=2)
    try:
        requests = seeded_requests(seed)
        session = warehouse.session(tenant="capped", constraint=SLA)
        max_workers = 1 if mode == "sequential" else 4
        handles = session.submit_many(
            requests[:6], max_workers=max_workers
        ) + session.submit_many(requests[6:], max_workers=max_workers)
        state = observable_state(warehouse, handles)
        pool = warehouse.worker_pool
        stats = (
            (pool.injected_kills, pool.restarts, pool.restaged_tasks)
            if pool is not None
            else None
        )
        return state, stats
    finally:
        if mode == "sharded":
            warehouse.disable_sharding()


def test_crash_sweep_covers_every_dispatch_boundary(catalog):
    """Kill a worker after each dispatch position in turn: no boundary
    may lose a query, double-bill, or otherwise perturb the observable
    state."""
    seed = 3
    baseline, _ = run_mode(catalog, seed, mode="sequential")
    boundaries_hit = 0
    for boundary in range(8):
        plan = FaultPlan(
            [
                FaultSpec(
                    point="worker_crash",
                    error_rate=1.0,
                    after=boundary,
                    limit=1,
                )
            ],
            seed=seed,
        )
        state, stats = run_mode(
            catalog, seed, mode="sharded", fault_plan=plan
        )
        assert_same_state(state, baseline, f"kill after dispatch {boundary}: {stats}")
        kills, _, _ = stats
        boundaries_hit += kills
    assert boundaries_hit >= 6  # the sweep really killed workers

