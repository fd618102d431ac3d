"""Chaos matrix for process-sharded serving (PR 10).

The sharded path's contract is *bit-identical observability*: for any
seeded workload — including schedules where planner worker processes
are killed at dispatch boundaries — plans, statistics-log records,
ledger-unit bills, and admission verdicts must match the threaded and
sequential paths exactly.  Worker crashes are free for tenants (no
retry charges) and exactly-once (a re-staged task never double-bills
or double-logs).  The sweep below drives every seed through four
serving modes and compares the full observable state.
"""

from __future__ import annotations

import pytest

from repro.core.service import QueryRequest, QueryState
from repro.core.warehouse import CostIntelligentWarehouse
from repro.dop.constraints import sla_constraint
from repro.testing import FaultPlan, FaultSpec
from repro.util.rng import derive_rng
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


def assert_same_state(actual, expected, context: str = "") -> None:
    """``actual == expected``, reporting the first handle row / log row /
    bill that differs (an intermittent failure must be readable from the
    ``-q`` output of the run that hit it)."""
    for part, got, want in zip(("handle", "log row", "bill"), actual, expected):
        if part == "bill":
            got, want = sorted(got.items()), sorted(want.items())
        assert len(got) == len(want), (
            f"{context}: {len(got)} {part}s, expected {len(want)}"
        )
        for index, (got_row, want_row) in enumerate(zip(got, want)):
            assert got_row == want_row, (
                f"{context}: first differing {part} is #{index}:\n"
                f"  got      {got_row}\n  expected {want_row}"
            )
    assert actual == expected, context


# --------------------------------------------------------------------- #
# The matrix: every seed, four modes, one observable state
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_sharded_serving_is_bit_identical_across_modes(catalog, seed):
    sequential, _ = run_mode(catalog, seed, mode="sequential")
    threaded, _ = run_mode(catalog, seed, mode="threaded")
    sharded, _ = run_mode(catalog, seed, mode="sharded")
    assert sharded == threaded == sequential


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_worker_crashes_never_lose_or_double_bill(catalog, seed):
    # Sequential, not threaded: four threads racing over the skeleton
    # cache are themselves a candidate for "which side moved", and the
    # test above holds threaded == sequential.
    baseline, _ = run_mode(catalog, seed, mode="sequential")
    crash_plan = FaultPlan(
        [FaultSpec(point="worker_crash", error_rate=0.3)], seed=seed
    )
    crashed, stats = run_mode(
        catalog, seed, mode="sharded", fault_plan=crash_plan
    )
    assert_same_state(crashed, baseline, f"seed {seed}, worker_crash stats {stats}")
    kills, restarts, restaged = stats
    if kills:
        assert restarts >= 1


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


def test_sharded_matrix_sweeps_at_least_twenty_seeds_with_worker_crashes():
    from repro.testing import FAULT_POINTS

    assert len(CHAOS_SEEDS) >= 20
    assert "worker_crash" in FAULT_POINTS
