"""Lock-order sanitizer sweep over 20 seeded, threaded fault schedules.

A fully instrumented warehouse must keep an acyclic acquisition-order
graph under every schedule: a cycle is a latent deadlock two threads
could reach even if this run's timing never did.  ``test_histories.py``
asserts the same at the end of every generated history.
"""

from __future__ import annotations

import pytest

from repro.core.journal import WriteAheadJournal
from repro.core.resilience import ResiliencePolicy, RetryPolicy
from repro.core.service import QueryRequest, QueryState
from repro.core.warehouse import CostIntelligentWarehouse
from repro.dop.constraints import sla_constraint
from repro.testing import FaultPlan, FaultSpec, instrument_warehouse
from repro.workloads.tpch_stats import synthetic_tpch_catalog

SLA = sla_constraint(20.0)
LOCK_SWEEP_SEEDS = range(20)

T_ORDERS = "SELECT count(*) AS c FROM orders WHERE o_totalprice > {v}"
T_LINEITEM = "SELECT count(*) AS c FROM lineitem WHERE l_quantity > {v}"
T_JOIN = (
    "SELECT n_name, sum(c_acctbal) AS bal, count(*) AS cnt "
    "FROM customer, nation WHERE c_nationkey = n_nationkey "
    "AND n_regionkey = {v} GROUP BY n_name"
)


@pytest.fixture(scope="module")
def catalog():
    return synthetic_tpch_catalog(
        1.0, cluster_keys={"lineitem": "l_shipdate", "orders": "o_orderdate"}
    )


@pytest.mark.parametrize("seed", LOCK_SWEEP_SEEDS)
def test_chaos_schedule_has_acyclic_lock_order(catalog, seed):
    wh = CostIntelligentWarehouse(
        catalog=catalog,
        retention_policy="cost-aware",
        journal=WriteAheadJournal(),
        resilience=ResiliencePolicy(
            retry=RetryPolicy(max_attempts=3, seed=seed), stage_deadline_s={"optimize": 1.0}
        ),
    )
    specs = [
        FaultSpec(point="bind", error_rate=0.15),
        FaultSpec(point="optimize", error_rate=0.15, latency_rate=0.3, latency_s=2.0),
        FaultSpec(point="simulate", error_rate=0.15),
        FaultSpec(point="statsvc", error_rate=0.6),
    ]
    wh.inject_faults(FaultPlan(specs, seed=seed))
    sanitizer = instrument_warehouse(wh)

    session = wh.session(tenant="chaos", constraint=SLA)
    sqls = [t.format(v=v) for v in (seed, seed + 1) for t in (T_ORDERS, T_LINEITEM, T_JOIN)]
    requests = [QueryRequest(sql=sql, at_time=30.0 * i) for i, sql in enumerate(sqls)]
    handles = session.submit_many(requests[:3], max_workers=4)
    # statsvc traffic mid-workload: exercises frequency/breaker locks
    # while serving threads hold cache and serving locks.
    wh.frequency.invalidate()
    wh.frequency.family_rates()
    handles += session.submit_many(requests[3:], max_workers=4)

    assert len(handles) == len(sqls)
    assert all(h.state in (QueryState.DONE, QueryState.FAILED) for h in handles)
    # Real coverage, not a vacuous pass: the sweep must actually have
    # exercised instrumented locks, including nested holds.
    report = sanitizer.describe()
    assert report["acquisitions"] > 0
    assert any(report["edges"])
    sanitizer.assert_clean()


def test_sanitized_warehouse_serving_is_bit_identical(catalog):
    """Instrumentation must be observation-only: same plans, same bills."""
    def run(instrument: bool):
        wh = CostIntelligentWarehouse(catalog=catalog)
        if instrument:
            instrument_warehouse(wh)
        session = wh.session(tenant="t", constraint=SLA)
        requests = [
            QueryRequest(sql=T_JOIN.format(v=i % 4), at_time=30.0 * i)
            for i in range(4)
        ]
        handles = session.submit_many(requests, max_workers=2)
        bill = wh.billing["t"]
        return (
            [h.state for h in handles],
            bill.dollars,
            bill.background_dollars,
        )

    assert run(False) == run(True)


def test_lock_order_sweep_covers_at_least_twenty_seeds():
    assert len(LOCK_SWEEP_SEEDS) >= 20
