"""Shared workload driver for the observability suite (PR 9)."""

from __future__ import annotations

import pytest

from repro.core.service import QueryRequest
from repro.dop.constraints import sla_constraint
from repro.workloads.tpch_stats import synthetic_tpch_catalog

SLA = sla_constraint(20.0)
TENANTS = ("acme", "bolt")

T_ORDERS = "SELECT count(*) AS c FROM orders WHERE o_totalprice > {v}"
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


def workload_steps(count: int = 6, seed: int = 0):
    """Deterministic multi-tenant steps: (tenant, template, sql, at)."""
    steps = []
    for i in range(count):
        tenant = TENANTS[(i + seed) % len(TENANTS)]
        if i % 3 == 2:
            sql = T_ORDERS.format(v=100_000 + seed + i)
            template = "orders_scan"
        else:
            sql = T_JOIN.format(v=(seed + i) % 4)
            template = "q5ish"
        steps.append((tenant, template, sql, 10.0 * i))
    return steps


def run_workload(warehouse, count: int = 6, seed: int = 0) -> None:
    """Serve the seed's steps sequentially (deterministic ordering)."""
    sessions = {
        tenant: warehouse.session(tenant=tenant, constraint=SLA)
        for tenant in TENANTS
    }
    for tenant, template, sql, at in workload_steps(count, seed):
        sessions[tenant].submit(
            QueryRequest(sql=sql, template=template, at_time=at)
        ).result()
