"""Drill-down leaves are keyed by operator shape, not by literals.

Instances of one TPC-H report template differ only in their literals,
so serving twice as many of them adds spend to the leaves a tenant
already has instead of adding leaves; and the strings a record shares
with its template's other instances are one object each.
"""

from __future__ import annotations

from repro.core.service import QueryRequest
from repro.core.warehouse import CostIntelligentWarehouse
from repro.obsvc.drilldown import DrillDownNavigator
from repro.sql.parameterize import parameterize_sql
from repro.workloads.tpch_queries import instantiate, template_names
from tests.obsvc.conftest import SLA, TENANTS

#: Report instances per serving round: each tenant serves every template
#: four times.
ROUND = 4 * len(TENANTS) * len(template_names())


def serve_round(warehouse, start: int) -> list[str]:
    """Serve report instances ``start`` … ``start + ROUND - 1``, every
    literal new; returns their SQL."""
    names = template_names()
    served = []
    for tenant_index, tenant in enumerate(TENANTS):
        session = warehouse.session(tenant=tenant, constraint=SLA)
        requests = [
            QueryRequest(
                sql=instantiate(names[i % len(names)], seed=i),
                template=names[i % len(names)],
            )
            for i in range(start, start + ROUND)
            if (i // len(names)) % len(TENANTS) == tenant_index
        ]
        assert all(handle.result() for handle in session.submit_many(requests))
        served.extend(request.sql for request in requests)
    return served


def leaves_per_tenant(snapshot) -> dict[str, int]:
    return {entry.tenant: len(entry.leaves) for entry in snapshot.tenants}


def assert_shared(first, second) -> int:
    """Every string of ``second`` equal to one of ``first`` is that very
    object; returns how many were compared."""
    by_value = {text: text for text in first}
    compared = 0
    for text in second:
        if text in by_value:
            assert text is by_value[text], text
            compared += 1
    return compared


def test_leaves_stay_bounded_as_literal_varying_reports_are_served(catalog):
    warehouse = CostIntelligentWarehouse(catalog=catalog)
    warehouse.enable_collection(cadence_queries=16)
    served = serve_round(warehouse, 0)
    after_n = warehouse.collector.collect_now()
    served += serve_round(warehouse, ROUND)
    after_2n = warehouse.collector.collect_now()
    assert after_2n.log_len == 2 * after_n.log_len == 2 * ROUND

    # twice the queries, the same leaves, more spend on them
    assert leaves_per_tenant(after_2n) == leaves_per_tenant(after_n)
    assert after_2n.total_units > after_n.total_units
    for snapshot in (after_n, after_2n):
        assert DrillDownNavigator(snapshot).reconcile() == {
            entry.tenant: entry.total_units for entry in snapshot.tenants
        }

    # no operator label carries a literal of the served SQL
    literals = {
        text for sql in served for _, text in parameterize_sql(sql).constants
    }
    labels = {leaf.operator for entry in after_2n.tenants for leaf in entry.leaves}
    assert labels
    assert not [
        (label, literal) for label in labels for literal in literals if literal in label
    ]

    # two instances of one template share their strings
    first, second = [
        record for record in warehouse.logs if record.template == "q3_shipping_priority"
    ][:2]
    assert first.sql != second.sql
    assert assert_shared(first.columns, second.columns) == len(first.columns) > 0
    edges = [name for edge in first.join_edges for name in edge]
    assert assert_shared(edges, [n for e in second.join_edges for n in e]) == len(edges) > 0
    assert assert_shared(first.filter_columns, second.filter_columns) > 0
    assert assert_shared(
        [text for leaf in first.cost_breakdown for text in leaf[:2]],
        [text for leaf in second.cost_breakdown for text in leaf[:2]],
    ) == 2 * len(second.cost_breakdown)
