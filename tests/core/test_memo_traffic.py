"""Every estimator memo answers lookups on ordinary serving traffic.

A memo that is stored on every walk and read on none costs serving time
and code and changes no answer, so each kind the ``repro_timing_cache_*``
metrics report must be hit on a short mix of the traffic the end-to-end
benchmark serves: literal-varying report instances, repeated dashboard
SQL and generated ad-hoc shapes, under an SLA and a budget.
``benchmarks/memo_traffic.py`` prints the same counters for a whole
benchmark workload.
"""

from repro.core.service import QueryRequest
from repro.core.warehouse import CostIntelligentWarehouse
from repro.dop.constraints import budget_constraint, sla_constraint
from repro.obsvc.metrics import TIMING_CACHE_KINDS
from repro.workloads.adhoc import AdhocQueryGenerator
from repro.workloads.tpch_queries import instantiate, template_names

CONSTRAINTS = (sla_constraint(12.0), budget_constraint(0.05))


def test_every_estimator_memo_is_hit_on_a_serving_mix(big_catalog):
    names = template_names()
    reports = [instantiate(names[i % len(names)], seed=i) for i in range(12)]
    # Three fixed strings, each arriving twice under each constraint.
    dashboard = [instantiate(name, seed=1) for name in names[:3]] * 4
    adhoc = AdhocQueryGenerator(seed=3).batch(6)
    served = [
        QueryRequest(sql=sql, constraint=CONSTRAINTS[i % 2])
        for i, sql in enumerate(reports + dashboard + adhoc)
    ]
    warehouse = CostIntelligentWarehouse(catalog=big_catalog)
    for handle in warehouse.session().submit_many(served):
        handle.result()

    memos = warehouse.describe_caches()["timing_cache"]
    hits = {kind: memos[f"{kind}_hits"] for kind in TIMING_CACHE_KINDS}
    assert all(hits.values()), hits
