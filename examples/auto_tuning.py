"""§4 demo: cost-oriented auto-tuning end to end.

Runs a recurring workload through the warehouse, lets the Statistics
Service accumulate logs, and asks the warehouse's persistent
``TuningService`` for typed recommendations.  Each recommendation
carries a customer-readable dollar report (savings x vs cost y, with
break-even horizon) plus the candidate object itself — no string
parsing anywhere.  Accepted actions are applied physically on
background compute (spend metered per tenant); a query from the same
family is then served *from the view* and verifiably returns identical
results, after which one action is rolled back to show that tuning is
reversible, restoring the pre-tuning catalog bit-for-bit.

Run:  python examples/auto_tuning.py
"""

import numpy as np

from repro import (
    CostIntelligentWarehouse,
    QueryRequest,
    load_tpch,
    sla_constraint,
)
from repro.tuning.mv import MVCandidate
from repro.workloads.tpch_queries import instantiate


def main() -> None:
    print("Loading TPC-H-like data (scale factor 0.01)...")
    database = load_tpch(scale_factor=0.01)
    warehouse = CostIntelligentWarehouse(database=database)
    session = warehouse.session(tenant="reporting", constraint=sla_constraint(20.0))

    print("Running a recurring reporting workload (24 queries)...")
    requests = []
    t = 0.0
    for i in range(8):
        for template in ("q5_local_supplier", "q12_shipmode", "q14_promo_effect"):
            requests.append(
                QueryRequest(
                    sql=instantiate(template, seed=i),
                    template=template,
                    at_time=t,
                    simulate=(i < 2),  # simulate a few; estimates for the rest
                )
            )
            t += 450.0
    session.submit_many(requests)
    print(
        f"tenant '{session.tenant}' spent ${session.dollars_spent:.4f} across "
        f"{len(session.logs)} logged queries"
    )

    caches = warehouse.describe_caches()
    skeleton = caches["skeleton_cache"]
    print(
        f"planning caches: skeleton level served {skeleton['hits']} of the "
        f"{skeleton['hits'] + skeleton['misses']} literal-varying plans "
        f"({skeleton['hit_rate']:.0%} hit rate) without re-running join "
        "ordering"
    )

    print("\n=== tuning recommendations (What-If dollar reports) ===")
    service = warehouse.tuning
    recommendations = service.propose()
    for rec in recommendations:
        print(rec.report.describe())
    applied = service.apply_all()
    print(
        f"\napplied {len(applied)} of {len(recommendations)} recommendations "
        f"on background compute (${warehouse.background_dollars:.4f}, metered "
        "to the originating tenants)"
    )
    print(warehouse.describe_billing())

    mvs = [rec for rec in applied if isinstance(rec.action, MVCandidate)]
    if mvs:
        rec = mvs[0]
        candidate = rec.action  # the priced candidate itself, no parsing
        template = rec.report.impacts[0].template
        print(f"\n=== serving the {template} family from {candidate.name} ===")
        sql = instantiate(template, seed=1)
        outcome = session.submit(
            QueryRequest(sql=sql, execute_locally=True)
        ).result()
        print(
            f"served from tables {outcome.record.tables} at "
            f"${outcome.dollars:.6f}"
        )
        assert outcome.record.tables == (candidate.name,)

        # Cross-check: the view answers identically to the base tables.
        from repro.engine.local_executor import LocalExecutor
        from repro.optimizer.dag_planner import DagPlanner

        bound = warehouse.binder.bind_sql(sql)
        original = LocalExecutor(database).execute(
            DagPlanner(warehouse.catalog).plan(bound)
        ).batch
        metric = bound.select_names[-1]
        same = np.allclose(
            np.sort(original.column(metric)),
            np.sort(outcome.batch.column(metric)),
        )
        print(
            f"rows: base-tables={original.num_rows}, "
            f"via-MV={outcome.batch.num_rows}; metric {metric!r} "
            f"identical: {same}"
        )

        print(f"\n=== rolling {rec.action.name} back ===")
        service.rollback(rec)
        restored = session.submit(QueryRequest(sql=sql)).result()
        print(
            f"[{rec.state.value}] view dropped: "
            f"{not warehouse.catalog.has_view(candidate.name)}; the family "
            f"plans over {restored.record.tables} again"
        )


if __name__ == "__main__":
    main()
