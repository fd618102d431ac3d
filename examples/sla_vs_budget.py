"""The two user paradigms of §1: latency SLAs vs fixed budgets.

Plans the same 6-table join (TPC-H Q5 shape) over a 100-scale-factor
statistics-only catalog under a sweep of SLAs and budgets, printing how
the optimizer slides along the cost-performance trade-off — the Figure-2
interaction, driven entirely by constraints instead of cluster sizes.
Each sweep point is a frozen QueryRequest submitted through one Session
(planning only: ``simulate=False``), so the whole batch also lands in
the session's log and billing views.

Run:  python examples/sla_vs_budget.py
"""

from repro import CostIntelligentWarehouse, QueryRequest, synthetic_tpch_catalog
from repro.dop.constraints import budget_constraint, sla_constraint
from repro.util.tables import TextTable
from repro.workloads.tpch_queries import instantiate


def main() -> None:
    catalog = synthetic_tpch_catalog(
        100.0, cluster_keys={"lineitem": "l_shipdate", "orders": "o_orderdate"}
    )
    warehouse = CostIntelligentWarehouse(catalog=catalog, max_dop=128)
    session = warehouse.session(tenant="sweep", template_namespace="figure2")
    sql = instantiate("q5_local_supplier", seed=1)
    print("Query: TPC-H Q5 shape over a 600M-row lineitem (SF 100)\n")

    constraints = [sla_constraint(s) for s in (60.0, 20.0, 8.0, 5.0)]
    constraints += [budget_constraint(b) for b in (0.002, 0.01, 0.05)]
    handles = session.submit_many(
        [
            QueryRequest(sql=sql, constraint=constraint, simulate=False)
            for constraint in constraints
        ]
    )

    table = TextTable(
        ["constraint", "feasible", "latency (s)", "cost ($)", "DOPs"],
        title="'Deliver on time, minimize my bill'  /  'Here is my budget'",
    )
    for constraint, handle in zip(constraints, handles):
        choice = handle.result().choice
        estimate = choice.dop_plan.estimate
        label = (
            f"SLA {constraint.latency_sla:5.1f}s"
            if constraint.is_sla
            else f"budget ${constraint.budget:.3f}"
        )
        table.add_row(
            [
                label,
                "yes" if choice.feasible else "NO (best effort)",
                f"{estimate.latency:.2f}",
                f"{estimate.total_dollars:.4f}",
                str(sorted(choice.dop_plan.dops.values())),
            ]
        )
    print(table)
    print(
        "\nTighter SLAs buy latency with dollars; bigger budgets buy"
        " dollars' worth of latency — no T-shirt menu involved."
        f"\n(One plan per constraint; the session logged {len(session.logs)}"
        " submissions under the 'figure2' namespace.)"
    )


if __name__ == "__main__":
    main()
