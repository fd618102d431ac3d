"""Quickstart: open a session, state an SLA, get results plus a cost report.

The user never picks a cluster size (no Figure-1 "T-shirt" menu): they
open a per-tenant Session, state a latency SLA once as the session
default, and submit frozen QueryRequests.  Each submission returns a
QueryHandle whose lifecycle runs QUEUED -> BOUND -> PLANNED -> SIMULATED
-> DONE with per-stage timings; result() yields the QueryOutcome with
the plan, the real rows (executed locally here), and auditable dollars —
which also roll up into the warehouse's per-tenant billing.

Run:  python examples/quickstart.py
"""

from repro import CostIntelligentWarehouse, QueryRequest, load_tpch, sla_constraint
from repro.dop.constraints import budget_constraint


def main() -> None:
    print("Loading TPC-H-like data (scale factor 0.01)...")
    database = load_tpch(scale_factor=0.01, cluster_keys={"lineitem": "l_shipdate"})
    warehouse = CostIntelligentWarehouse(database=database)
    session = warehouse.session(tenant="analyst", constraint=sla_constraint(10.0))

    sql = (
        "SELECT l_returnflag, l_linestatus, "
        "sum(l_quantity) AS sum_qty, "
        "sum(l_extendedprice * (1 - l_discount)) AS revenue, "
        "count(*) AS count_order "
        "FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' "
        "GROUP BY l_returnflag, l_linestatus "
        "ORDER BY l_returnflag, l_linestatus"
    )
    print(f"\nSubmitting under the session's 10-second latency SLA:\n  {sql}\n")
    handle = session.submit(QueryRequest(sql=sql, execute_locally=True))
    print(f"lifecycle: {handle.describe()}\n")
    outcome = handle.result()

    print("=== query result ===")
    batch = outcome.batch
    assert batch is not None
    flags = database.decode_strings("lineitem", "l_returnflag", batch.column("l_returnflag"))
    statuses = database.decode_strings("lineitem", "l_linestatus", batch.column("l_linestatus"))
    for i in range(batch.num_rows):
        print(
            f"  {flags[i]} {statuses[i]}  qty={batch.column('sum_qty')[i]:>12,.0f}"
            f"  revenue={batch.column('revenue')[i]:>18,.2f}"
            f"  orders={batch.column('count_order')[i]:>8,d}"
        )

    print("\n=== physical plan (DOP per pipeline) ===")
    print(outcome.choice.dag.describe())
    print("\n=== cost report ===")
    print(outcome.describe())
    print(f"\nSLA honored: {outcome.constraint_met}")

    budget = 0.001
    print(f"\nResubmitting under a ${budget} budget instead:")
    budgeted = session.submit(
        QueryRequest(sql=sql, constraint=budget_constraint(budget))
    ).result()
    print(
        f"  latency={budgeted.latency:.2f}s cost=${budgeted.dollars:.5f}"
        f"  budget honored: {budgeted.constraint_met}"
    )

    print(f"\ntenant '{session.tenant}' spent ${session.dollars_spent:.5f}")
    print(warehouse.describe_billing())


if __name__ == "__main__":
    main()
