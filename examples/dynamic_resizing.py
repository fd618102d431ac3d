"""§3.3 demo: the DOP monitor recovering from cardinality misestimates.

A join query is planned against optimizer estimates, then executed in the
distributed simulator where the true cardinality is 6x larger.  The
static plan blows through its SLA; the pipeline-granular DOP monitor
observes the deviation at run time, resizes the affected pipelines, and
lands the query near the SLA.

Both runs go through one warehouse Session: the same frozen QueryRequest
resubmitted with a different scaling ``policy`` (and the hidden truth
injected via ``truth=``), so the comparison is exactly the serving path.

Run:  python examples/dynamic_resizing.py
"""

from repro import CostIntelligentWarehouse, QueryRequest, synthetic_tpch_catalog
from repro.dop.constraints import sla_constraint
from repro.sim.distsim import SimConfig
from repro.util.tables import TextTable

SQL = (
    "SELECT count(*) AS c FROM orders, lineitem "
    "WHERE o_orderkey = l_orderkey AND o_totalprice > 200000"
)
SLA = 36.0


def main() -> None:
    catalog = synthetic_tpch_catalog(100.0)
    warehouse = CostIntelligentWarehouse(
        catalog=catalog, sim_config=SimConfig(seed=17)
    )
    session = warehouse.session(
        tenant="resizing-demo", constraint=sla_constraint(SLA)
    )

    # Plan once through the serving path to see what the optimizer
    # believes; the plan cache serves the same choice to both runs.
    _, choice = session.plan(SQL)
    dop_plan = choice.dop_plan
    print(f"Static plan (believes estimates): {dop_plan.describe()}\n")

    # The optimizer's cardinality estimates are 6x too low.
    truth = {
        p.ops[0].node.node_id: float(p.ops[0].node.est_rows) * 6.0
        for p in choice.dag
    }

    request = QueryRequest(sql=SQL, truth=truth, template="resizing")
    table = TextTable(
        ["policy", "latency (s)", f"SLA {SLA}s", "cost ($)", "resizes"],
        title="True cardinalities are 6x the estimates",
    )
    for label, policy in (
        ("static plan", "static"),
        ("DOP monitor (§3.3)", "dop-monitor"),
    ):
        outcome = session.submit(request.replace(policy=policy)).result()
        sim = outcome.sim
        assert sim is not None
        table.add_row(
            [
                label,
                f"{sim.latency:.1f}",
                "met" if sim.latency <= SLA else "MISSED",
                f"{sim.total_dollars:.4f}",
                sim.resize_count,
            ]
        )
    print(table)
    print(
        "\nThe monitor detects the deviation at a progress checkpoint,"
        " resizes only the affected pipelines, and replans the rest."
    )


if __name__ == "__main__":
    main()
