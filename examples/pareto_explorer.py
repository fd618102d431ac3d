"""Figure 2 as an executable: sweep configurations, print the frontier.

For one workload, evaluates every T-shirt warehouse size, marks which
are Pareto-dominated, and shows where the bi-objective optimizer lands
for a few SLAs — an ASCII rendition of the paper's Figure 2.  The
T-shirt ladder is costed directly with the estimator (there is no
serving involved in a fixed-size menu); the SLA points are QueryRequests
submitted through a Session, i.e. the real serving path.

Run:  python examples/pareto_explorer.py
"""

from repro import (
    Binder,
    CostEstimator,
    CostIntelligentWarehouse,
    QueryRequest,
    synthetic_tpch_catalog,
)
from repro.baselines.tshirt import uniform_dops
from repro.compute.pricing import TSHIRT_SIZES
from repro.dop.constraints import sla_constraint
from repro.optimizer.dag_planner import DagPlanner
from repro.plan.pipelines import decompose_pipelines
from repro.util.pareto import ParetoPoint, pareto_frontier
from repro.workloads.tpch_queries import instantiate


def main() -> None:
    catalog = synthetic_tpch_catalog(100.0)
    estimator = CostEstimator()
    binder = Binder(catalog)
    planner = DagPlanner(catalog)
    sql = instantiate("q5_local_supplier", seed=1)
    dag = decompose_pipelines(planner.plan(binder.bind_sql(sql)))

    points = []
    for name, nodes in TSHIRT_SIZES.items():
        estimate = estimator.estimate_dag(dag, uniform_dops(dag, nodes))
        points.append(ParetoPoint(estimate.latency, estimate.total_dollars, name))
    frontier = {p.payload for p in pareto_frontier(points)}

    print("T-shirt sizes (fixed uniform DOP), * = on the Pareto frontier:\n")
    max_cost = max(p.dollars for p in points)
    for point in sorted(points, key=lambda p: p.latency):
        bar = "#" * max(1, int(40 * point.dollars / max_cost))
        marker = "*" if point.payload in frontier else " "
        print(
            f"  {marker} {point.payload:>4}  latency {point.latency:7.2f}s  "
            f"${point.dollars:.4f}  {bar}"
        )

    print("\nBi-objective optimizer (per-pipeline DOPs) under SLAs:\n")
    warehouse = CostIntelligentWarehouse(catalog=catalog, max_dop=128)
    session = warehouse.session(tenant="explorer")
    for sla in (30.0, 12.0, 6.0):
        handle = session.submit(
            QueryRequest(sql=sql, constraint=sla_constraint(sla), simulate=False)
        )
        estimate = handle.result().choice.dop_plan.estimate
        bar = "#" * max(1, int(40 * estimate.total_dollars / max_cost))
        print(
            f"  SLA {sla:5.1f}s -> latency {estimate.latency:7.2f}s  "
            f"${estimate.total_dollars:.4f}  {bar}"
        )
    print(
        "\nPer-pipeline DOP assignments reach (cost, latency) points the"
        " uniform T-shirt ladder cannot express."
    )


if __name__ == "__main__":
    main()
