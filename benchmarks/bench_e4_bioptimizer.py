"""E4 / §3.2: constrained bi-objective optimization vs baselines.

min-$ under SLA and min-latency under budget, against:
- T-shirt sizing (with the §2 one-step over-provisioning habit),
- performance-only planning (classical optimizer behavior),
- serverless per-task execution (Starling/Lambada family).
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.baselines.perfonly import PerformanceOnlyPlanner
from repro.baselines.serverless import serverless_estimate
from repro.baselines.tshirt import TShirtProvisioner, uniform_dops
from repro.core.bioptimizer import BiObjectiveOptimizer
from repro.cost.operator_models import OperatorModels
from repro.dop.constraints import budget_constraint, sla_constraint
from repro.plan.pipelines import decompose_pipelines
from repro.util.tables import TextTable
from repro.workloads.tpch_queries import instantiate

QUERIES = ("q1_pricing_summary", "q5_local_supplier", "q18_large_orders", "q12_shipmode")
SLA_SECONDS = 12.0


def test_e4_sla_mode_vs_baselines(benchmark, catalog, binder, planner, estimator):
    def experiment():
        optimizer = BiObjectiveOptimizer(catalog, estimator, max_dop=128)
        tshirt = TShirtProvisioner(estimator, overprovision_steps=1)
        perfonly = PerformanceOnlyPlanner(estimator, max_dop=128)

        table = TextTable(
            [
                "query", "ours $ (lat)", "t-shirt $ (lat)",
                "perf-only $ (lat)", "serverless $ (lat)",
            ],
            title=f"E4 — min cost s.t. latency <= {SLA_SECONDS}s (estimates)",
        )
        ours_total = tshirt_total = perf_total = 0.0
        for name in QUERIES:
            bound = binder.bind_sql(instantiate(name, seed=1))
            dag = decompose_pipelines(planner.plan(bound))

            choice = optimizer.optimize(bound, sla_constraint(SLA_SECONDS))
            ours = choice.dop_plan.estimate

            pick = tshirt.pick_for_sla([dag], SLA_SECONDS)
            shirt = estimator.estimate_dag(dag, uniform_dops(dag, pick.nodes))

            perf = perfonly.plan(dag).estimate
            functions = serverless_estimate(dag, OperatorModels(estimator.hw))

            ours_total += ours.total_dollars
            tshirt_total += shirt.total_dollars
            perf_total += perf.total_dollars
            table.add_row(
                [
                    name,
                    f"{ours.total_dollars:.4f} ({ours.latency:.1f}s)",
                    f"{shirt.total_dollars:.4f} ({shirt.latency:.1f}s, {pick.size_name})",
                    f"{perf.total_dollars:.4f} ({perf.latency:.1f}s)",
                    f"{functions.dollars:.4f} ({functions.latency:.1f}s)",
                ]
            )
        print()
        print(table)
        savings_vs_tshirt = 1.0 - ours_total / tshirt_total
        savings_vs_perf = 1.0 - ours_total / perf_total
        print(
            f"workload savings: {savings_vs_tshirt:.0%} vs T-shirt, "
            f"{savings_vs_perf:.0%} vs performance-only"
        )
        assert ours_total < tshirt_total, "bi-objective must beat T-shirt sizing"
        assert ours_total < perf_total, "bi-objective must beat latency-only planning"
        return savings_vs_tshirt

    run_once(benchmark, experiment)


def test_e4_budget_mode_frontier(benchmark, catalog, binder, estimator):
    def experiment():
        optimizer = BiObjectiveOptimizer(catalog, estimator, max_dop=128)
        bound = binder.bind_sql(instantiate("q5_local_supplier", seed=1))
        table = TextTable(
            ["budget ($)", "latency (s)", "cost ($)", "max dop"],
            title="E4 — min latency s.t. budget (the user's other paradigm)",
        )
        latencies = []
        for budget in (0.002, 0.005, 0.01, 0.03, 0.1):
            choice = optimizer.optimize(bound, budget_constraint(budget))
            estimate = choice.dop_plan.estimate
            latencies.append(estimate.latency)
            table.add_row(
                [
                    f"{budget:.3f}",
                    f"{estimate.latency:.2f}",
                    f"{estimate.total_dollars:.4f}",
                    choice.dop_plan.max_dop,
                ]
            )
        print()
        print(table)
        # More budget must never slow the query down.
        assert all(b <= a + 1e-9 for a, b in zip(latencies, latencies[1:]))
        assert latencies[-1] < latencies[0], "budget should buy latency"
        return latencies[-1]

    run_once(benchmark, experiment)
