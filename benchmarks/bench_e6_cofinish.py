"""E6 / §3.2: the co-finish heuristic C1/T1(DOP1) ≈ C2/T2(DOP2).

Sibling pipelines feeding one consumer should finish together; otherwise
the early finisher's nodes idle (billed) until the consumer starts.
Compares uniform DOP vs co-finish-equalized DOPs vs exhaustive search.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.dop.cofinish import equalize_siblings
from repro.dop.constraints import sla_constraint
from repro.dop.planner import exhaustive_search
from repro.plan.pipelines import decompose_pipelines
from repro.util.tables import TextTable

# lineitem probes two hash tables built by *sibling* pipelines (orders
# and part are both blocking deps of the same probe pipeline) with very
# different input sizes — the classic co-finish scenario: at uniform DOP
# the small build finishes early and its nodes idle until the big one is
# done.
SQL = (
    "SELECT count(*) AS c "
    "FROM part, orders, lineitem "
    "WHERE l_partkey = p_partkey AND o_orderkey = l_orderkey"
)


def test_e6_cofinish_cuts_waste(benchmark, binder, planner, estimator):
    def experiment():
        plan = planner.plan(binder.bind_sql(SQL))
        dag = decompose_pipelines(plan)

        uniform = {p.pipeline_id: 16 for p in dag}
        uniform_estimate = estimator.estimate_dag(dag, uniform)

        balanced = equalize_siblings(dag, uniform, estimator, max_dop=64)
        balanced_estimate = estimator.estimate_dag(dag, balanced)

        constraint = sla_constraint(uniform_estimate.latency * 1.001)
        optimal = exhaustive_search(
            dag, constraint, estimator, dop_choices=(1, 2, 4, 8, 16)
        )

        table = TextTable(
            ["assignment", "latency (s)", "idle node-s (waste)", "cost ($)", "evals"],
            title="E6 — co-finishing dependent pipelines (waste = pinned idle time)",
        )
        for label, estimate, evals in (
            ("uniform dop=16", uniform_estimate, 1),
            ("co-finish heuristic", balanced_estimate, len(dag)),
            ("exhaustive optimum", optimal.estimate, optimal.evaluations),
        ):
            table.add_row(
                [
                    label,
                    f"{estimate.latency:.2f}",
                    f"{estimate.total_waste_seconds:.1f}",
                    f"{estimate.total_dollars:.4f}",
                    evals,
                ]
            )
        print()
        print(table)

        assert balanced_estimate.latency <= uniform_estimate.latency * 1.05
        assert (
            balanced_estimate.total_waste_seconds
            < uniform_estimate.total_waste_seconds
        ), "co-finish must cut pinned idle time"
        assert balanced_estimate.total_dollars < uniform_estimate.total_dollars
        # Near-exhaustive quality at a tiny fraction of the search cost.
        assert (
            balanced_estimate.total_dollars
            <= optimal.estimate.total_dollars * 1.6
        )
        waste_cut = 1.0 - (
            balanced_estimate.total_waste_seconds
            / max(uniform_estimate.total_waste_seconds, 1e-9)
        )
        print(f"waste reduction: {waste_cut:.0%}")
        return waste_cut

    run_once(benchmark, experiment)
