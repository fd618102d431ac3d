"""E7 + E12 / §3.3: dynamic cluster resizing under cardinality errors.

Injects cardinality estimation errors (1/8x .. 8x) and compares:
- static plan execution (no adaptation);
- the pipeline-granular DOP monitor (ours);
- whole-cluster interval scaling (Jockey/Ellis family);
- per-stage scaling with materialized "clean cuts" (BigQuery family).

Metrics: SLA attainment and dollars, plus the E12 claim that clean cuts
impose overhead streaming resizing avoids.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.dop.constraints import sla_constraint
from repro.dop.planner import DopPlanner
from repro.monitor.policies import (
    IntervalScalerPolicy,
    PerStageScalerPolicy,
    PipelineDopMonitor,
    StaticPolicy,
)
from repro.plan.pipelines import decompose_pipelines
from repro.sim.distsim import DistributedSimulator, SimConfig
from repro.util.tables import TextTable

SQL = (
    "SELECT count(*) AS c FROM orders, lineitem "
    "WHERE o_orderkey = l_orderkey AND o_totalprice > 200000"
)
SLA = 25.0
ERROR_FACTORS = (0.25, 1.0, 4.0, 8.0)


def _policy(name, dag, dop_plan, estimator):
    if name == "static":
        return StaticPolicy(), SimConfig(seed=17)
    if name == "dop-monitor":
        return (
            PipelineDopMonitor(
                dag, estimator, sla_constraint(SLA), dop_plan.dops,
                planned_latency=dop_plan.estimate.latency,
                planned_durations={
                    pid: p.duration
                    for pid, p in dop_plan.estimate.pipelines.items()
                },
                max_dop=64,
            ),
            SimConfig(seed=17),
        )
    if name == "interval":
        durations = {pid: p.duration for pid, p in dop_plan.estimate.pipelines.items()}
        return (
            IntervalScalerPolicy(dag, SLA, dop_plan.dops, durations, max_dop=64),
            SimConfig(seed=17),
        )
    return (
        PerStageScalerPolicy(dag, dop_plan.dops, max_dop=64),
        SimConfig(seed=17, materialize_exchanges=True),
    )


def test_e7_resizing_policies(benchmark, binder, planner, estimator):
    def experiment():
        plan = planner.plan(binder.bind_sql(SQL))
        dag = decompose_pipelines(plan)
        dop_plan = DopPlanner(estimator, max_dop=64).plan(dag, sla_constraint(SLA))

        policies = ("static", "dop-monitor", "interval", "stage")
        table = TextTable(
            ["card error", *[f"{p} lat/$" for p in policies]],
            title=f"E7 — resizing policies under cardinality errors (SLA={SLA}s)",
        )
        outcomes = {p: [] for p in policies}
        for factor in ERROR_FACTORS:
            truth = {
                pipe.ops[0].node.node_id: float(pipe.ops[0].node.est_rows) * factor
                for pipe in dag
            }
            row = [f"{factor}x"]
            for name in policies:
                policy, config = _policy(name, dag, dop_plan, estimator)
                sim = DistributedSimulator(
                    dag, dop_plan.dops, estimator,
                    truth=truth, planned=dop_plan.estimate,
                    policy=policy, config=config,
                )
                result = sim.run()
                met = result.latency <= SLA
                outcomes[name].append((met, result.total_dollars, result.latency))
                row.append(
                    f"{result.latency:.1f}s{'✓' if met else '✗'}/"
                    f"${result.total_dollars:.4f}"
                )
            table.add_row(row)
        print()
        print(table)

        sla_rate = {
            name: sum(met for met, _, _ in runs) / len(runs)
            for name, runs in outcomes.items()
        }
        cost = {
            name: sum(dollars for _, dollars, _ in runs)
            for name, runs in outcomes.items()
        }
        lateness = {
            name: sum(latency / SLA for _, _, latency in runs) / len(runs)
            for name, runs in outcomes.items()
        }
        print(f"SLA attainment: { {k: f'{v:.0%}' for k, v in sla_rate.items()} }")
        print(f"mean lateness:  { {k: f'{v:.2f}' for k, v in lateness.items()} }")
        print(f"total dollars:  { {k: f'{v:.4f}' for k, v in cost.items()} }")

        # Pipeline-granular resizing keeps queries closest to the SLA...
        assert lateness["dop-monitor"] < lateness["static"]
        assert lateness["dop-monitor"] < lateness["interval"]
        assert lateness["dop-monitor"] < lateness["stage"]
        assert sla_rate["dop-monitor"] >= sla_rate["static"]
        # ...at lower cost than whole-cluster scaling, which inflates
        # every pipeline by the same factor.
        assert cost["dop-monitor"] < cost["interval"]
        # E12: "clean cuts" pay pure materialization overhead even when
        # the estimates were perfect (the 1.0x row has no error at all).
        no_error_index = ERROR_FACTORS.index(1.0)
        stage_clean = outcomes["stage"][no_error_index][1]
        monitor_clean = outcomes["dop-monitor"][no_error_index][1]
        assert stage_clean > monitor_clean * 1.5
        return lateness["dop-monitor"]

    run_once(benchmark, experiment)
