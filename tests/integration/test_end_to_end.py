"""End-to-end integration: SQL -> optimize -> execute/simulate -> tune."""

import numpy as np
import pytest

from repro.core.service import QueryRequest
from repro.core.warehouse import CostIntelligentWarehouse
from repro.dop.constraints import budget_constraint, sla_constraint
from repro.engine.local_executor import LocalExecutor
from repro.workloads.tpch_queries import QUERY_TEMPLATES, instantiate


def test_all_templates_execute_locally(tpch_db, tpch_binder, tpch_planner):
    executor = LocalExecutor(tpch_db)
    for name in QUERY_TEMPLATES:
        plan = tpch_planner.plan(tpch_binder.bind_sql(instantiate(name, seed=7)))
        result = executor.execute(plan)
        assert result.batch.num_rows >= 0
        assert result.wall_seconds < 30


def test_bushy_variants_preserve_results(tpch_db, tpch_binder):
    """Every bushy join variant must compute the same answer."""
    from repro.optimizer.bushy import bushy_variants
    from repro.optimizer.cardinality import CardinalityEstimator
    from repro.optimizer.dag_planner import DagPlanner

    bound = tpch_binder.bind_sql(instantiate("q5_local_supplier", seed=5))
    planner = DagPlanner(tpch_db.catalog)
    card = CardinalityEstimator(tpch_db.catalog)
    base = {
        ref.name: planner.base_relation(bound, ref.name) for ref in bound.tables
    }
    tree = planner.choose_join_tree(bound)
    executor = LocalExecutor(tpch_db)

    reference = None
    for variant in bushy_variants(tree, base, bound.join_edges, card):
        plan = planner.plan_with_tree(bound, variant)
        batch = executor.execute(plan).batch
        key = np.argsort(batch.column("n_name"))
        revenue = batch.column("revenue")[key]
        if reference is None:
            reference = revenue
        else:
            assert np.allclose(revenue, reference)


def test_simulated_sla_compliance_rate(big_catalog):
    """With accurate estimates, the planner's SLA holds in simulation for
    the vast majority of queries (noise/skew eat the rest)."""
    session = CostIntelligentWarehouse(catalog=big_catalog).session(
        constraint=sla_constraint(30.0), policy="dop-monitor"
    )
    met = 0
    total = 0
    for seed in range(3):
        for name in ("q1_pricing_summary", "q6_revenue_forecast", "scan_orders"):
            outcome = session.submit(
                QueryRequest(sql=instantiate(name, seed=seed), template=name)
            ).result()
            met += bool(outcome.sla_met)
            total += 1
    assert met / total >= 0.8


def test_budget_respected_in_simulation(big_catalog):
    session = CostIntelligentWarehouse(catalog=big_catalog).session(policy="static")
    outcome = session.submit(
        instantiate("q1_pricing_summary", seed=3), budget_constraint(0.05)
    ).result()
    # Simulated cost close to planned; allow hidden-factor slack.
    assert outcome.dollars <= 0.05 * 2.0


def test_tuning_cycle_applies_and_improves():
    """After applying an accepted MV, the what-if savings are real: the
    rewritten query executes faster-or-equal in estimated dollars.

    Uses a private database: apply=True physically mutates table layouts,
    which must not leak into the session-scoped fixture.
    """
    from repro.workloads.tpch_data import load_tpch

    db = load_tpch(scale_factor=0.002, partition_rows=4000)
    wh = CostIntelligentWarehouse(database=db)
    session = wh.session(constraint=sla_constraint(20.0))
    for i in range(5):
        session.submit(
            QueryRequest(
                sql=instantiate("q12_shipmode", seed=i),
                template="q12_shipmode",
                at_time=i * 600.0,
                simulate=False,
            )
        ).result()
    recommendations = wh.tuning.propose()
    applied_mvs = [
        r.report
        for r in recommendations
        if r.accepted and r.action.kind == "materialized-view"
    ]
    wh.tuning.apply_all(recommendations)
    if not applied_mvs:
        pytest.skip("workload did not justify an MV at this scale")
    for report in applied_mvs:
        assert wh.catalog.has_view(report.action_name)
        for impact in report.impacts:
            assert impact.dollars_after <= impact.dollars_before

    # Cleanup so the session-scoped fixture stays pristine for others.
    for report in applied_mvs:
        if wh.catalog.has_table(report.action_name):
            wh.catalog.drop_table(report.action_name)
        if wh.catalog.has_view(report.action_name):
            wh.catalog.drop_view(report.action_name)
