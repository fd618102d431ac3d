"""Bi-objective optimizer and warehouse facade."""

import pytest

from repro.core.bioptimizer import BiObjectiveOptimizer
from repro.core.service import QueryRequest
from repro.core.warehouse import CostIntelligentWarehouse
from repro.dop.constraints import budget_constraint, sla_constraint
from repro.errors import ReproError
from repro.workloads.tpch_queries import instantiate


@pytest.fixture(scope="module")
def bioptimizer(big_catalog, estimator):
    return BiObjectiveOptimizer(big_catalog, estimator, max_dop=64)


def test_optimize_under_sla(bioptimizer, big_binder):
    bound = big_binder.bind_sql(instantiate("q5_local_supplier", seed=1))
    choice = bioptimizer.optimize(bound, sla_constraint(30.0))
    assert choice.feasible
    assert choice.dop_plan.estimate.latency <= 30.0
    assert choice.variants_considered >= 1


def test_bushy_explored_for_multiway_joins(bioptimizer, big_binder):
    bound = big_binder.bind_sql(instantiate("q5_local_supplier", seed=1))
    choice = bioptimizer.optimize(bound, sla_constraint(30.0))
    assert choice.variants_considered > 1  # 6-table join: variants exist


def test_tight_sla_prefers_bushier_or_scales(bioptimizer, big_binder, estimator):
    bound = big_binder.bind_sql(instantiate("q5_local_supplier", seed=1))
    loose = bioptimizer.optimize(bound, sla_constraint(60.0))
    tight = bioptimizer.optimize(bound, sla_constraint(6.0))
    assert tight.dop_plan.estimate.total_dollars >= loose.dop_plan.estimate.total_dollars


def test_budget_mode(bioptimizer, big_binder):
    bound = big_binder.bind_sql(instantiate("q1_pricing_summary", seed=1))
    choice = bioptimizer.optimize(bound, budget_constraint(0.05))
    assert choice.feasible
    assert choice.dop_plan.estimate.total_dollars <= 0.05


def test_infeasible_reported_not_raised(bioptimizer, big_binder):
    bound = big_binder.bind_sql(instantiate("q5_local_supplier", seed=1))
    choice = bioptimizer.optimize(bound, sla_constraint(1e-3))
    assert not choice.feasible


# --------------------------- warehouse -------------------------------- #
def serve(warehouse, sql, constraint, **fields):
    """One query through a default-tenant session; returns its outcome."""
    request = QueryRequest(sql=sql, constraint=constraint, **fields)
    return warehouse.session().submit(request).result()


def test_warehouse_requires_catalog_or_db():
    with pytest.raises(ReproError):
        CostIntelligentWarehouse()


def test_warehouse_submit_stats_only(big_catalog):
    wh = CostIntelligentWarehouse(catalog=big_catalog)
    outcome = serve(
        wh,
        instantiate("scan_orders", seed=1),
        sla_constraint(20.0),
        template="scan_orders",
    )
    assert outcome.sim is not None
    assert outcome.batch is None
    assert outcome.latency > 0
    assert len(wh.logs) == 1


def test_warehouse_local_execution_needs_db(big_catalog):
    wh = CostIntelligentWarehouse(catalog=big_catalog)
    with pytest.raises(ReproError):
        serve(
            wh,
            "SELECT count(*) AS c FROM orders",
            sla_constraint(5.0),
            execute_locally=True,
        )


def test_warehouse_full_path_with_data(tpch_db):
    wh = CostIntelligentWarehouse(database=tpch_db)
    outcome = serve(
        wh,
        "SELECT count(*) AS c FROM orders WHERE o_totalprice > 100000",
        sla_constraint(15.0),
        execute_locally=True,
    )
    assert outcome.batch is not None
    assert outcome.batch.num_rows == 1
    assert outcome.sla_met is True
    assert outcome.constraint_met is True
    assert outcome.record.dollars == outcome.dollars


def test_dag_memo_respects_catalog_version():
    """Re-optimizing the same bound query after a catalog mutation must
    re-plan from live statistics, not the DAG memo."""
    from repro.cost.estimator import CostEstimator
    from repro.sql.binder import Binder
    from repro.workloads.tpch_stats import synthetic_tpch_catalog

    catalog = synthetic_tpch_catalog(1.0)
    optimizer = BiObjectiveOptimizer(catalog, CostEstimator())
    bound = Binder(catalog).bind_sql(instantiate("q18_large_orders", seed=1))
    constraint = sla_constraint(12.0)
    optimizer.optimize(bound, constraint)
    optimizer.optimize(bound, constraint)
    assert optimizer.dag_plans == 1
    assert optimizer.dag_memo_hits == 1
    catalog.set_clustering("orders", "o_orderdate", 0.2)
    optimizer.optimize(bound, constraint)
    assert optimizer.dag_plans == 2  # stale entry discarded


def test_constraint_met_covers_budget(tpch_db):
    """sla_met is None for budget-constrained queries; constraint_met
    reports the budget check instead."""
    wh = CostIntelligentWarehouse(database=tpch_db)
    sql = "SELECT count(*) AS c FROM orders WHERE o_totalprice > 100000"
    generous = serve(wh, sql, budget_constraint(1.0))
    assert generous.sla_met is None
    assert generous.constraint_met is (generous.dollars <= 1.0)
    assert generous.constraint_met is True
    assert "constraint met: True" in generous.describe()
    impossible = serve(wh, sql, budget_constraint(1e-9))
    assert impossible.sla_met is None
    assert impossible.constraint_met is False


def test_warehouse_all_policies_run(tpch_db):
    wh = CostIntelligentWarehouse(database=tpch_db)
    for policy in ("static", "dop-monitor", "interval-scaler", "stage-scaler"):
        outcome = serve(
            wh,
            instantiate("q12_shipmode", seed=2),
            sla_constraint(20.0),
            template="q12",
            policy=policy,
        )
        assert outcome.sim is not None


def test_warehouse_unknown_policy(tpch_db):
    wh = CostIntelligentWarehouse(database=tpch_db)
    with pytest.raises(ReproError):
        serve(
            wh,
            "SELECT count(*) AS c FROM orders",
            sla_constraint(5.0),
            policy="nope",
        )


def test_warehouse_log_records_structure(tpch_db):
    wh = CostIntelligentWarehouse(database=tpch_db)
    serve(
        wh,
        instantiate("q12_shipmode", seed=1),
        sla_constraint(20.0),
        template="q12_shipmode",
        at_time=123.0,
    )
    record = next(iter(wh.logs))
    assert record.timestamp == 123.0
    assert "orders" in record.tables and "lineitem" in record.tables
    assert record.join_edges
    assert record.sla_seconds == 20.0
    assert record.bytes_scanned > 0


def test_describe_outputs(tpch_db):
    wh = CostIntelligentWarehouse(database=tpch_db)
    outcome = serve(wh, "SELECT count(*) AS c FROM orders", sla_constraint(15.0))
    text = outcome.describe()
    assert "constraint" in text and "outcome" in text
