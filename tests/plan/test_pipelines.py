import gc

import pytest

from repro.core.bioptimizer import BiObjectiveOptimizer
from repro.cost.estimator import CostEstimator
from repro.dop.constraints import sla_constraint
from repro.errors import PlanError
from repro.plan.pipelines import (
    Pipeline,
    PipelineDag,
    ROLE_BUILD,
    ROLE_PROBE,
    ROLE_SINK_AGG,
    ROLE_SOURCE_SCAN,
    ROLE_SOURCE_STATE,
    decompose_pipelines,
)
from repro.workloads.tpch_queries import instantiate, template_names


def plan_for(binder, planner, sql):
    return planner.plan(binder.bind_sql(sql))


def test_scan_agg_query_has_two_pipelines(tpch_binder, tpch_planner):
    plan = plan_for(
        tpch_binder, tpch_planner, "SELECT count(*) AS c FROM orders"
    )
    dag = decompose_pipelines(plan)
    # P0: scan -> partial agg -> gather exchange -> final agg (sink)
    # P1: state source -> result gather
    assert len(dag) == 2
    roots = [p for p in dag if p.consumer_id is None]
    assert len(roots) == 1
    assert roots[0].source.role == ROLE_SOURCE_STATE


def test_join_query_pipeline_roles(tpch_binder, tpch_planner):
    plan = plan_for(
        tpch_binder,
        tpch_planner,
        "SELECT o_orderkey, c_acctbal FROM customer, orders WHERE c_custkey = o_custkey",
    )
    dag = decompose_pipelines(plan)
    build_pipelines = [p for p in dag if p.sink.role == ROLE_BUILD]
    assert len(build_pipelines) == 1
    build = build_pipelines[0]
    consumer = dag.pipeline(build.consumer_id)
    assert any(op.role == ROLE_PROBE for op in consumer.ops)
    assert build.pipeline_id in consumer.blocking_deps


def test_multi_join_pipeline_count(tpch_binder, tpch_planner):
    plan = plan_for(
        tpch_binder,
        tpch_planner,
        "SELECT n_name, sum(o_totalprice) AS v FROM customer, orders, nation "
        "WHERE c_custkey = o_custkey AND c_nationkey = n_nationkey GROUP BY n_name",
    )
    dag = decompose_pipelines(plan)
    builds = [p for p in dag if p.sink.role == ROLE_BUILD]
    assert len(builds) == 2  # two hash joins
    assert len(dag) >= 4


def test_topological_order_respects_deps(tpch_binder, tpch_planner):
    plan = plan_for(
        tpch_binder,
        tpch_planner,
        "SELECT n_name, count(*) AS c FROM customer, nation "
        "WHERE c_nationkey = n_nationkey GROUP BY n_name ORDER BY c DESC",
    )
    dag = decompose_pipelines(plan)
    seen = set()
    for pipeline in dag.topological_order():
        for dep in pipeline.blocking_deps:
            assert dep in seen
        seen.add(pipeline.pipeline_id)


def test_siblings_share_consumer(tpch_binder, tpch_planner):
    plan = plan_for(
        tpch_binder,
        tpch_planner,
        "SELECT count(*) AS c FROM customer, orders, nation "
        "WHERE c_custkey = o_custkey AND c_nationkey = n_nationkey",
    )
    dag = decompose_pipelines(plan)
    for pipeline in dag:
        siblings = dag.siblings(pipeline.pipeline_id)
        assert pipeline.pipeline_id in [s.pipeline_id for s in siblings]


def test_source_scan_role(tpch_binder, tpch_planner):
    plan = plan_for(tpch_binder, tpch_planner, "SELECT o_orderkey FROM orders")
    dag = decompose_pipelines(plan)
    scans = [p for p in dag if p.source.role == ROLE_SOURCE_SCAN]
    assert len(scans) == 1


def test_cycle_detection():
    a = Pipeline(pipeline_id=0, blocking_deps=[1])
    b = Pipeline(pipeline_id=1, blocking_deps=[0])
    with pytest.raises(PlanError):
        PipelineDag(pipelines={0: a, 1: b}, root_id=0)


def test_unknown_dep_detection():
    a = Pipeline(pipeline_id=0, blocking_deps=[7])
    with pytest.raises(PlanError):
        PipelineDag(pipelines={0: a}, root_id=0)


def test_planning_leaves_nothing_for_the_cycle_collector(big_catalog, big_binder):
    """A planned DAG dies with its last reference: binding, physical
    planning, decomposition and the DOP search build no reference
    cycles (the three recursive closures this file's module once had
    left ~29 objects per query that only a collection freed)."""
    optimizer = BiObjectiveOptimizer(big_catalog, CostEstimator())

    def plan_all(seed: int) -> None:
        for name in template_names():
            bound = big_binder.bind_sql(instantiate(name, seed=seed))
            optimizer.optimize(bound, sla_constraint(20.0)).dag.topological_order()

    plan_all(seed=0)  # first-use state (memo tables, interned keys)
    gc.collect()
    gc.disable()
    try:
        plan_all(seed=1)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_describe_lists_all(tpch_binder, tpch_planner):
    plan = plan_for(tpch_binder, tpch_planner, "SELECT count(*) AS c FROM region")
    dag = decompose_pipelines(plan)
    text = dag.describe()
    assert text.count("P") >= len(dag)
