"""Tests for constraints, the co-finish heuristic, and the DOP planner."""

import pytest

from repro.cost.estimator import CostEstimator
from repro.dop.cofinish import cofinish_dops, equalize_siblings, min_dop_for_duration
from repro.dop.constraints import Constraint, budget_constraint, sla_constraint
from repro.dop.planner import DopPlanner, exhaustive_search
from repro.errors import InfeasibleConstraintError, OptimizerError
from repro.plan.pipelines import decompose_pipelines
from repro.workloads.tpch_queries import instantiate


@pytest.fixture(scope="module")
def q5_dag(big_binder, big_planner):
    plan = big_planner.plan(big_binder.bind_sql(instantiate("q5_local_supplier", seed=1)))
    return decompose_pipelines(plan)


@pytest.fixture(scope="module")
def join_dag(big_binder, big_planner):
    plan = big_planner.plan(
        big_binder.bind_sql(
            "SELECT count(*) AS c FROM orders, lineitem WHERE o_orderkey = l_orderkey"
        )
    )
    return decompose_pipelines(plan)


# --------------------------- constraints ------------------------------ #
def test_constraint_exactly_one():
    with pytest.raises(OptimizerError):
        Constraint()
    with pytest.raises(OptimizerError):
        Constraint(latency_sla=1.0, budget=1.0)
    with pytest.raises(OptimizerError):
        Constraint(latency_sla=-1.0)


def test_constraint_objective_and_bound():
    from repro.cost.estimate import CostEstimate

    estimate = CostEstimate(latency=5.0, machine_seconds=10.0, dollars=0.5)
    sla = sla_constraint(6.0)
    assert sla.objective(estimate) == estimate.total_dollars
    assert sla.bound_value(estimate) == 5.0
    assert sla.satisfied(estimate)
    budget = budget_constraint(0.4)
    assert budget.objective(estimate) == 5.0
    assert not budget.satisfied(estimate)


def test_constraint_describe():
    assert "latency" in sla_constraint(2.0).describe()
    assert "cost" in budget_constraint(1.0).describe()


def test_constraint_hash_never_goes_through_hash_none():
    """``hash(None)`` is address-derived on CPython <= 3.11, so a hash
    folding in the unset side differed from process to process."""
    assert hash(sla_constraint(12.0)) == hash((12.0, 0.0))
    assert hash(budget_constraint(0.05)) == hash((0.0, 0.05))


# --------------------------- co-finish -------------------------------- #
def test_min_dop_for_duration_monotone(q5_dag, estimator):
    pipeline = q5_dag.topological_order()[0]
    loose = min_dop_for_duration(pipeline, 1e9, estimator.models, max_dop=64)
    assert loose == 1
    d1 = estimator.models.pipeline_timing(pipeline, 1).duration
    tight = min_dop_for_duration(pipeline, d1 / 3, estimator.models, max_dop=64)
    assert tight > 1


def test_min_dop_invalid_target(q5_dag, estimator):
    with pytest.raises(OptimizerError):
        min_dop_for_duration(
            q5_dag.topological_order()[0], 0.0, estimator.models, max_dop=8
        )


def test_cofinish_group_roughly_equalizes(q5_dag, estimator):
    groups = {}
    for pipeline in q5_dag:
        if pipeline.consumer_id is not None:
            groups.setdefault(pipeline.consumer_id, []).append(pipeline)
    siblings = max(groups.values(), key=len)
    if len(siblings) < 2:
        pytest.skip("plan has no multi-sibling group")
    target = max(
        estimator.models.pipeline_timing(p, 1).duration for p in siblings
    )
    dops = cofinish_dops(siblings, target, estimator.models, max_dop=64)
    durations = [
        estimator.models.pipeline_timing(p, dops[p.pipeline_id]).duration
        for p in siblings
    ]
    assert max(durations) <= target * 1.01


def test_equalize_siblings_never_increases_latency(join_dag, estimator):
    dops = {p.pipeline_id: 16 for p in join_dag}
    before = estimator.estimate_dag(join_dag, dops)
    balanced = equalize_siblings(join_dag, dops, estimator.models, max_dop=64)
    after = estimator.estimate_dag(join_dag, balanced)
    assert after.latency <= before.latency * 1.05
    assert after.total_waste_seconds <= before.total_waste_seconds + 1e-6


# --------------------------- planner: SLA mode ------------------------ #
def achievable_sla(dag, estimator):
    """An SLA between the fastest achievable latency and the dop=1 one."""
    from repro.baselines.perfonly import PerformanceOnlyPlanner

    baseline = estimator.estimate_dag(dag, {p.pipeline_id: 1 for p in dag})
    fastest = PerformanceOnlyPlanner(estimator, max_dop=64).plan(dag)
    return (baseline.latency + fastest.estimate.latency) / 2


def test_sla_mode_meets_sla_when_possible(q5_dag, estimator):
    planner = DopPlanner(estimator, max_dop=64)
    sla = achievable_sla(q5_dag, estimator)
    plan = planner.plan(q5_dag, sla_constraint(sla))
    assert plan.feasible
    assert plan.estimate.latency <= sla


def test_sla_mode_cheapest_when_slack(q5_dag, estimator):
    planner = DopPlanner(estimator, max_dop=64)
    plan = planner.plan(q5_dag, sla_constraint(1e6))
    # Loose SLA: minimal parallelism everywhere is cost-optimal.
    assert all(d == 1 for d in plan.dops.values())


def test_sla_infeasible_flagged(q5_dag, estimator):
    planner = DopPlanner(estimator, max_dop=2)
    plan = planner.plan(q5_dag, sla_constraint(1e-3))
    assert not plan.feasible


def test_sla_strict_mode_raises(q5_dag, estimator):
    planner = DopPlanner(estimator, max_dop=2, enforce_sla_strictly=True)
    with pytest.raises(InfeasibleConstraintError):
        planner.plan(q5_dag, sla_constraint(1e-3))


def test_tighter_sla_costs_more(q5_dag, estimator):
    planner = DopPlanner(estimator, max_dop=64)
    baseline = estimator.estimate_dag(q5_dag, {p.pipeline_id: 1 for p in q5_dag})
    loose = planner.plan(q5_dag, sla_constraint(baseline.latency))
    tight = planner.plan(q5_dag, sla_constraint(achievable_sla(q5_dag, estimator)))
    assert tight.estimate.total_dollars >= loose.estimate.total_dollars


# --------------------------- planner: budget mode --------------------- #
def test_budget_mode_respects_budget(q5_dag, estimator):
    planner = DopPlanner(estimator, max_dop=64)
    minimal = estimator.estimate_dag(q5_dag, {p.pipeline_id: 1 for p in q5_dag})
    budget = minimal.total_dollars * 3
    plan = planner.plan(q5_dag, budget_constraint(budget))
    assert plan.feasible
    assert plan.estimate.total_dollars <= budget
    assert plan.estimate.latency <= minimal.latency


def test_bigger_budget_no_slower(q5_dag, estimator):
    planner = DopPlanner(estimator, max_dop=64)
    minimal = estimator.estimate_dag(q5_dag, {p.pipeline_id: 1 for p in q5_dag})
    small = planner.plan(q5_dag, budget_constraint(minimal.total_dollars * 1.5))
    large = planner.plan(q5_dag, budget_constraint(minimal.total_dollars * 10))
    assert large.estimate.latency <= small.estimate.latency + 1e-9


def test_budget_below_minimum_infeasible(q5_dag, estimator):
    planner = DopPlanner(estimator, max_dop=64)
    plan = planner.plan(q5_dag, budget_constraint(1e-9))
    assert not plan.feasible


# --------------------------- vs exhaustive ---------------------------- #
def test_greedy_close_to_exhaustive_small_dag(big_binder, big_planner, estimator):
    plan_node = big_planner.plan(
        big_binder.bind_sql("SELECT count(*) AS c FROM orders")
    )
    dag = decompose_pipelines(plan_node)
    assert len(dag) <= 3
    constraint = sla_constraint(achievable_sla(dag, estimator))
    greedy = DopPlanner(estimator, max_dop=64).plan(dag, constraint)
    optimal = exhaustive_search(
        dag, constraint, estimator, dop_choices=(1, 2, 4, 8, 16, 32, 64)
    )
    assert greedy.feasible and optimal.feasible
    assert greedy.estimate.total_dollars <= optimal.estimate.total_dollars * 1.5


def test_planner_evaluation_budget_modest(q5_dag, estimator):
    planner = DopPlanner(estimator, max_dop=64)
    baseline = estimator.estimate_dag(q5_dag, {p.pipeline_id: 1 for p in q5_dag})
    plan = planner.plan(q5_dag, sla_constraint(baseline.latency / 2))
    # Search must stay polynomial: pipelines x log(max_dop) x small factor.
    assert plan.evaluations < 50 * len(q5_dag)
