"""The planning pipeline: one walk, whichever levels it was given.

The coordinator and the planner worker both instantiate
:class:`~repro.core.planning.PlanningPipeline`; these tests pin what the
sharing rests on — a missing level is skipped without changing the
plan, and the worker's private caches are bounded.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.plan_cache import PlanCache, SkeletonCache
from repro.core.planning import PlanningPipeline
from repro.core.sharding import StageTask, WorkerSpec
from repro.core.sharding_worker import PlannerShard
from repro.cost.estimator import CostEstimator
from repro.cost.hardware import HardwareCalibration
from repro.cost.regression import ExchangeCalibration
from repro.dop.constraints import budget_constraint, sla_constraint
from repro.sql.parameterize import parameterize_sql
from repro.workloads.tpch_stats import synthetic_tpch_catalog

SLA = sla_constraint(20.0)
T_ORDERS = "SELECT count(*) AS c FROM orders WHERE o_totalprice > {v}"
T_JOIN = (
    "SELECT n_name, sum(c_acctbal) AS bal, count(*) AS cnt "
    "FROM customer, nation WHERE c_nationkey = n_nationkey "
    "AND n_regionkey = {v} GROUP BY n_name"
)


@pytest.fixture(scope="module")
def catalog():
    return synthetic_tpch_catalog(1.0)


def plan_snapshot(choice):
    estimate = choice.dop_plan.estimate
    return (
        choice.join_tree.describe(),
        dict(choice.dop_plan.dops),
        estimate.latency,
        estimate.total_dollars,
        estimate.machine_seconds,
        choice.variant_index,
    )


def pipeline(catalog, **levels) -> PlanningPipeline:
    return PlanningPipeline(
        catalog,
        CostEstimator(),
        max_dop=64,
        explore_bushy=True,
        applied_mvs={},
        **levels,
    )


# ------------------------------ the walk ------------------------------- #
def test_absent_levels_are_skipped_and_plans_do_not_move(catalog):
    """No levels, ``use_cache=False``, exact only, the worker's shape
    (no exact level) and the full stack all walk to the same plan."""
    shapes = {
        "none": pipeline(catalog),
        "exact-only": pipeline(catalog, exact=PlanCache(8)),
        "worker": pipeline(catalog, skeletons=SkeletonCache(8)),
        "full": pipeline(catalog, exact=PlanCache(8), skeletons=SkeletonCache(8)),
    }
    for constraint in (SLA, budget_constraint(0.05)):
        for value in (0, 1, 0):  # new literal, new literal, a repeat
            sql = T_JOIN.format(v=value)
            reference = plan_snapshot(
                shapes["full"].plan(sql, constraint, use_cache=False).choice
            )
            for name, shape in shapes.items():
                planned = shape.plan(sql, constraint)
                assert plan_snapshot(planned.choice) == reference, name
    full = shapes["full"]
    # use_cache=False looked nothing up and stored nothing.
    assert len(full.exact) == 4 and full.exact.hits == 2
    # One bound template serves every literal and constraint.
    assert len(full.binder.templates) == 1
    assert shapes["none"].plan(T_JOIN.format(v=0), SLA).level == "optimizer"
    assert shapes["worker"].plan(T_JOIN.format(v=3), SLA).level == "skeleton"
    assert shapes["exact-only"].plan(T_JOIN.format(v=0), SLA).level == "exact"


def test_degraded_walk_stores_nothing(catalog):
    full = pipeline(catalog, exact=PlanCache(8), skeletons=SkeletonCache(8))
    assert full.plan(T_ORDERS.format(v=1), SLA, degraded=True).level == "heuristic"
    assert (len(full.exact), len(full.skeletons)) == (0, 0)
    assert full.plan(T_ORDERS.format(v=1), SLA).level == "optimizer"
    # Same template, new literal: the cached shapes answer, bit-identical
    # to what the full walk produces for that literal.
    warm = T_ORDERS.format(v=2)
    degraded = full.plan(warm, SLA, degraded=True)
    assert degraded.level == "skeleton"
    assert len(full.exact) == 1 and len(full.skeletons) == 1
    assert plan_snapshot(degraded.choice) == plan_snapshot(full.plan(warm, SLA).choice)


# ------------------------------ the worker ----------------------------- #
def make_shard(catalog, capacity: int) -> PlannerShard:
    return PlannerShard(
        WorkerSpec(
            worker_index=0,
            catalog=catalog,
            hardware=HardwareCalibration(),
            exchange=ExchangeCalibration.analytic(HardwareCalibration()),
            max_dop=64,
            explore_bushy=True,
            applied_mvs=(),
            skeleton_seed=(),
            cache_capacity=capacity,
        )
    )


def make_task(catalog, task_id: int, sql: str) -> StageTask:
    return StageTask(
        task_id=task_id,
        sql=sql,
        constraint=SLA,
        template_key=parameterize_sql(sql).template_key,
        stats_version=catalog.version,
    )


def test_worker_caches_are_bounded_and_plans_unchanged(catalog):
    """A warm process that never forgets is a leak: after 3 x capacity
    templates the worker holds <= capacity skeletons, and every plan
    equals an uncapped worker's."""
    capacity = 8
    capped = make_shard(catalog, capacity)
    uncapped = make_shard(catalog, 10_000)
    templates = [
        T_ORDERS.format(v=1) + " AND o_custkey > 0" * (i + 1)
        for i in range(3 * capacity)
    ]
    for task_id, sql in enumerate(templates):
        task = make_task(catalog, task_id, sql)
        assert plan_snapshot(capped.stage(task).choice) == plan_snapshot(
            uncapped.stage(task).choice
        )
    assert len(capped.pipeline.skeletons) <= capacity
    assert len(uncapped.pipeline.skeletons) == len(templates)
    # The first template's skeleton was evicted from the capped worker
    # only; it is planned afresh there and still plans the same.
    again = make_task(catalog, len(templates), templates[0])
    evicted, kept = capped.stage(again), uncapped.stage(again)
    assert (evicted.level, kept.level) == ("optimizer", "skeleton")
    assert plan_snapshot(evicted.choice) == plan_snapshot(kept.choice)


def test_a_worker_reply_comes_back_equal_after_a_pickle_round_trip(catalog):
    """What crosses the pipe is what the worker planned: slotted plan
    nodes restore every field.  Types that compare by identity (the
    bound query, the DAG) are held to their field-for-field ``repr``."""
    shard = make_shard(catalog, 8)
    for task_id, value in enumerate((1, 2)):  # an optimizer walk, a skeleton hit
        reply = shard.serve(make_task(catalog, task_id, T_JOIN.format(v=value)))
        assert reply[0] == "done"
        planned = reply[2]
        restored = pickle.loads(pickle.dumps(reply))[2]
        assert restored.choice.plan == planned.choice.plan
        assert restored.choice.dop_plan == planned.choice.dop_plan
        assert restored.choice.join_tree == planned.choice.join_tree
        assert restored.new_skeleton_trees == planned.new_skeleton_trees
        assert repr(restored) == repr(planned)
