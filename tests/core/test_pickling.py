"""Pickle round-trips for everything that crosses a worker pipe.

Process-sharded serving ships :class:`StageTask` to planner workers and
:class:`StagedPlan` back; inside those ride bound queries, plan
choices, skeleton trees, constraints, and parameterized-SQL keys.  A
field that silently stops pickling turns into a runtime protocol
failure on every sharded dispatch, so each wire type gets an explicit
round-trip here — value equality where the type defines it, behavioral
equivalence where it does not.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.bioptimizer import BiObjectiveOptimizer
from repro.core.sharding import (
    RefreshState,
    StagedPlan,
    StageTask,
    WorkerFailure,
    WorkerSpec,
)
from repro.cost.estimator import CostEstimator
from repro.dop.constraints import budget_constraint, sla_constraint
from repro.errors import ReproError
from repro.sql.binder import Binder
from repro.sql.parameterize import parameterize_sql
from repro.workloads.tpch_stats import synthetic_tpch_catalog

SQL = "SELECT count(*) AS c FROM orders WHERE o_totalprice > 1000"
JOIN_SQL = (
    "SELECT n_name, count(*) AS cnt FROM customer, nation "
    "WHERE c_nationkey = n_nationkey GROUP BY n_name"
)


@pytest.fixture(scope="module")
def catalog():
    return synthetic_tpch_catalog(1.0)


@pytest.fixture(scope="module")
def optimizer(catalog):
    return BiObjectiveOptimizer(catalog, CostEstimator())


@pytest.fixture(scope="module")
def bound(catalog):
    return Binder(catalog).bind_sql(JOIN_SQL)


def roundtrip(value):
    return pickle.loads(pickle.dumps(value))


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


# ----------------------------- constraints ---------------------------- #
def test_constraints_roundtrip():
    for constraint in (sla_constraint(20.0), budget_constraint(0.5)):
        restored = roundtrip(constraint)
        assert restored == constraint
        assert restored.is_sla == constraint.is_sla


# --------------------------- parameterized keys ------------------------ #
def test_hashed_keys_roundtrip():
    parameterized = parameterize_sql(SQL)
    for key in (parameterized.template_key, parameterized.normalized):
        restored = roundtrip(key)
        assert restored == key
        assert hash(restored) == hash(key)
        assert type(restored) is type(key)


# ------------------------------ plan choice ---------------------------- #
def test_plan_choice_roundtrips_bit_identically(optimizer, bound):
    choice = optimizer.optimize(bound, sla_constraint(20.0))
    restored = roundtrip(choice)
    assert plan_snapshot(restored) == plan_snapshot(choice)


def test_dop_plan_with_unread_estimate_roundtrips_equal(optimizer, bound):
    """``DopPlan.estimate`` is built on first read; a plan shipped before
    anyone read it must arrive whole, and equal to one that was read."""
    from repro.cost.estimate import CostEstimate

    constraint = sla_constraint(20.0)
    walk = optimizer.estimator.scratch()
    dag = optimizer.dag_variants(bound, walk)[0].dag
    planner = optimizer.dop_planner.with_estimator(walk)
    unread = planner.plan(dag, constraint)
    read = planner.plan(dag, constraint)
    assert not isinstance(unread._estimate, CostEstimate)  # still a thunk
    assert read.estimate.latency > 0

    restored = roundtrip(unread)
    assert isinstance(restored._estimate, CostEstimate)
    assert restored == read
    assert roundtrip(read) == read
    assert restored.estimate == read.estimate
    assert restored.evaluations == read.evaluations
    assert unread == read  # comparing materializes, too


def test_dop_plan_from_a_memo_hit_roundtrips_equal_to_a_searched_one(bound, catalog):
    """A plan answered from the estimator's DOP-plan memo is a fresh
    ``DopPlan`` over the remembered assignment; shipped, it must be
    indistinguishable from the one the search itself returned."""
    constraint = sla_constraint(20.0)
    fresh = BiObjectiveOptimizer(catalog, CostEstimator())
    walk = fresh.estimator.scratch()
    dag = fresh.dag_variants(bound, walk)[0].dag
    stats = fresh.estimator.models.cache.stats
    planner = fresh.dop_planner.with_estimator(walk)
    searched = planner.plan(dag, constraint)
    recalled = planner.plan(dag, constraint)
    assert (stats.plan_computations, stats.plan_hits) == (1, 1)
    assert pickle.dumps(roundtrip(recalled)) == pickle.dumps(roundtrip(searched))
    assert roundtrip(recalled) == searched


def test_bound_query_roundtrip_replans_identically(optimizer, bound):
    constraint = budget_constraint(1.0)
    baseline = optimizer.optimize(bound, constraint)
    replanned = optimizer.optimize(roundtrip(bound), constraint)
    assert plan_snapshot(replanned) == plan_snapshot(baseline)


# --------------------------- skeleton entries -------------------------- #
def test_skeleton_trees_roundtrip_and_replan(optimizer, bound):
    constraint = sla_constraint(20.0)
    trees = optimizer.variant_trees(bound, optimizer.estimator.scratch())
    restored = roundtrip(trees)
    assert len(restored) == len(trees)
    assert [t.describe() for t in restored] == [t.describe() for t in trees]
    from_restored = optimizer.optimize(bound, constraint, skeleton_trees=restored)
    from_original = optimizer.optimize(bound, constraint, skeleton_trees=trees)
    assert plan_snapshot(from_restored) == plan_snapshot(from_original)


# ------------------------------ wire records --------------------------- #
def test_stage_task_roundtrip(optimizer, bound, catalog):
    parameterized = parameterize_sql(SQL)
    trees = optimizer.variant_trees(bound, optimizer.estimator.scratch())
    task = StageTask(
        task_id=7,
        sql=SQL,
        constraint=sla_constraint(20.0),
        template_key=parameterized.template_key,
        stats_version=catalog.version,
        skeleton_trees=trees,
    )
    restored = roundtrip(task)
    assert restored.task_id == task.task_id
    assert restored.sql == task.sql
    assert restored.constraint == task.constraint
    assert restored.template_key == task.template_key
    assert restored.stats_version == task.stats_version
    assert len(restored.skeleton_trees) == len(task.skeleton_trees)


def test_staged_plan_roundtrip(optimizer, bound):
    walk = optimizer.estimator.scratch()
    choice = optimizer.optimize(bound, sla_constraint(20.0), scratch=walk)
    plan = StagedPlan(
        task_id=7,
        bound=bound,
        choice=choice,
        new_skeleton_trees=optimizer.variant_trees(bound, walk),
        bind_s=0.001,
        optimize_s=0.002,
        warm_skeleton=True,
    )
    restored = roundtrip(plan)
    assert restored.task_id == plan.task_id
    assert plan_snapshot(restored.choice) == plan_snapshot(choice)
    assert restored.warm_skeleton


def test_worker_failure_roundtrip_preserves_typed_error():
    failure = WorkerFailure(
        task_id=3, error=ReproError("bad stats"), stage="bind"
    )
    restored = roundtrip(failure)
    assert isinstance(restored.error, ReproError)
    assert str(restored.error) == "bad stats"
    assert restored.stage == "bind"


def test_worker_spec_and_refresh_state_roundtrip(catalog):
    spec = WorkerSpec(
        worker_index=1,
        catalog=catalog,
        hardware=None,
        max_dop=64,
        explore_bushy=False,
        applied_mvs=(),
        skeleton_seed=(),
        fingerprint=(catalog.version, (), 0),
    )
    restored = roundtrip(spec)
    assert restored.worker_index == 1
    assert restored.catalog.version == catalog.version
    assert restored.fingerprint == spec.fingerprint

    refresh = RefreshState(
        catalog=catalog, applied_mvs=(), fingerprint=(catalog.version, (), 0)
    )
    restored = roundtrip(refresh)
    assert restored.fingerprint == refresh.fingerprint


# A restored catalog must bind + plan identically: workers receive the
# catalog through WorkerSpec/RefreshState pickles, and any drift here
# would silently break sharded/threaded plan parity.
def test_catalog_roundtrip_plans_identically(catalog, optimizer):
    restored_catalog = roundtrip(catalog)
    assert restored_catalog.version == catalog.version
    bound = Binder(restored_catalog).bind_sql(JOIN_SQL)
    remote = BiObjectiveOptimizer(restored_catalog, CostEstimator())
    constraint = sla_constraint(20.0)
    baseline = optimizer.optimize(Binder(catalog).bind_sql(JOIN_SQL), constraint)
    assert plan_snapshot(remote.optimize(bound, constraint)) == plan_snapshot(
        baseline
    )
