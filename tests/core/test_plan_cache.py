"""Tests for the warehouse plan caches and batched submission."""

import pytest

from repro.core.plan_cache import (
    BindingCache,
    PlanCache,
    SkeletonCache,
    normalize_sql,
)
from repro.core.service import QueryRequest
from repro.core.warehouse import CostIntelligentWarehouse
from repro.dop.constraints import budget_constraint, sla_constraint
from repro.errors import ReproError
from repro.workloads.tpch_queries import instantiate


@pytest.fixture()
def warehouse(tpch_db):
    return CostIntelligentWarehouse(tpch_db)


Q1 = "SELECT count(*) AS n FROM orders"


def serve(warehouse, sql, constraint, **fields):
    """One query through a default-tenant session; returns its outcome."""
    request = QueryRequest(sql=sql, constraint=constraint, **fields)
    return warehouse.session().submit(request).result()


# --------------------------- normalize_sql ---------------------------- #
def test_normalize_sql_collapses_formatting():
    assert normalize_sql("SELECT  *  FROM t") == normalize_sql(
        "select *\n from T -- comment\n"
    )


def test_normalize_sql_keeps_literals_distinct():
    assert normalize_sql("SELECT a FROM t WHERE a < 5") != normalize_sql(
        "SELECT a FROM t WHERE a < 6"
    )
    assert normalize_sql("SELECT a FROM t WHERE s = 'X'") != normalize_sql(
        "SELECT a FROM t WHERE s = 'Y'"
    )


# ----------------------------- PlanCache ------------------------------ #
def test_plan_cache_lru_eviction():
    cache = PlanCache(capacity=2)
    cache.store("a", "bound-a", "choice-a")
    cache.store("b", "bound-b", "choice-b")
    assert cache.lookup("a") == ("bound-a", "choice-a")  # refresh a
    cache.store("c", "bound-c", "choice-c")  # evicts b
    assert cache.lookup("b") is None
    assert cache.lookup("a") is not None
    assert cache.evictions == 1
    assert 0.0 < cache.hit_rate < 1.0
    assert "entries" in cache.describe()


def test_plan_cache_rejects_zero_capacity():
    with pytest.raises(ValueError):
        PlanCache(capacity=0)


# ----------------------- one lock, one exact LRU ----------------------- #
def test_export_import_round_trips_exact_recency_order():
    source = SkeletonCache(256)
    for index in range(300):
        source.store(index, ("tree", index))
    used = list(range(299, 60, -7))
    for index in used:
        source.lookup(index)
    exported = source.export_state()
    # Least recently used first: the 256 newest keys, the used ones last.
    assert [key for key, _ in exported] == [
        index for index in range(44, 300) if index not in used
    ] + used
    target = SkeletonCache(256)
    target.import_state(exported)
    assert target.export_state() == exported
    assert target.evictions == 0


def test_striped_cache_aggregates_counters():
    cache = PlanCache(capacity=256)
    for index in range(32):
        cache.store(("key", index), "bound", "choice")
    assert len(cache) == 32
    hits = sum(cache.lookup(("key", index)) is not None for index in range(32))
    assert hits == 32 and cache.hits == 32
    assert cache.lookup("missing") is None
    assert cache.misses == 1
    assert "lru retention" in cache.describe()
    cache.reset_stats()
    assert cache.hits == cache.misses == 0
    cache.invalidate()
    assert len(cache) == 0


def test_striped_cache_survives_concurrent_hammer():
    """Threads mixing lookups and stores over a shared cache must never
    corrupt it (the scheduler's planning threads do this)."""
    import threading

    cache = PlanCache(capacity=256)
    errors = []

    def worker(worker_id: int) -> None:
        try:
            for step in range(400):
                key = ("q", (worker_id * 7 + step) % 97)
                found = cache.lookup(key)
                if found is None:
                    cache.store(key, f"bound-{key}", f"choice-{key}")
                else:
                    assert found == (f"bound-{key}", f"choice-{key}")
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert len(cache) <= 256
    assert cache.hits + cache.misses == 8 * 400


def test_striped_eviction_goes_through_the_policy():
    """Over-filling the cache evicts through the retention policy; the
    policy counter matches the cache's and exactly the most recently
    stored ``capacity`` keys survive."""
    cache = PlanCache(capacity=256)
    for index in range(1000):
        cache.store(("key", index), "bound", "choice")
    assert len(cache) == 256
    assert cache.evictions == 1000 - 256
    assert cache.policy.evictions == cache.evictions
    survivors = [key for key, _ in cache.export_state()]
    assert survivors == [("key", index) for index in range(744, 1000)]


# --------------------------- warehouse hits --------------------------- #
def test_repeat_submission_hits_cache(warehouse):
    constraint = sla_constraint(12.0)
    first = serve(warehouse, Q1, constraint)
    second = serve(warehouse, Q1, constraint)
    assert warehouse.plan_cache.hits == 1
    assert second.choice is first.choice
    # Logging still happens per submission.
    assert len(warehouse.logs) == 2


def test_formatting_variants_share_one_plan(warehouse):
    constraint = sla_constraint(12.0)
    serve(warehouse, Q1, constraint)
    serve(warehouse, "select COUNT( * ) as N\nfrom ORDERS", constraint)
    assert warehouse.plan_cache.hits == 1


def test_different_constraints_plan_separately(warehouse):
    serve(warehouse, Q1, sla_constraint(12.0))
    serve(warehouse, Q1, budget_constraint(0.05))
    serve(warehouse, Q1, sla_constraint(5.0))
    assert warehouse.plan_cache.hits == 0
    assert warehouse.plan_cache.misses == 3


def test_use_plan_cache_false_bypasses(warehouse):
    constraint = sla_constraint(12.0)
    serve(warehouse, Q1, constraint)
    serve(warehouse, Q1, constraint, use_plan_cache=False)
    assert warehouse.plan_cache.hits == 0


def test_plan_cache_disabled_by_size_zero(tpch_db):
    warehouse = CostIntelligentWarehouse(tpch_db, plan_cache_size=0)
    assert warehouse.plan_cache is None
    constraint = sla_constraint(12.0)
    serve(warehouse, Q1, constraint)
    serve(warehouse, Q1, constraint)  # no cache, no crash
    warehouse.invalidate_plan_cache()  # no-op


# ------------------------- two-level serving -------------------------- #
def test_literal_variants_hit_the_skeleton_level(warehouse, monkeypatch):
    """Same template, different constants: exact level misses, skeleton
    level serves the join shapes (no join-order DP re-run)."""
    constraint = sla_constraint(12.0)
    serve(warehouse, instantiate("q1_pricing_summary", seed=1), constraint)
    optimizer = warehouse.optimizer
    dag_plans_after_first = optimizer.dag_plans
    memo_hits_after_first = optimizer.dag_memo_hits

    def join_order_dp(query):
        raise AssertionError("join-order DP re-ran on a skeleton hit")

    monkeypatch.setattr(optimizer.dag_planner, "choose_join_tree", join_order_dp)
    serve(warehouse, instantiate("q1_pricing_summary", seed=2), constraint)
    assert warehouse.plan_cache.hits == 0  # different literals
    assert warehouse.skeleton_cache.hits == 1
    # DAG planning ran for the new literals (a new bound query: the DAG
    # memo cannot answer), but on the cached shapes.
    assert optimizer.dag_plans == dag_plans_after_first + 1
    assert optimizer.dag_memo_hits == memo_hits_after_first


def test_skeleton_key_separates_constraint_kinds(warehouse):
    sql = instantiate("q1_pricing_summary", seed=1)
    serve(warehouse, sql, sla_constraint(12.0))
    serve(warehouse, sql, budget_constraint(0.05))
    # Same kind, different bound: the skeleton is shared.
    serve(warehouse, instantiate("q1_pricing_summary", seed=2), sla_constraint(5.0))
    assert warehouse.skeleton_cache.misses == 2  # one per kind
    assert warehouse.skeleton_cache.hits == 1


def test_binding_shared_across_constraints(warehouse):
    sql = instantiate("q1_pricing_summary", seed=1)
    first = serve(warehouse, sql, sla_constraint(12.0))
    second = serve(warehouse, sql, budget_constraint(0.05))
    assert warehouse.binding_cache.hits == 1
    assert second.record.sql == first.record.sql


def test_describe_caches_reports_all_levels(warehouse):
    constraint = sla_constraint(12.0)
    serve(warehouse, instantiate("q1_pricing_summary", seed=1), constraint)
    serve(warehouse, instantiate("q1_pricing_summary", seed=2), constraint)
    report = warehouse.describe_caches()
    assert report["plan_cache"]["misses"] == 2
    assert report["skeleton_cache"]["hits"] == 1
    assert report["skeleton_cache"]["hit_rate"] == 0.5
    assert report["timing_cache"]["timing_computations"] > 0
    assert 0.0 <= report["timing_cache"]["timing_hit_rate"] <= 1.0
    # The DOP-plan memo is counted beside the curves, under kind="plan".
    plans = {
        name: warehouse.metrics.sourced(f"repro_timing_cache_{name}_total")[("plan",)]
        for name in ("hits", "computations")
    }
    assert plans["computations"] >= 2  # at least one search per arrival
    assert report["timing_cache"]["plan_hits"] == plans["hits"]
    assert report["timing_cache"]["plan_computations"] == plans["computations"]
    assert report["timing_cache"]["plan_hit_rate"] == plans["hits"] / (
        plans["hits"] + plans["computations"]
    )
    warehouse.reset_cache_stats()
    report = warehouse.describe_caches()
    assert report["plan_cache"]["hits"] == 0
    assert report["skeleton_cache"]["misses"] == 0
    # Entries survive a stats reset.
    assert report["plan_cache"]["entries"] == 2


def test_skeleton_and_binding_caches_are_lru():
    skeletons = SkeletonCache(capacity=1)
    skeletons.store("a", ("tree-a",))
    skeletons.store("b", ("tree-b",))
    assert skeletons.lookup("a") is None
    assert skeletons.lookup("b") == ("tree-b",)
    assert skeletons.evictions == 1
    bindings = BindingCache(capacity=1)
    bindings.store("a", "bound-a")
    bindings.store("b", "bound-b")
    assert bindings.lookup("a") is None
    assert bindings.lookup("b") == "bound-b"


# --------------------------- invalidation ----------------------------- #
def test_stats_change_invalidates(warehouse):
    constraint = sla_constraint(12.0)
    serve(warehouse, Q1, constraint)
    catalog = warehouse.catalog
    version = catalog.version
    catalog.register_table(catalog.table("orders"), replace_existing=True)
    assert catalog.version == version + 1
    serve(warehouse, Q1, constraint)
    assert warehouse.plan_cache.hits == 0
    assert warehouse.plan_cache.misses == 2


def test_explicit_invalidation(warehouse):
    constraint = sla_constraint(12.0)
    serve(warehouse, Q1, constraint)
    warehouse.invalidate_plan_cache()
    assert len(warehouse.plan_cache) == 0
    serve(warehouse, Q1, constraint)
    assert warehouse.plan_cache.hits == 0


def test_tuning_apply_invalidates_via_version(warehouse):
    """Catalog mutations from auto-tuning invalidate cached plans."""
    constraint = sla_constraint(12.0)
    serve(warehouse, Q1, constraint)
    warehouse.catalog.set_clustering("orders", "o_orderdate", 0.2)
    serve(warehouse, Q1, constraint)
    assert warehouse.plan_cache.hits == 0


# --------------------------- submit_many ------------------------------ #
def test_submit_many_request_items_inherit_shared_settings(warehouse):
    """QueryRequest items honor the shared constraint, like str/tuple
    items do, and keep their own fields."""
    request = QueryRequest(sql=Q1, simulate=False)
    handles = warehouse.session().submit_many(
        [request, request], constraint=sla_constraint(12.0)
    )
    outcomes = [handle.result() for handle in handles]
    assert all(o.sim is None for o in outcomes)
    assert all(o.constraint.latency_sla == 12.0 for o in outcomes)


def test_submit_many_shared_constraint(warehouse):
    sql = instantiate("q1_pricing_summary", seed=1)
    handles = warehouse.session().submit_many(
        [sql, sql, Q1], constraint=sla_constraint(12.0)
    )
    outcomes = [handle.result() for handle in handles]
    assert len(outcomes) == 3
    assert warehouse.plan_cache.hits == 1
    assert outcomes[1].choice is outcomes[0].choice


def test_submit_many_per_item_constraints(warehouse):
    pairs = [(Q1, sla_constraint(12.0)), (Q1, budget_constraint(0.05))]
    handles = warehouse.session().submit_many(pairs)
    assert [handle.state.value for handle in handles] == ["done", "done"]
    assert warehouse.plan_cache.misses == 2


def test_submit_many_requires_constraint_for_bare_sql(warehouse):
    with pytest.raises(ReproError):
        warehouse.session().submit_many([Q1], fail_fast=True)


_HASH_SEED_PROBE = """
import hashlib
import random

from repro.core.service import QueryRequest
from repro.core.warehouse import CostIntelligentWarehouse
from repro.dop.constraints import sla_constraint
from repro.workloads.adhoc import AdhocQueryGenerator
from repro.workloads.tpch_stats import synthetic_tpch_catalog

generator = AdhocQueryGenerator(seed=11)
pool = [generator.next_query() for _ in range(700)]
rng = random.Random(5)
warehouse = CostIntelligentWarehouse(catalog=synthetic_tpch_catalog(1.0))
session = warehouse.session(tenant="t", constraint=sla_constraint(20.0))
digest = hashlib.sha256()
for _ in range(2500):
    request = QueryRequest(sql=rng.choice(pool), simulate=False)
    outcome = session.submit(request).result()
    dops = sorted(outcome.choice.dop_plan.dops.items())
    digest.update(repr((dops, outcome.dollars)).encode())
for name, cache in warehouse.planning.levels():
    assert cache.evictions > 0, name
    print(name, cache.hits, cache.misses, cache.evictions)
print(digest.hexdigest())
"""


def test_cache_levels_answer_identically_under_any_hash_seed():
    """Which level answers a query decides its dollars, so it must be a
    function of the traffic alone: a default-capacity warehouse serving
    one seeded ad-hoc stream with revisits (all three levels evict)
    reports the same per-level hits, misses and evictions, DOPs and
    dollars whatever ``PYTHONHASHSEED`` is."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    outputs = {
        subprocess.run(
            [sys.executable, "-c", _HASH_SEED_PROBE],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        ).stdout
        for seed in ("0", "1", "2")
    }
    assert len(outputs) == 1, outputs
