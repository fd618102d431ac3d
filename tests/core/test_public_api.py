"""API-surface snapshot: the public names and signatures callers rely on.

A failing test here means a breaking change to the serving API — update
the snapshot deliberately, alongside the examples and the quickstart.
"""

import inspect

import pytest

import repro
from repro import (
    CostIntelligentWarehouse,
    MaterializeView,
    QueryHandle,
    QueryRequest,
    QueryState,
    Recluster,
    Recommendation,
    RecommendationState,
    ResizeWarehouse,
    Session,
    TenantBudget,
    TuningAction,
    TuningPolicy,
    TuningService,
)
from repro.dop.constraints import sla_constraint

EXPECTED_ALL = [
    "Catalog",
    "BiObjectiveOptimizer",
    "CostIntelligentWarehouse",
    "QueryHandle",
    "QueryOutcome",
    "QueryRequest",
    "QueryState",
    "ServingScheduler",
    "Session",
    "AdmissionController",
    "AdmissionVerdict",
    "AdmissionDeniedError",
    "TenantBudget",
    "RetentionPolicy",
    "LruPolicy",
    "CostAwarePolicy",
    "ResiliencePolicy",
    "RetryPolicy",
    "CircuitBreaker",
    "BreakerState",
    "Deadline",
    "TransientError",
    "DeadlineExceededError",
    "RetryExhaustedError",
    "CostEstimator",
    "HardwareCalibration",
    "DopPlanner",
    "sla_constraint",
    "budget_constraint",
    "Database",
    "LocalExecutor",
    "DistributedSimulator",
    "SimConfig",
    "Binder",
    "TuningAction",
    "MaterializeView",
    "Recluster",
    "ResizeWarehouse",
    "Recommendation",
    "RecommendationState",
    "TuningPolicy",
    "TuningReport",
    "TuningService",
    "load_tpch",
    "synthetic_tpch_catalog",
    "__version__",
]


def test_repro_all_snapshot():
    assert list(repro.__all__) == EXPECTED_ALL
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ exports missing name {name}"


def test_query_request_field_snapshot():
    assert [f.name for f in QueryRequest.__dataclass_fields__.values()] == [
        "sql",
        "constraint",
        "template",
        "at_time",
        "policy",
        "execute_locally",
        "simulate",
        "truth",
        "use_plan_cache",
        "tenant",
    ]
    # Only the SQL is required; everything else defaults or resolves
    # from the session.
    parameters = inspect.signature(QueryRequest).parameters
    required = [n for n, p in parameters.items() if p.default is inspect.Parameter.empty]
    assert required == ["sql"]


def test_session_signatures():
    submit = inspect.signature(Session.submit)
    assert list(submit.parameters) == ["self", "request", "constraint"]
    submit_many = inspect.signature(Session.submit_many)
    assert list(submit_many.parameters) == [
        "self",
        "items",
        "constraint",
        "fail_fast",
        "max_workers",
    ]
    assert submit_many.parameters["fail_fast"].default is False
    assert submit_many.parameters["max_workers"].default == 1
    session_factory = inspect.signature(CostIntelligentWarehouse.session)
    assert list(session_factory.parameters) == [
        "self",
        "tenant",
        "constraint",
        "policy",
        "template_namespace",
    ]


def test_handle_surface():
    members = {"result", "describe", "done", "failed", "denied"}
    assert members <= {name for name in dir(QueryHandle) if not name.startswith("_")}
    assert {state.name for state in QueryState} == {
        "QUEUED",
        "BOUND",
        "PLANNED",
        "SIMULATED",
        "DONE",
        "FAILED",
        "DENIED",
    }


@pytest.fixture()
def stats_warehouse():
    from repro.workloads.tpch_stats import synthetic_tpch_catalog

    return CostIntelligentWarehouse(catalog=synthetic_tpch_catalog(1.0))


# --------------------------------------------------------------------- #
# Governance surface (PR 5)
# --------------------------------------------------------------------- #
def test_warehouse_constructor_governance_keywords():
    parameters = inspect.signature(CostIntelligentWarehouse).parameters
    assert "retention_policy" in parameters
    assert parameters["retention_policy"].default == "lru"
    assert "tenant_budgets" in parameters
    assert parameters["tenant_budgets"].default is None
    warm = inspect.signature(CostIntelligentWarehouse.warm_cache)
    assert list(warm.parameters) == ["self", "workload", "constraint", "top"]


def test_tenant_budget_field_snapshot():
    assert [f.name for f in TenantBudget.__dataclass_fields__.values()] == [
        "dollars",
        "throttle_at",
        "defer_at",
    ]


def test_describe_caches_snapshot(stats_warehouse):
    """describe_caches() reports retention + admission observability:
    each cache block carries the policy name and its eviction counter,
    and the admission block counts per-tenant verdicts."""
    stats_warehouse.session().submit(
        "SELECT count(*) AS c FROM orders", sla_constraint(15.0)
    ).result()
    report = stats_warehouse.describe_caches()
    assert set(report) == {
        "plan_cache",
        "skeleton_cache",
        "binding_cache",
        "timing_cache",
        "admission",
    }
    for label in ("plan_cache", "skeleton_cache", "binding_cache"):
        assert set(report[label]) == {
            "entries",
            "capacity",
            "hits",
            "misses",
            "evictions",
            "hit_rate",
            "policy",
            "policy_evictions",
        }
        assert report[label]["policy"] == "lru"
        assert report[label]["policy_evictions"] == 0
    # No budgets configured: the admit-all fast path counts nothing.
    assert report["admission"] == {}


def test_reset_cache_stats_zeroes_governance_counters(stats_warehouse):
    stats_warehouse.admission.set_budget("analyst", 100.0)
    session = stats_warehouse.session(tenant="analyst")
    session.submit(
        "SELECT count(*) AS c FROM orders", sla_constraint(15.0)
    ).result()
    report = stats_warehouse.describe_caches()
    assert report["admission"]["analyst"]["admit"] == 1
    stats_warehouse.reset_cache_stats()
    report = stats_warehouse.describe_caches()
    assert report["admission"] == {}
    assert report["plan_cache"]["policy_evictions"] == 0
    # Budgets survive a stats reset (only counters are zeroed).
    assert stats_warehouse.admission.active


# --------------------------------------------------------------------- #
# Resilience surface (PR 6)
# --------------------------------------------------------------------- #
def test_warehouse_constructor_resilience_keyword():
    parameters = inspect.signature(CostIntelligentWarehouse).parameters
    assert "resilience" in parameters
    assert parameters["resilience"].default is None


def test_resilience_policy_field_snapshot():
    from repro import ResiliencePolicy, RetryPolicy

    assert [f.name for f in ResiliencePolicy.__dataclass_fields__.values()] == [
        "retry",
        "request_deadline_s",
        "stage_deadline_s",
        "degraded_fallback",
    ]
    assert [f.name for f in RetryPolicy.__dataclass_fields__.values()] == [
        "max_attempts",
        "backoff_base_s",
        "backoff_multiplier",
        "jitter",
        "seed",
        "dollars_per_retry_s",
    ]


def test_describe_health_snapshot(stats_warehouse):
    """describe_health() is the resilience observability surface: retry
    and degraded counters, breaker states, and the tuning service's last
    swallowed error."""
    report = stats_warehouse.describe_health()
    assert set(report) == {
        "resilience",
        "durability",
        "breakers",
        "tuning",
        "faults",
    }
    assert set(report["durability"]) == {
        "journaled",
        "journal_records",
        "last_checkpoint_id",
        "records_since_checkpoint",
        "recovered",
        "records_replayed",
        "in_doubt_forward",
        "in_doubt_back",
    }
    assert report["durability"]["journaled"] is False
    assert report["durability"]["recovered"] is False
    assert set(report["breakers"]) == {"statsvc", "tuning"}
    for block in report["breakers"].values():
        assert set(block) == {"state", "consecutive_failures", "opens"}
        assert block["state"] == "closed"
    assert set(report["tuning"]) == {
        "cycles_run",
        "consecutive_failures",
        "last_error",
    }
    assert report["tuning"]["last_error"] is None
    assert report["faults"]["active"] is False
    assert set(report["resilience"]) == {
        "retries",
        "retry_dollars",
        "deadline_hits",
        "degraded_queries",
    }
    assert report["resilience"]["retries"] == 0
    assert report["resilience"]["degraded_queries"] == 0


def test_query_outcome_degraded_surface():
    from repro import QueryOutcome

    fields = {f.name for f in QueryOutcome.__dataclass_fields__.values()}
    assert {"degraded", "degraded_mode"} <= fields
    members = {name for name in dir(QueryHandle) if not name.startswith("_")}
    assert "degraded" in members  # retries is a per-instance counter


# --------------------------------------------------------------------- #
# Tuning surface (PR 4)
# --------------------------------------------------------------------- #
def test_tuning_service_signatures():
    propose = inspect.signature(TuningService.propose)
    assert list(propose.parameters) == ["self", "storage_budget_bytes"]
    assert list(inspect.signature(TuningService.apply).parameters) == [
        "self",
        "rec",
    ]
    assert list(inspect.signature(TuningService.apply_all).parameters) == [
        "self",
        "recommendations",
    ]
    assert list(inspect.signature(TuningService.rollback).parameters) == [
        "self",
        "rec",
    ]
    assert list(
        inspect.signature(TuningService.maybe_run_cycle).parameters
    ) == ["self"]


def test_tuning_policy_field_snapshot():
    assert [f.name for f in TuningPolicy.__dataclass_fields__.values()] == [
        "cadence_queries",
        "cadence_seconds",
        "tenant",
        "storage_budget_bytes",
        "min_forecast_observations",
        "auto_apply",
        "auto_apply_net_threshold",
        "auto_apply_break_even_hours",
    ]


def test_recommendation_lifecycle_surface():
    assert {state.name for state in RecommendationState} == {
        "PROPOSED",
        "ACCEPTED",
        "APPLYING",
        "APPLIED",
        "REJECTED",
        "ROLLED_BACK",
        "FAILED",
    }
    members = {"describe", "applied", "accepted"}
    assert members <= {
        name for name in dir(Recommendation) if not name.startswith("_")
    }


def test_tuning_actions_are_frozen_and_typed():
    import dataclasses

    for action_cls in (MaterializeView, Recluster, ResizeWarehouse):
        assert issubclass(action_cls, TuningAction)
        assert dataclasses.is_dataclass(action_cls)
        assert action_cls.__dataclass_params__.frozen
    assert MaterializeView.kind == "materialized-view"
    assert Recluster.kind == "recluster"
    assert ResizeWarehouse(target_nodes=8).name == "resize_warehouse_to_8"
