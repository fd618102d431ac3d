"""API-surface snapshot: the public names and signatures callers rely on.

A failing test here means a breaking change to the serving API — update
the snapshot deliberately, alongside the examples and the quickstart.
"""

import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import (
    CostIntelligentWarehouse,
    QueryHandle,
    QueryRequest,
    QueryState,
    Recommendation,
    RecommendationState,
    Session,
    TenantBudget,
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
    """The namespace is lazy (PEP 562): ``import repro`` runs only the
    package's own file, and each public name imports its module on first
    read, so a process pays only for the modules it uses.  The laziness
    is checked in a fresh interpreter, where nothing is imported yet."""
    assert list(repro.__all__) == EXPECTED_ALL
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ exports missing name {name}"
    probe = (
        "import json, sys, repro\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('repro.'))\n"
        "unlisted = [n for n in repro.__all__ if n not in dir(repro)]\n"
        "repro.sla_constraint\n"
        "warehouse = 'repro.core.warehouse' in sys.modules\n"
        "resolved = [n for n in repro.__all__ if getattr(repro, n) is not None]\n"
        "print(json.dumps([loaded, unlisted, warehouse, resolved]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(Path(repro.__file__).parents[1])},
    )
    loaded, unlisted, warehouse, resolved = json.loads(out.stdout)
    assert loaded == []
    assert unlisted == []
    assert warehouse is False  # one name does not drag in the warehouse
    assert resolved == EXPECTED_ALL
    with pytest.raises(AttributeError, match="no attribute 'NoSuchName'"):
        repro.NoSuchName


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
    each cache block carries its retention name beside its counters,
    and the admission block counts per-tenant verdicts."""
    stats_warehouse.session().submit(
        "SELECT count(*) AS c FROM orders", sla_constraint(15.0)
    ).result()
    report = stats_warehouse.describe_caches()
    assert set(report) == {
        "plan_cache",
        "skeleton_cache",
        "timing_cache",
        "admission",
        "process_memos",
    }
    # the process-wide memos: counted over the whole interpreter
    assert set(report["process_memos"]) == {
        "parameterize",
        "perturbation_draws",
    }
    for memo in report["process_memos"].values():
        assert set(memo) == {"entries", "capacity", "hits", "misses", "hit_rate"}
        assert 0 <= memo["entries"] <= memo["capacity"]
    assert report["process_memos"]["parameterize"]["capacity"] == 256
    for label in ("plan_cache", "skeleton_cache"):
        assert set(report[label]) == {
            "entries",
            "capacity",
            "hits",
            "misses",
            "evictions",
            "hit_rate",
            "policy",
        }
        assert report[label]["policy"] == "lru"
    # No budgets configured: the admit-all fast path counts nothing.
    assert report["admission"] == {}


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
    ]
    assert [f.name for f in RetryPolicy.__dataclass_fields__.values()] == [
        "max_attempts",
        "backoff_base_s",
        "backoff_multiplier",
        "jitter",
        "seed",
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
    assert list(propose.parameters) == ["self"]
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
    ) == ["self", "since_query_id", "since_clock"]


def test_tuning_policy_field_snapshot():
    assert [f.name for f in TuningPolicy.__dataclass_fields__.values()] == [
        "cadence_queries",
        "cadence_seconds",
        "tenant",
        "auto_apply",
        "auto_apply_break_even_hours",
    ]


def test_settings_nothing_sets_are_constants_not_options():
    """Simulator, estimator, monitor, tuning, forecast and retry
    settings no caller sets are module constants
    (``sim.distsim.CHECKPOINT_FRACTION``, ``monitor.policies.MAX_REPLANS``,
    ``tuning.advisor.STORAGE_BUDGET_BYTES``,
    ``core.resilience.DOLLARS_PER_RETRY_S`` and friends), not
    constructor options."""
    from repro import CostEstimator, DistributedSimulator, SimConfig
    from repro.cost.query_simulator import ScheduleSweeper, simulate_dag
    from repro.dop.constraints import Constraint
    from repro.monitor.policies import IntervalScalerPolicy, PipelineDopMonitor
    from repro.statsvc.forecast import WorkloadForecaster
    from repro.tuning.advisor import AutoTuningAdvisor
    from repro.tuning.whatif import WhatIfService

    assert [f.name for f in SimConfig.__dataclass_fields__.values()] == [
        "seed",
        "noise_sigma",
        "skew_zipf_s",
        "cpu_rate_multiplier",
        "exchange_transfer_multiplier",
        "exchange_setup_multiplier",
        "materialize_exchanges",
        "include_provisioning",
    ]
    assert list(inspect.signature(DistributedSimulator).parameters) == [
        "dag",
        "dops",
        "estimator",
        "truth",
        "planned",
        "policy",
        "config",
        "price_model",
    ]
    assert list(inspect.signature(CostEstimator).parameters) == [
        "hardware",
        "exchange_calibration",
    ]
    assert list(inspect.signature(AutoTuningAdvisor).parameters) == [
        "catalog",
        "whatif",
    ]
    assert list(inspect.signature(AutoTuningAdvisor.propose).parameters) == [
        "self",
        "store",
        "bound_queries",
    ]
    assert list(inspect.signature(WhatIfService).parameters) == [
        "catalog",
        "estimator",
        "churn_fraction_per_hour",
    ]
    assert list(inspect.signature(WorkloadForecaster).parameters) == []
    assert list(inspect.signature(IntervalScalerPolicy).parameters) == [
        "dag",
        "sla_seconds",
        "planned_dops",
        "planned_durations",
        "max_dop",
    ]
    assert list(inspect.signature(Constraint.satisfied).parameters) == [
        "self",
        "estimate",
    ]
    # The warm-pool attach term always applies to the estimator's
    # schedules; only the distributed simulator's config can drop it.
    assert list(inspect.signature(ScheduleSweeper).parameters) == [
        "dag",
        "estimator",
    ]
    assert list(inspect.signature(simulate_dag).parameters) == [
        "dag",
        "dops",
        "estimator",
        "overrides",
    ]
    assert list(inspect.signature(PipelineDopMonitor).parameters) == [
        "dag",
        "estimator",
        "constraint",
        "planned_dops",
        "planned_latency",
        "planned_durations",
        "thresholds",
        "max_dop",
    ]


def test_recommendation_lifecycle_surface():
    assert {state.name for state in RecommendationState} == {
        "PROPOSED",
        "ACCEPTED",
        "APPLYING",
        "APPLIED",
        "REJECTED",
        "ROLLING_BACK",
        "ROLLED_BACK",
        "FAILED",
    }
    members = {"describe", "applied", "accepted"}
    assert members <= {
        name for name in dir(Recommendation) if not name.startswith("_")
    }


def test_tuning_actions_are_frozen_and_typed():
    """A tuning action is its candidate: a frozen dataclass whose
    ``kind`` is a class constant, not a field."""
    import dataclasses

    from repro.tuning.clustering import ReclusterCandidate
    from repro.tuning.mv import MVCandidate

    for action_cls in (MVCandidate, ReclusterCandidate):
        assert dataclasses.is_dataclass(action_cls)
        assert action_cls.__dataclass_params__.frozen
        assert "kind" not in {f.name for f in dataclasses.fields(action_cls)}
    assert MVCandidate.kind == "materialized-view"
    assert ReclusterCandidate.kind == "recluster"
    assert "action" not in {f.name for f in dataclasses.fields(Recommendation)}
