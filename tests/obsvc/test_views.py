"""The health / cache / observe views (``repro.obsvc.views``) and the
sourced-metric table behind them.

``views_fixture.json`` was captured from :func:`observed_run` at the
commit before the views moved out of ``core/warehouse.py``
(``python tests/obsvc/test_views.py <out.json>`` regenerates it): the
delegates on the warehouse must keep returning that, key for key.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.core.journal import WriteAheadJournal
from repro.core.resilience import ResiliencePolicy, RetryPolicy
from repro.core.service import QueryRequest
from repro.core.warehouse import CostIntelligentWarehouse
from repro.dop.constraints import sla_constraint
from repro.obsvc.metrics import REGISTERED_METRICS
from repro.testing import FaultPlan, FaultSpec
from repro.workloads.tpch_stats import synthetic_tpch_catalog

FIXTURE = Path(__file__).with_name("views_fixture.json")
SLA = sla_constraint(20.0)
BUDGETS = {"acme": 100.0, "bolt": 100.0}
T_JOIN = (
    "SELECT n_name, sum(c_acctbal) AS bal, count(*) AS cnt "
    "FROM customer, nation WHERE c_nationkey = n_nationkey "
    "AND n_regionkey = {v} GROUP BY n_name"
)
#: The one metric whose values are host wall time, not a function of
#: the seeded run.
WALL_METRIC = "repro_worker_ipc_roundtrip_seconds"


def observed_run(sharded: bool) -> dict:
    """Every view of one seeded run that touches each optional
    component: a journal, budgeted tenants, an applied MV (so the tuning
    service exists), one fired ``simulate`` fault (one billed retry),
    one collected snapshot and — with ``sharded`` — one planner worker."""
    warehouse = CostIntelligentWarehouse(
        catalog=synthetic_tpch_catalog(1.0),
        journal=WriteAheadJournal(),
        tenant_budgets=BUDGETS,
        resilience=ResiliencePolicy(retry=RetryPolicy(max_attempts=3, seed=7)),
    )
    warehouse.inject_faults(
        FaultPlan(
            [FaultSpec(point="simulate", error_rate=1.0, after=1, limit=1)], seed=7
        )
    )
    if sharded:
        warehouse.enable_sharding(workers=1)
    try:
        sessions = {
            tenant: warehouse.session(tenant=tenant, constraint=SLA)
            for tenant in BUDGETS
        }

        def serve(indices) -> None:
            for tenant in BUDGETS:
                handles = sessions[tenant].submit_many(
                    [
                        QueryRequest(
                            sql=T_JOIN.format(v=i % 4),
                            template="q5ish",
                            at_time=10.0 * i,
                        )
                        for i in indices
                    ]
                )
                assert all(handle.result() for handle in handles)

        serve(range(3))
        tuning = warehouse.tuning
        mv = next(
            rec
            for rec in tuning.propose()
            if rec.action.kind == "materialized-view"
        )
        if not mv.accepted:
            tuning.accept(mv)
        tuning.apply(mv)
        serve(range(3, 6))  # served through the applied MV
        warehouse.collector.collect_now()
        warehouse.checkpoint()
        views = {
            "dict": warehouse.observe("dict"),
            "prometheus": warehouse.observe("prometheus"),
        }
        # observe("dict") is the two describe_* views plus the registry
        # and the history; observe("json") is the same, serialized
        assert views["dict"]["health"] == warehouse.describe_health()
        assert views["dict"]["caches"] == warehouse.describe_caches()
        as_json = {**views, "dict": json.loads(warehouse.observe("json"))}
    finally:
        warehouse.disable_sharding()
    views = _comparable(views)
    assert _comparable(as_json) == views
    return views


def _comparable(views: dict) -> dict:
    """The views as JSON-plain data (tuples -> lists, as the fixture
    file holds them) with the wall-time metric's values dropped."""
    views = json.loads(json.dumps(views, sort_keys=True, default=str))
    for sample in views["dict"]["metrics"].get(WALL_METRIC, {}).get("samples", ()):
        sample["value"] = {"count": sample["value"]["count"]}
    views["prometheus"] = [
        line
        for line in views["prometheus"].splitlines()
        if not line.startswith((f"{WALL_METRIC}_bucket", f"{WALL_METRIC}_sum"))
    ]
    return views


@pytest.mark.parametrize("sharded", [False, True], ids=["inline", "sharded"])
def test_views_equal_the_fixture_captured_before_the_move(sharded):
    expected = json.loads(FIXTURE.read_text())["sharded" if sharded else "inline"]
    views = observed_run(sharded)
    health = views["dict"]["health"]
    assert health["faults"]["fired"] == {"simulate": 1}
    assert health["resilience"]["retries"] == 1
    assert health["durability"]["journaled"] and health["tuning"]["cycles_run"] == 1
    for block in ("health", "caches", "metrics", "cost_history"):
        assert views["dict"][block] == expected["dict"][block], block
    assert views["prometheus"] == expected["prometheus"]


def test_every_declared_source_has_a_provider():
    """``value()`` / ``sourced()`` answer 0 / {} for a source nobody
    registered and ``collect()`` omits it, so a dropped provider would
    read as a healthy zero.  A bare warehouse — no journal, no tuning
    service, no worker pool — must still answer for every one."""
    warehouse = CostIntelligentWarehouse(catalog=synthetic_tpch_catalog(1.0))
    assert warehouse.journal is None and warehouse.worker_pool is None
    sources = {
        name: spec
        for name, spec in REGISTERED_METRICS.items()
        if spec.kind == "source"
    }
    assert len(sources) >= 30
    sampled = {sample.name for sample in warehouse.metrics.collect()}
    for name, spec in sources.items():
        produced = spec.read(warehouse)
        if spec.labels:
            # no live label set yet is an explicit empty mapping
            assert isinstance(produced, dict), name
            assert warehouse.metrics.sourced(name) == produced, name
        else:
            assert name in sampled, name
            assert warehouse.metrics.sourced(name) == {(): produced}, name
    # and a labelled source that has label sets on a bare warehouse shows
    assert {"repro_cache_entries", "repro_breaker_state"} <= sampled


if __name__ == "__main__":
    captured = {"inline": observed_run(False), "sharded": observed_run(True)}
    Path(sys.argv[1]).write_text(
        json.dumps(captured, indent=1, sort_keys=True) + "\n"
    )
