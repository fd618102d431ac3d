"""Shared fixtures: small real database, large stats-only catalog, and
the hypothesis profiles."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import settings

from repro.cost.estimator import CostEstimator
from repro.engine.database import Database
from repro.optimizer.dag_planner import DagPlanner
from repro.sql.binder import Binder
from repro.workloads.tpch_data import load_tpch
from repro.workloads.tpch_stats import synthetic_tpch_catalog

SMALL_SF = 0.004
SMALL_PARTITION_ROWS = 4_000

# Tier-1 never explores at random: every run replays the same examples,
# so a property cannot fire as a flake.  ``--hypothesis-profile=explore``
# (CI's chaos job) draws fresh ones, more of them.
settings.register_profile(
    "tier1", max_examples=100, derandomize=True, database=None, deadline=None
)
settings.register_profile("explore", max_examples=1000, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def tpch_db() -> Database:
    """Small TPC-H database with real rows (lineitem ≈ 24k rows)."""
    return load_tpch(
        scale_factor=SMALL_SF,
        partition_rows=SMALL_PARTITION_ROWS,
        cluster_keys={"lineitem": "l_shipdate", "orders": "o_orderdate"},
    )


@pytest.fixture(scope="session")
def tpch_binder(tpch_db: Database) -> Binder:
    return Binder(tpch_db.catalog)


@pytest.fixture(scope="session")
def tpch_planner(tpch_db: Database) -> DagPlanner:
    return DagPlanner(tpch_db.catalog)


@pytest.fixture(scope="session")
def big_catalog():
    """Stats-only catalog at SF 50 (lineitem = 300M rows)."""
    return synthetic_tpch_catalog(
        50.0, cluster_keys={"lineitem": "l_shipdate", "orders": "o_orderdate"}
    )


@pytest.fixture(scope="session")
def big_binder(big_catalog) -> Binder:
    return Binder(big_catalog)


@pytest.fixture(scope="session")
def big_planner(big_catalog) -> DagPlanner:
    return DagPlanner(big_catalog)


@pytest.fixture(scope="session")
def estimator() -> CostEstimator:
    return CostEstimator()


@pytest.fixture
def simulator_runs(monkeypatch):
    """Counts ``DistributedSimulator.run`` calls for the length of one
    test: ``simulator_runs.calls``."""
    from repro.sim.distsim import DistributedSimulator

    counter = SimpleNamespace(calls=0)
    run = DistributedSimulator.run

    def counted(simulator):
        counter.calls += 1
        return run(simulator)

    monkeypatch.setattr(DistributedSimulator, "run", counted)
    return counter


@pytest.fixture(params=("inline", "threads", "process"))
def serving_executor(request):
    """Each of the three serving executors in turn.  Yields a function
    that sets a warehouse up for the executor and returns the
    ``max_workers`` to submit batches with (a planner worker pool, once
    enabled, takes precedence over threads)."""
    sharded = []

    def configure(warehouse) -> int:
        if request.param == "process":
            warehouse.enable_sharding(workers=1)
            sharded.append(warehouse)
        return 4 if request.param == "threads" else 1

    yield configure
    for warehouse in sharded:
        warehouse.disable_sharding()
