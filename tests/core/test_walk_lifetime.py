"""Nothing a planning walk builds outlives it.

A walk's search state — compiled curves, schedule sweepers, scan fees,
finished DOP searches, the planned variants — lives on the estimator
scratch the walk took (``CostEstimator.scratch``) and is dropped with the
handle.  What an exact-cache entry keeps is the bound query, the chosen
plan with its estimate already read, and (through the simulation memo)
its ``SimResult``; a re-served query is answered from those alone.
"""

import dataclasses
import gc

import pytest

from repro.core.service import QueryRequest
from repro.core.warehouse import CostIntelligentWarehouse
from repro.cost.curve import PipelineCurve
from repro.cost.estimate import CostEstimate
from repro.cost.estimator import CostEstimator
from repro.cost.query_simulator import ScheduleSweeper
from repro.dop.constraints import budget_constraint, sla_constraint
from repro.workloads.tpch_queries import instantiate, template_names

CAPACITY = 8
CONSTRAINTS = (sla_constraint(6.0), budget_constraint(0.05))


def live(kind: type) -> int:
    gc.collect()
    return sum(type(o) is kind for o in gc.get_objects())


def requests(count: int) -> list[QueryRequest]:
    """Literal-varying TPC-H instances, alternating the constraint kind
    and, every other pair, whether the plan is simulated."""
    names = template_names()
    return [
        QueryRequest(
            sql=instantiate(names[i % len(names)], seed=i),
            constraint=CONSTRAINTS[i % 2],
            simulate=i % 4 < 2,
        )
        for i in range(count)
    ]


def same_outcome(again, first) -> None:
    """Field for field, but for the arrival's own id and clock."""
    assert again.choice is first.choice
    assert again.sim is first.sim
    assert again.sql == first.sql and again.constraint == first.constraint
    assert (again.batch, again.degraded, again.degraded_mode) == (
        first.batch,
        first.degraded,
        first.degraded_mode,
    )
    assert dataclasses.replace(
        again.record, query_id=first.record.query_id, timestamp=first.record.timestamp
    ) == first.record


@pytest.mark.parametrize("max_workers", [1, 2], ids=["inline", "threads"])
def test_nothing_from_a_walk_outlives_it(big_catalog, max_workers):
    warehouse = CostIntelligentWarehouse(
        catalog=big_catalog, plan_cache_size=CAPACITY
    )
    before = {kind: live(kind) for kind in (PipelineCurve, ScheduleSweeper, CostEstimator)}
    served = requests(2 * CAPACITY)
    session = warehouse.session()
    outcomes = [h.result() for h in session.submit_many(served, max_workers=max_workers)]

    cached = warehouse.plan_cache.export_state()
    assert len(cached) == CAPACITY
    for _, (_, choice) in cached:
        # A thunk here would hold its walk's scratch, curves and all.
        assert isinstance(choice.dop_plan._estimate, CostEstimate)
    assert {kind: live(kind) for kind in before} == before

    # Re-serve what the cache holds (with threads, the last entries
    # stored need not be the last submitted).
    first_by_key = {
        warehouse.planning.keys(r.sql, r.constraint).exact: (r, o)
        for r, o in zip(served, outcomes)
    }
    again = [first_by_key[key] for key, _ in cached]
    stats = warehouse.estimator.models.cache.stats
    hits = stats.simulation_hits
    for request, first in again:
        same_outcome(session.submit(request).result(), first)
    assert warehouse.plan_cache.hits == CAPACITY
    assert stats.simulation_hits == hits + sum(r.simulate for r, _ in again)
    assert {kind: live(kind) for kind in before} == before


def test_a_degraded_walk_and_a_bare_plan_leave_nothing_behind(big_catalog):
    """The two walks no handle finalizes: ``warehouse.plan`` (nothing
    reads the estimate afterwards) and the degraded heuristic plan."""
    warehouse = CostIntelligentWarehouse(catalog=big_catalog)
    before = {kind: live(kind) for kind in (PipelineCurve, ScheduleSweeper, CostEstimator)}
    _, choice = warehouse.plan(instantiate("q5_local_supplier", seed=3), CONSTRAINTS[0])
    degraded = warehouse.planning.plan(
        instantiate("q5_local_supplier", seed=4), CONSTRAINTS[1], degraded=True
    )
    assert degraded.level == "heuristic"
    del degraded
    assert isinstance(choice.dop_plan._estimate, CostEstimate)
    assert {kind: live(kind) for kind in before} == before
