"""Tests for the estimator's cost-curve cache (cost/timing_cache.py)."""

import gc

import pytest

from repro.cost.estimator import CostEstimator
from repro.cost.hardware import HardwareCalibration
from repro.cost.regression import ExchangeCalibration, ExchangeCoefficients
from repro.cost.timing_cache import TimingCache, overrides_key
from repro.cost.volumes import pipeline_volumes
from repro.plan.physical import ExchangeKind
from repro.plan.pipelines import decompose_pipelines
from repro.testing.reference import NaiveDopPlanner, ReferenceEstimator
from repro.workloads.tpch_queries import instantiate


@pytest.fixture(scope="module")
def q5_dag(big_binder, big_planner):
    plan = big_planner.plan(big_binder.bind_sql(instantiate("q5_local_supplier", seed=1)))
    return decompose_pipelines(plan)


def fresh_estimator() -> CostEstimator:
    return CostEstimator()


# ------------------------------ keys ---------------------------------- #
def test_overrides_key_distinguishes_none_from_empty():
    # {} switches the volume model into observed-selectivity mode, so it
    # must not share a cache slot with None.
    assert overrides_key(None) is None
    assert overrides_key({}) == ()
    assert overrides_key({3: 7.0, 1: 2.0}) == ((1, 2.0), (3, 7.0))
    assert overrides_key({1: 2.0, 3: 7.0}) == overrides_key({3: 7.0, 1: 2.0})


def test_volumes_dop_sensitivity_detection(q5_dag):
    """A curve re-derives exactly the volumes that move with DOP (the
    output of a partial aggregate and what flows from it) and keeps the
    rest constant."""
    models = fresh_estimator().models
    sensitive = []
    for pipeline in q5_dag:
        curve = models.curve(pipeline)
        by_dop = {
            dop: [rows_out for _, _, _, rows_out in curve.op_terms(dop)]
            for dop in (1, 8)
        }
        for dop, rows_out in by_dop.items():
            assert rows_out == [v.rows_out for v in pipeline_volumes(pipeline, dop)]
        sensitive.append(by_dop[1] != by_dop[8])
    # q5 aggregates, so at least one pipeline carries a partial aggregate
    # and at least one (a pure scan/probe chain) does not.
    assert any(sensitive)
    assert not all(sensitive)


# --------------------------- memoization ------------------------------ #
def test_timing_memoized_per_dop(q5_dag):
    estimator = fresh_estimator()
    dops = {p.pipeline_id: 4 for p in q5_dag}
    estimator.estimate_dag(q5_dag, dops)
    stats = estimator.models.cache.stats
    computed_first = stats.timing_computations
    assert computed_first == len(q5_dag)

    estimator.estimate_dag(q5_dag, dops)
    assert stats.timing_computations == computed_first
    assert stats.timing_hits == len(q5_dag)


def test_overrides_projected_onto_pipeline_nodes(q5_dag):
    """Node-local DOP-monitor truths only re-time the pipeline that owns
    the overridden node; every other pipeline keeps hitting the cache.

    Regression for the full-mapping keying bug: the timing key embedded
    the *entire* overrides mapping, so learning one node's true
    cardinality fragmented every pipeline's cache slots.
    """
    estimator = fresh_estimator()
    dops = {p.pipeline_id: 4 for p in q5_dag}
    stats = estimator.models.cache.stats

    # Baseline: everything computed once under observed-selectivity mode.
    estimator.estimate_dag(q5_dag, dops, overrides={})
    assert stats.timing_computations == len(q5_dag)

    # Learn a truth local to one pipeline: only that pipeline re-times.
    pipelines = list(q5_dag)
    owner = pipelines[0]
    local_node = owner.ops[0].node.node_id
    other_ids = {
        op.node.node_id for p in pipelines[1:] for op in p.ops
    }
    assert local_node not in other_ids  # the truth really is node-local
    stats.reset()
    estimator.estimate_dag(q5_dag, dops, overrides={local_node: 12345.0})
    assert stats.timing_computations == 1
    assert stats.timing_hits == len(q5_dag) - 1

    # Equal projections share slots: a second mapping agreeing on this
    # plan's nodes (same single override) is a full hit.
    stats.reset()
    estimator.estimate_dag(q5_dag, dops, overrides={local_node: 12345.0})
    assert stats.timing_computations == 0
    assert stats.timing_hits == len(q5_dag)


def test_projection_preserves_none_vs_empty(q5_dag):
    """Projection must not collapse the None / {} mode switch: a mapping
    with only foreign nodes projects to {} (observed-selectivity mode),
    not to the estimate-only None mode."""
    estimator = fresh_estimator()
    dops = {p.pipeline_id: 4 for p in q5_dag}
    stats = estimator.models.cache.stats
    none_estimate = estimator.estimate_dag(q5_dag, dops, overrides=None)
    empty_estimate = estimator.estimate_dag(q5_dag, dops, overrides={})
    assert stats.timing_computations == 2 * len(q5_dag)  # distinct slots
    # A foreign-only mapping is the {} computation, served from cache.
    foreign = max(op.node.node_id for p in q5_dag for op in p.ops) + 1000
    stats.reset()
    foreign_estimate = estimator.estimate_dag(q5_dag, dops, overrides={foreign: 5.0})
    assert stats.timing_computations == 0
    assert stats.timing_hits == len(q5_dag)
    assert foreign_estimate.latency == empty_estimate.latency
    assert none_estimate.latency > 0


def test_dop_independent_volumes_shared_across_dops(q5_dag):
    estimator = fresh_estimator()
    for dop in (1, 2, 4, 8):
        estimator.estimate_dag(q5_dag, {p.pipeline_id: dop for p in q5_dag})
    stats = estimator.models.cache.stats
    # One volume walk (curve compilation) per pipeline serves every DOP,
    # partial aggregates included.
    assert stats.curve_computations == len(q5_dag)
    assert stats.curve_hits == 3 * len(q5_dag)
    # Durations are DOP-keyed for everyone.
    assert stats.timing_computations == 4 * len(q5_dag)


def test_overrides_keyed_separately(q5_dag):
    estimator = fresh_estimator()
    dops = {p.pipeline_id: 2 for p in q5_dag}
    # Inflate the biggest scan so the override must change the estimate.
    scans = [
        op.node
        for p in q5_dag
        for op in p.ops
        if op.role == "source_scan"
    ]
    scan_node = max(scans, key=lambda node: node.est_rows)
    overrides = {scan_node.node_id: float(scan_node.est_rows) * 10.0}
    with_override = estimator.estimate_dag(q5_dag, dops, overrides)
    without = estimator.estimate_dag(q5_dag, dops)
    again = estimator.estimate_dag(q5_dag, dops, overrides)
    assert with_override.machine_seconds != without.machine_seconds
    assert with_override.machine_seconds == again.machine_seconds
    assert with_override.latency == again.latency


def test_cached_matches_uncached_exactly(q5_dag):
    cached = fresh_estimator()
    uncached = ReferenceEstimator()
    scan_node = q5_dag.topological_order()[0].ops[0].node
    for dop in (1, 3, 16):
        for overrides in (None, {}, {scan_node.node_id: 5e6}):
            dops = {p.pipeline_id: dop for p in q5_dag}
            a = cached.estimate_dag(q5_dag, dops, overrides)
            b = uncached.estimate_dag(q5_dag, dops, overrides)
            assert a.latency == b.latency
            assert a.machine_seconds == b.machine_seconds
            assert a.dollars == b.dollars
            assert a.scan_request_dollars == b.scan_request_dollars
            for pid in a.pipelines:
                assert a.pipelines[pid] == b.pipelines[pid]


# --------------------------- invalidation ----------------------------- #
def test_invalidate_clears_everything(q5_dag):
    estimator = fresh_estimator()
    dops = {p.pipeline_id: 2 for p in q5_dag}
    estimator.estimate_dag(q5_dag, dops)
    cache = estimator.models.cache
    assert len(cache) > 0
    estimator.sweeper(q5_dag)
    estimator.invalidate_caches()
    assert len(cache) == 0
    assert len(estimator._sweepers) == 0  # bakes in the attach latency
    before = cache.stats.timing_computations
    estimator.estimate_dag(q5_dag, dops)
    assert cache.stats.timing_computations == before + len(q5_dag)


def live(kind: type) -> int:
    gc.collect()
    return sum(type(o) is kind for o in gc.get_objects())


def test_a_scratch_owns_its_tables_and_shares_the_counters(q5_dag):
    """A walk's scratch prices with its parent's calibration into tables
    of its own, counting into the parent's stats; the parent's tables
    stay empty and its simulation memo is the scratch's."""
    from repro.dop.constraints import sla_constraint
    from repro.dop.planner import DopPlanner

    estimator = fresh_estimator()
    stats = estimator.models.cache.stats
    walk = estimator.scratch()
    assert walk.hw is estimator.hw
    assert walk.models.exchange is estimator.models.exchange
    assert walk._simulation_memo is estimator._simulation_memo
    assert walk.models.cache.stats is stats

    dops = {p.pipeline_id: 2 for p in q5_dag}
    assert walk.estimate_dag(q5_dag, dops) == CostEstimator().estimate_dag(q5_dag, dops)
    assert len(walk.models.cache) == len(q5_dag)
    assert stats.timing_computations == len(q5_dag)
    DopPlanner(walk).plan(q5_dag, sla_constraint(12.0))
    tables = (walk._sweepers, walk._plan_memo, walk._scan_dollars)
    assert [len(table) for table in tables] == [1, 1, 1]
    assert stats.plan_computations == 1
    assert len(estimator.models.cache) == 0
    assert not (estimator._sweepers or estimator._plan_memo or estimator._scan_dollars)


def test_a_plan_searched_in_a_walk_keeps_nothing_of_it_once_read(q5_dag):
    """Curves and sweepers die with the walk's scratch.  A plan whose
    estimate was read holds none of it; an unread estimate is a thunk
    over the scratch and keeps all of it alive — which is why the
    optimizer reads its choice's estimate before a walk ends."""
    from repro.cost.curve import PipelineCurve
    from repro.cost.query_simulator import ScheduleSweeper
    from repro.dop.constraints import sla_constraint
    from repro.dop.planner import DopPlanner

    before = (live(PipelineCurve), live(ScheduleSweeper))
    walk = fresh_estimator().scratch()
    planner = DopPlanner(walk)
    source = next(iter(q5_dag)).ops[0].node
    read = planner.plan(q5_dag, sla_constraint(12.0))
    assert read.estimate.latency > 0
    unread = planner.plan(q5_dag, sla_constraint(12.0), {source.node_id: 1e6})
    assert live(PipelineCurve) > before[0]

    del walk, planner
    assert live(ScheduleSweeper) == before[1] + 1  # held through the thunk
    del unread
    assert (live(PipelineCurve), live(ScheduleSweeper)) == before
    assert read.estimate.latency > 0


# --------------------------- DOP-plan memo ----------------------------- #
def test_repeated_replan_is_a_lookup_not_a_search(q5_dag):
    """A second search under an unchanged ``(constraint, learned)`` is
    answered from the DAG's plan memo: no curve is looked up, no
    duration priced, no sweep run — and the answer is the same plan."""
    from repro.dop.constraints import budget_constraint, sla_constraint
    from repro.dop.planner import DopPlanner

    estimator = fresh_estimator()
    stats = estimator.models.cache.stats
    planner = DopPlanner(estimator)
    source = next(iter(q5_dag)).ops[0].node
    learned = {source.node_id: float(source.est_rows) * 6.0}

    def pricing_work():
        return (
            stats.curve_hits,
            stats.curve_computations,
            stats.timing_hits,
            stats.timing_computations,
        )

    first = planner.plan(q5_dag, sla_constraint(12.0), learned)
    assert (stats.plan_hits, stats.plan_computations) == (0, 1)
    searched = pricing_work()
    again = planner.plan(q5_dag, sla_constraint(12.0), dict(learned))
    assert (stats.plan_hits, stats.plan_computations) == (1, 1)
    assert pricing_work() == searched
    assert again.dops == first.dops and again.dops is not first.dops
    assert again.evaluations == first.evaluations
    assert again == first  # reads both lazy estimates

    # Anything the search depends on is part of the key.
    planner.plan(q5_dag, sla_constraint(12.0))  # estimate-only
    planner.plan(q5_dag, sla_constraint(12.0), {})  # observed mode
    planner.plan(q5_dag, budget_constraint(0.05), learned)
    DopPlanner(estimator, max_dop=16).plan(q5_dag, sla_constraint(12.0), learned)
    assert (stats.plan_hits, stats.plan_computations) == (1, 5)


def test_mutating_a_returned_assignment_leaves_the_memo_alone(q5_dag):
    from repro.dop.constraints import sla_constraint
    from repro.dop.planner import DopPlanner

    planner = DopPlanner(fresh_estimator())
    expected = dict(planner.plan(q5_dag, sla_constraint(12.0)).dops)
    for _ in range(2):  # the searched plan's dict, then a hit's
        handed_out = planner.plan(q5_dag, sla_constraint(12.0))
        assert handed_out.dops == expected
        handed_out.dops.clear()
    assert planner.plan(q5_dag, sla_constraint(12.0)).dops == expected


def test_reference_paths_bypass_the_plan_memo(q5_dag):
    """``ReferenceEstimator`` has no memo; ``NaiveDopPlanner`` neither
    reads nor writes the one its estimator has."""
    from repro.dop.constraints import sla_constraint
    from repro.dop.planner import DopPlanner

    assert not hasattr(ReferenceEstimator(), "_plan_memo")
    uncached = DopPlanner(ReferenceEstimator())
    assert (
        uncached.plan(q5_dag, sla_constraint(12.0)).dops
        == uncached.plan(q5_dag, sla_constraint(12.0)).dops
    )

    estimator = fresh_estimator()
    stats = estimator.models.cache.stats
    naive = NaiveDopPlanner(estimator)
    naive.plan(q5_dag, sla_constraint(12.0))
    assert len(estimator._plan_memo) == 0
    DopPlanner(estimator).plan(q5_dag, sla_constraint(12.0))
    naive.plan(q5_dag, sla_constraint(12.0))
    assert (stats.plan_hits, stats.plan_computations) == (0, 1)


def test_strict_sla_still_raises_on_a_memo_hit(q5_dag):
    from repro.dop.constraints import sla_constraint
    from repro.dop.planner import DopPlanner
    from repro.errors import InfeasibleConstraintError

    estimator = fresh_estimator()
    impossible = sla_constraint(1e-6)
    assert not DopPlanner(estimator).plan(q5_dag, impossible).feasible
    strict = DopPlanner(estimator, enforce_sla_strictly=True)
    for _ in range(2):  # a search, then a hit
        with pytest.raises(InfeasibleConstraintError):
            strict.plan(q5_dag, impossible)


def test_invalidate_empties_the_plan_memo_and_a_new_hw_researches(q5_dag):
    """The memo bakes in the calibration the search ran under, like the
    curves: ``invalidate_caches()`` drops it, and the next search prices
    against the new hardware."""
    from repro.dop.constraints import sla_constraint
    from repro.dop.planner import DopPlanner

    estimator = fresh_estimator()
    stats = estimator.models.cache.stats
    planner = DopPlanner(estimator)
    constraint = sla_constraint(12.0)
    before = planner.plan(q5_dag, constraint)

    slow_scan = HardwareCalibration(
        scan_bytes_per_core=estimator.hw.scan_bytes_per_core / 8
    )
    estimator.hw = estimator.models.hw = slow_scan
    assert planner.plan(q5_dag, constraint).dops == before.dops  # stale hit
    estimator.invalidate_caches()
    assert len(estimator._plan_memo) == 0
    rehosted = planner.plan(q5_dag, constraint)
    assert (stats.plan_hits, stats.plan_computations) == (1, 2)
    expected = DopPlanner(CostEstimator(slow_scan)).plan(q5_dag, constraint)
    assert rehosted == expected
    assert rehosted.dops != before.dops
    assert rehosted.evaluations > before.evaluations


def test_invalidate_after_recalibration_reprices(q5_dag):
    """Curves bake in the hardware and exchange constants they were
    compiled with: after either changes, ``invalidate_caches()`` must
    leave the estimator pricing like one built on the new calibration."""
    dops = {p.pipeline_id: 4 for p in q5_dag}
    slow_net = HardwareCalibration(network_efficiency=0.4)
    fitted = ExchangeCalibration(
        by_kind={
            kind: ExchangeCoefficients(
                transfer_scale=1.7, base_setup_s=0.2, per_peer_setup_s=0.01
            )
            for kind in ExchangeKind
        }
    )
    estimator = fresh_estimator()
    before = estimator.estimate_dag(q5_dag, dops)

    estimator.models.exchange = fitted
    assert estimator.estimate_dag(q5_dag, dops).latency == before.latency  # stale
    estimator.invalidate_caches()
    recalibrated = estimator.estimate_dag(q5_dag, dops)
    expected = CostEstimator(exchange_calibration=fitted).estimate_dag(q5_dag, dops)
    assert recalibrated.latency == expected.latency != before.latency
    assert recalibrated.machine_seconds == expected.machine_seconds

    estimator.hw = estimator.models.hw = slow_net
    estimator.invalidate_caches()
    rehosted = estimator.estimate_dag(q5_dag, dops)
    expected = CostEstimator(slow_net, fitted).estimate_dag(q5_dag, dops)
    assert rehosted.latency == expected.latency != recalibrated.latency
    assert rehosted.machine_seconds == expected.machine_seconds


def test_direct_cache_api_counts_hits(q5_dag):
    models = fresh_estimator().models
    cache = TimingCache()
    pipeline = q5_dag.topological_order()[0]
    first = cache.curve(pipeline, None, models._compile)
    second = cache.curve(pipeline, None, models._compile)
    assert first is second
    assert cache.stats.curve_computations == 1
    assert cache.stats.curve_hits == 1
    cache.stats.reset()
    assert cache.stats.curve_hits == 0
    assert "curves" in cache.stats.describe()
