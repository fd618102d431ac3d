"""Tests for the estimator's curve table, memos and counters
(cost/estimator.py)."""

import gc
from dataclasses import replace

import pytest

from repro.cost.estimator import CostEstimator, overrides_key
from repro.cost.hardware import HardwareCalibration
from repro.cost.regression import ExchangeCalibration, ExchangeCoefficients
from repro.cost.volumes import pipeline_volumes
from repro.plan.physical import ExchangeKind
from repro.plan.pipelines import decompose_pipelines
from repro.testing.reference import ReferenceEstimator
from repro.workloads.tpch_queries import instantiate


@pytest.fixture(scope="module")
def q5_dag(big_binder, big_planner):
    plan = big_planner.plan(big_binder.bind_sql(instantiate("q5_local_supplier", seed=1)))
    return decompose_pipelines(plan)


def fresh_estimator() -> CostEstimator:
    return CostEstimator()


def memoized_durations(estimator: CostEstimator) -> int:
    """``(pipeline, overrides, dop)`` durations in the estimator's curves."""
    return sum(
        len(curve)
        for _, curves in estimator._curves.values()
        for curve in curves.values()
    )


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
    estimator = fresh_estimator()
    sensitive = []
    for pipeline in q5_dag:
        curve = estimator.curve(pipeline)
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
    stats = estimator.stats
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
    stats = estimator.stats

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
    before = replace(stats)
    estimator.estimate_dag(q5_dag, dops, overrides={local_node: 12345.0})
    assert stats.timing_computations - before.timing_computations == 1
    assert stats.timing_hits - before.timing_hits == len(q5_dag) - 1

    # Equal projections share slots: a second mapping agreeing on this
    # plan's nodes (same single override) is a full hit.
    before = replace(stats)
    estimator.estimate_dag(q5_dag, dops, overrides={local_node: 12345.0})
    assert stats.timing_computations == before.timing_computations
    assert stats.timing_hits - before.timing_hits == len(q5_dag)


def test_projection_preserves_none_vs_empty(q5_dag):
    """Projection must not collapse the None / {} mode switch: a mapping
    with only foreign nodes projects to {} (observed-selectivity mode),
    not to the estimate-only None mode."""
    estimator = fresh_estimator()
    dops = {p.pipeline_id: 4 for p in q5_dag}
    stats = estimator.stats
    none_estimate = estimator.estimate_dag(q5_dag, dops, overrides=None)
    empty_estimate = estimator.estimate_dag(q5_dag, dops, overrides={})
    assert stats.timing_computations == 2 * len(q5_dag)  # distinct slots
    # A foreign-only mapping is the {} computation, served from cache.
    foreign = max(op.node.node_id for p in q5_dag for op in p.ops) + 1000
    before = replace(stats)
    foreign_estimate = estimator.estimate_dag(q5_dag, dops, overrides={foreign: 5.0})
    assert stats.timing_computations == before.timing_computations
    assert stats.timing_hits - before.timing_hits == len(q5_dag)
    assert foreign_estimate.latency == empty_estimate.latency
    assert none_estimate.latency > 0


def test_dop_independent_volumes_shared_across_dops(q5_dag):
    estimator = fresh_estimator()
    for dop in (1, 2, 4, 8):
        estimator.estimate_dag(q5_dag, {p.pipeline_id: dop for p in q5_dag})
    stats = estimator.stats
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
    assert memoized_durations(estimator) > 0
    assert len(estimator._scan_dollars) == 1
    estimator.invalidate_caches()
    assert memoized_durations(estimator) == 0
    assert len(estimator._scan_dollars) == 0  # bakes in the GET price
    before = estimator.stats.timing_computations
    estimator.estimate_dag(q5_dag, dops)
    assert estimator.stats.timing_computations == before + len(q5_dag)


def live(kind: type) -> int:
    gc.collect()
    return sum(type(o) is kind for o in gc.get_objects())


def test_a_scratch_owns_its_tables_and_shares_the_counters(q5_dag):
    """A walk's scratch prices with its parent's calibration into tables
    of its own, counting into the parent's stats; the parent's tables
    stay empty."""
    from repro.dop.constraints import sla_constraint
    from repro.dop.planner import DopPlanner

    estimator = fresh_estimator()
    stats = estimator.stats
    walk = estimator.scratch()
    assert walk.hw is estimator.hw
    assert walk.exchange is estimator.exchange
    assert walk.stats is stats

    dops = {p.pipeline_id: 2 for p in q5_dag}
    assert walk.estimate_dag(q5_dag, dops) == CostEstimator().estimate_dag(q5_dag, dops)
    assert memoized_durations(walk) == len(q5_dag)
    assert stats.timing_computations == len(q5_dag)
    DopPlanner(walk).plan(q5_dag, sla_constraint(12.0))
    assert len(walk._scan_dollars) == 1
    assert stats.curve_computations == len(q5_dag)
    assert memoized_durations(estimator) == 0
    assert not (estimator._curves or estimator._scan_dollars)


def test_a_plan_searched_in_a_walk_keeps_nothing_of_it_once_read(q5_dag):
    """A sweeper dies with its search and curves with the walk's
    scratch.  A plan whose estimate was read holds none of it; an
    unread estimate is a thunk over the scratch and keeps its curves
    alive — which is why the optimizer reads its choice's estimate
    before a walk ends."""
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
    assert live(ScheduleSweeper) == before[1]  # each died with its search

    del walk, planner
    assert live(PipelineCurve) > before[0]  # held through the thunk
    del unread
    assert (live(PipelineCurve), live(ScheduleSweeper)) == before
    assert read.estimate.latency > 0


def test_a_search_keeps_no_sweeper_once_its_estimate_is_read(q5_dag):
    """The schedule sweeper belongs to one search: with the estimator
    still alive and the plan's estimate read, none is left — so a
    recalibrated attach latency can never meet a stale one."""
    from repro.cost.query_simulator import ScheduleSweeper
    from repro.dop.constraints import sla_constraint
    from repro.dop.planner import DopPlanner

    before = live(ScheduleSweeper)
    estimator = fresh_estimator()
    plan = DopPlanner(estimator).plan(q5_dag, sla_constraint(12.0))
    assert plan.estimate.latency > 0
    assert live(ScheduleSweeper) == before
    assert memoized_durations(estimator) > 0  # the curves stay with it


# ---------------------------- DOP searches ----------------------------- #
def test_mutating_a_returned_assignment_leaves_the_memo_alone(q5_dag):
    """A handed-out assignment is the caller's: clearing it changes no
    later search over the same estimator's curves."""
    from repro.dop.constraints import sla_constraint
    from repro.dop.planner import DopPlanner

    planner = DopPlanner(fresh_estimator())
    expected = dict(planner.plan(q5_dag, sla_constraint(12.0)).dops)
    for _ in range(2):  # each search hands out a dict of its own
        handed_out = planner.plan(q5_dag, sla_constraint(12.0))
        assert handed_out.dops == expected
        handed_out.dops.clear()
    assert planner.plan(q5_dag, sla_constraint(12.0)).dops == expected


def test_strict_sla_still_raises_on_a_memo_hit(q5_dag):
    """Every strict search of an infeasible SLA raises, the first over
    cold curves and the second over warm ones."""
    from repro.dop.constraints import sla_constraint
    from repro.dop.planner import DopPlanner
    from repro.errors import InfeasibleConstraintError

    estimator = fresh_estimator()
    impossible = sla_constraint(1e-6)
    assert not DopPlanner(estimator).plan(q5_dag, impossible).feasible
    strict = DopPlanner(estimator, enforce_sla_strictly=True)
    for _ in range(2):
        with pytest.raises(InfeasibleConstraintError):
            strict.plan(q5_dag, impossible)


def test_invalidate_then_a_new_hw_researches(q5_dag):
    """A search prices from curves that bake in the calibration they
    were compiled under: after ``invalidate_caches()`` the next search
    prices against the new hardware, like one on a fresh estimator."""
    from repro.dop.constraints import sla_constraint
    from repro.dop.planner import DopPlanner

    estimator = fresh_estimator()
    planner = DopPlanner(estimator)
    constraint = sla_constraint(12.0)
    before = planner.plan(q5_dag, constraint)

    slow_scan = HardwareCalibration(
        scan_bytes_per_core=estimator.hw.scan_bytes_per_core / 8
    )
    estimator.hw = slow_scan
    assert planner.plan(q5_dag, constraint).dops == before.dops  # stale curves
    estimator.invalidate_caches()
    assert memoized_durations(estimator) == 0
    rehosted = planner.plan(q5_dag, constraint)
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

    estimator.exchange = fitted
    assert estimator.estimate_dag(q5_dag, dops).latency == before.latency  # stale
    estimator.invalidate_caches()
    recalibrated = estimator.estimate_dag(q5_dag, dops)
    expected = CostEstimator(exchange_calibration=fitted).estimate_dag(q5_dag, dops)
    assert recalibrated.latency == expected.latency != before.latency
    assert recalibrated.machine_seconds == expected.machine_seconds

    estimator.hw = slow_net
    estimator.invalidate_caches()
    rehosted = estimator.estimate_dag(q5_dag, dops)
    expected = CostEstimator(slow_net, fitted).estimate_dag(q5_dag, dops)
    assert rehosted.latency == expected.latency != recalibrated.latency
    assert rehosted.machine_seconds == expected.machine_seconds


def test_a_recalibrated_estimator_prices_and_bills_like_a_fresh_one(q5_dag):
    """One assignment on the estimator, then ``invalidate_caches()``:
    latency, machine time *and* the node price the dollars are billed
    at all follow the new calibration — in an estimate, in a DOP search
    and in a scratch taken afterwards."""
    from repro.dop.constraints import sla_constraint
    from repro.dop.planner import DopPlanner

    dops = {p.pipeline_id: 4 for p in q5_dag}
    constraint = sla_constraint(12.0)
    estimator = fresh_estimator()
    old = estimator.estimate_dag(q5_dag, dops)
    DopPlanner(estimator).plan(q5_dag, constraint)

    compute = HardwareCalibration.calibrated("compute-optimized")
    assert compute.node.price_per_second != estimator.hw.node.price_per_second
    estimator.hw = compute
    estimator.invalidate_caches()
    fresh = CostEstimator(compute)

    def priced(estimate):
        return estimate.latency, estimate.machine_seconds, estimate.dollars

    expected = priced(fresh.estimate_dag(q5_dag, dops))
    assert expected != priced(old)
    assert priced(estimator.estimate_dag(q5_dag, dops)) == expected
    assert priced(estimator.scratch().estimate_dag(q5_dag, dops)) == expected
    searched = DopPlanner(estimator).plan(q5_dag, constraint)
    reference = DopPlanner(fresh).plan(q5_dag, constraint)
    assert searched.dops == reference.dops
    assert priced(searched.estimate) == priced(reference.estimate)


def test_direct_cache_api_counts_hits(q5_dag):
    estimator = fresh_estimator()
    pipeline = q5_dag.topological_order()[0]
    first = estimator.curve(pipeline, None)
    second = estimator.curve(pipeline, None)
    assert first is second
    assert estimator.stats.curve_computations == 1
    assert estimator.stats.curve_hits == 1
    assert "curves" in estimator.stats.describe()
