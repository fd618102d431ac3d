"""Parity suite: the compiled/table-driven hot path must be bit-identical.

Compiled cost curves and the table-driven DOP search are a pure
performance change: across every TPC-H template, generated ad-hoc
shapes, every integer DOP, both constraint kinds, and every way
cardinality overrides can land on a pipeline, the fast path must return
*exactly* the same timings and `CostEstimate`s and choose *exactly* the
same plans as the reference (`repro.testing.reference`) —
`pipeline_volumes` + `op_time` under the naive per-candidate search.
Float comparisons here are deliberately `==`, not approx.
"""

import pytest

from repro.core.bioptimizer import BiObjectiveOptimizer
from repro.cost.estimator import CostEstimator
from repro.dop.constraints import budget_constraint, sla_constraint
from repro.dop.planner import DopPlanner
from repro.plan.physical import AggMode, PhysAggregate
from repro.plan.pipelines import decompose_pipelines
from repro.testing.reference import (
    NaiveDopPlanner,
    ReferenceEstimator,
    reference_optimizer,
)
from repro.workloads.adhoc import AdhocQueryGenerator
from repro.workloads.tpch_queries import instantiate, template_names

CONSTRAINTS = [sla_constraint(12.0), budget_constraint(0.05)]
ALL_DOPS = range(1, 65)  # interval / per-stage policies produce non-powers of two


def assert_estimates_identical(a, b):
    assert a.latency == b.latency
    assert a.machine_seconds == b.machine_seconds
    assert a.dollars == b.dollars
    assert a.scan_request_dollars == b.scan_request_dollars
    assert set(a.pipelines) == set(b.pipelines)
    for pid, pa in a.pipelines.items():
        pb = b.pipelines[pid]
        assert (pa.dop, pa.start, pa.duration, pa.waste) == (
            pb.dop,
            pb.start,
            pb.duration,
            pb.waste,
        )
        assert pa.bottleneck == pb.bottleneck
        assert pa.source_rows == pb.source_rows


def override_modes(pipeline):
    """Every way overrides reach one pipeline: estimate-only, observed
    with nothing learned, a learned source truth (what the DOP monitor
    feeds back), a mid-pipeline node, and the group count of the final
    aggregate a partial aggregate sizes its output by."""
    nodes = [op.node for op in pipeline.ops]
    source, middle = nodes[0], nodes[len(nodes) // 2]
    final = next(
        (
            node
            for node in nodes
            if isinstance(node, PhysAggregate) and node.mode is not AggMode.PARTIAL
        ),
        nodes[-1],
    )
    return (
        None,
        {},
        {source.node_id: float(source.est_rows) * 3.7 + 1.0},
        {middle.node_id: float(middle.est_rows) * 0.37 + 11.0},
        {final.node_id: float(final.est_rows) * 5.0 + 3.0},
    )


def assert_curve_matches_reference(pipeline, fast, reference):
    """``fast`` prices from the compiled curve, ``reference`` from
    ``pipeline_volumes`` + ``op_time``; everything a consumer can read
    must agree to the last bit."""
    for overrides in override_modes(pipeline):
        for dop in ALL_DOPS:
            expected = reference.pipeline_timing(pipeline, dop, overrides)
            actual = fast.pipeline_timing(pipeline, dop, overrides)
            context = (pipeline.describe(), overrides, dop)
            assert actual.duration == expected.duration, context
            assert actual.bottleneck == expected.bottleneck, context
            assert actual.source_rows == expected.source_rows, context
            assert actual.op_times == expected.op_times, context
            assert fast.pipeline_summary(pipeline, dop, overrides) == (
                expected.duration,
                expected.bottleneck,
                expected.source_rows,
            ), context


@pytest.mark.parametrize("template", template_names())
def test_curve_bitwise_parity_tpch(big_binder, big_planner, template):
    plan = big_planner.plan(big_binder.bind_sql(instantiate(template, seed=1)))
    fast = CostEstimator()
    reference = ReferenceEstimator()
    for pipeline in decompose_pipelines(plan):
        assert_curve_matches_reference(pipeline, fast, reference)


@pytest.mark.parametrize("chunk", range(4))
def test_curve_bitwise_parity_adhoc_shapes(big_binder, big_planner, chunk):
    """>= 200 generated star-join shapes (50 per chunk)."""
    fast = CostEstimator()
    reference = ReferenceEstimator()
    for sql in AdhocQueryGenerator(seed=100 + chunk).batch(50):
        plan = big_planner.plan(big_binder.bind_sql(sql))
        for pipeline in decompose_pipelines(plan):
            assert_curve_matches_reference(pipeline, fast, reference)


@pytest.mark.parametrize("template", template_names())
@pytest.mark.parametrize("constraint", CONSTRAINTS, ids=["sla", "budget"])
def test_optimizer_parity_all_templates(big_catalog, big_binder, template, constraint):
    bound = big_binder.bind_sql(instantiate(template, seed=1))
    naive = reference_optimizer(big_catalog).optimize(bound, constraint)
    fast = BiObjectiveOptimizer(big_catalog, CostEstimator()).optimize(
        bound, constraint
    )

    assert fast.dop_plan.dops == naive.dop_plan.dops
    assert fast.variant_index == naive.variant_index
    assert fast.bushiness == naive.bushiness
    assert fast.join_tree.describe() == naive.join_tree.describe()
    assert fast.feasible == naive.feasible
    assert_estimates_identical(fast.dop_plan.estimate, naive.dop_plan.estimate)


@pytest.mark.parametrize("template", ["q5_local_supplier", "q18_large_orders"])
@pytest.mark.parametrize("constraint", CONSTRAINTS, ids=["sla", "budget"])
def test_dop_planner_parity_with_overrides(
    big_binder, big_planner, template, constraint
):
    plan = big_planner.plan(big_binder.bind_sql(instantiate(template, seed=1)))
    dag = decompose_pipelines(plan)
    scan = dag.topological_order()[0].ops[0].node
    for overrides in (None, {scan.node_id: float(scan.est_rows) * 3.0}):
        naive = NaiveDopPlanner(ReferenceEstimator()).plan(dag, constraint, overrides)
        fast = DopPlanner(CostEstimator()).plan(dag, constraint, overrides)
        assert fast.dops == naive.dops
        assert fast.feasible == naive.feasible
        assert_estimates_identical(fast.estimate, naive.estimate)


@pytest.mark.parametrize("template", template_names())
@pytest.mark.parametrize("constraint", CONSTRAINTS, ids=["sla", "budget"])
def test_skeleton_reuse_parity_literal_varying(
    big_catalog, big_binder, template, constraint
):
    """Plan-skeleton reuse across literal-varying instantiations must be
    bit-identical to fresh optimization of the same SQL: the skeleton
    skips join-order DP and bushy generation, but re-runs physical
    planning with fresh cardinalities plus the DOP search."""
    donor = BiObjectiveOptimizer(big_catalog, CostEstimator())
    seed_bound = big_binder.bind_sql(instantiate(template, seed=1))
    walk = donor.estimator.scratch()
    donor.optimize(seed_bound, constraint, scratch=walk)
    skeleton = donor.variant_trees(seed_bound, walk)

    for seed in (2, 3):
        sql = instantiate(template, seed=seed)
        fresh = BiObjectiveOptimizer(big_catalog, CostEstimator()).optimize(
            big_binder.bind_sql(sql), constraint
        )
        reused = BiObjectiveOptimizer(big_catalog, CostEstimator()).optimize(
            big_binder.bind_sql(sql), constraint, skeleton_trees=skeleton
        )
        assert reused.dop_plan.dops == fresh.dop_plan.dops
        assert reused.variant_index == fresh.variant_index
        assert reused.join_tree.describe() == fresh.join_tree.describe()
        assert reused.feasible == fresh.feasible
        assert_estimates_identical(reused.dop_plan.estimate, fresh.dop_plan.estimate)


@pytest.mark.parametrize("template", template_names())
@pytest.mark.parametrize("constraint", CONSTRAINTS, ids=["sla", "budget"])
def test_batched_greedy_rounds_parity(big_binder, big_planner, template, constraint):
    """Table-driven round costing (one lean sweep per greedy round over
    the curves' duration tables) must walk exactly the search trajectory
    of the naive reference, which fully re-estimates every candidate:
    same DOPs, same verdict, same number of evaluations, same floats."""
    plan = big_planner.plan(big_binder.bind_sql(instantiate(template, seed=1)))
    dag = decompose_pipelines(plan)
    per_candidate = NaiveDopPlanner(ReferenceEstimator()).plan(dag, constraint)
    batched = DopPlanner(CostEstimator()).plan(dag, constraint)
    assert batched.dops == per_candidate.dops
    assert batched.feasible == per_candidate.feasible
    assert batched.evaluations == per_candidate.evaluations
    assert_estimates_identical(batched.estimate, per_candidate.estimate)


def _monitored_run(estimator, dag, constraint, truth):
    """Simulate ``dag`` under the DOP monitor; returns everything the
    estimator's tables could perturb: the monitor's replans (DOPs and
    evaluation counts), its counters and learned cardinalities, and the
    result."""
    from repro.monitor.policies import PipelineDopMonitor
    from repro.sim.distsim import DistributedSimulator, SimConfig

    planned = DopPlanner(estimator).plan(dag, constraint)
    monitor = PipelineDopMonitor(
        dag,
        estimator,
        constraint,
        planned.dops,
        planned_latency=planned.estimate.latency,
        planned_durations={
            pid: p.duration for pid, p in planned.estimate.pipelines.items()
        },
    )
    replans = []
    search = monitor._planner.plan

    def recording_plan(*args, **kwargs):
        replanned = search(*args, **kwargs)
        replans.append((dict(replanned.dops), replanned.feasible, replanned.evaluations))
        return replanned

    monitor._planner.plan = recording_plan
    result = DistributedSimulator(
        dag,
        planned.dops,
        estimator,
        truth=truth,
        planned=planned.estimate,
        policy=monitor,
        config=SimConfig(seed=3),
    ).run()
    return (
        (dict(planned.dops), planned.feasible, planned.evaluations),
        replans,
        (monitor.adjustments, monitor.replans, dict(monitor.learned)),
        (
            result.latency,
            result.total_dollars,
            result.machine_seconds,
            result.resize_count,
            {pid: (run.dop_history, run.finish) for pid, run in result.runs.items()},
        ),
    )


@pytest.mark.parametrize("template", template_names())
@pytest.mark.parametrize("constraint", CONSTRAINTS, ids=["sla", "budget"])
@pytest.mark.parametrize("perturbed", [False, True], ids=["no-truth", "truth-x6"])
def test_plan_memo_parity_under_the_dop_monitor(
    big_binder, big_planner, template, constraint, perturbed
):
    """Monitor decisions, simulation results and every replan's
    ``evaluations`` are equal with the estimator's curves cold, with
    them warm (a second arrival of the same plan on the same estimator)
    and with ``ReferenceEstimator``, which keeps no table."""
    plan = big_planner.plan(big_binder.bind_sql(instantiate(template, seed=1)))
    dag = decompose_pipelines(plan)
    truth = None
    if perturbed:
        truth = {
            p.ops[0].node.node_id: float(p.ops[0].node.est_rows) * 6.0 for p in dag
        }
    reference = _monitored_run(ReferenceEstimator(), dag, constraint, truth)
    estimator = CostEstimator()
    cold = _monitored_run(estimator, dag, constraint, truth)
    warm = _monitored_run(estimator, dag, constraint, truth)
    assert cold == reference
    assert warm == reference
    if not perturbed:
        assert reference[1] == []  # nothing learned, nothing searched


@pytest.mark.parametrize("constraint", CONSTRAINTS, ids=["sla", "budget"])
def test_the_monitor_replans_without_truth(big_binder, big_planner, constraint):
    """The ``no-truth`` leg above is not vacuous: without cardinality
    errors, duration skew and noise still drive the monitor past its
    major threshold on some template, and such a replan searches
    nothing."""
    replan_counts = []
    for template in template_names():
        plan = big_planner.plan(big_binder.bind_sql(instantiate(template, seed=1)))
        _, searches, (_, replans, learned), _ = _monitored_run(
            CostEstimator(), decompose_pipelines(plan), constraint, None
        )
        assert searches == [] and learned == {}
        replan_counts.append(replans)
    assert any(replan_counts)


def _assert_pinned_search_is_the_plan(dag, constraint):
    """Every pipeline source overridden with its own estimate (what a
    monitor would search with if it recorded estimate-equal rows)."""
    pinned_sources = {
        p.ops[0].node.node_id: float(p.ops[0].node.est_rows) for p in dag
    }
    planner = DopPlanner(CostEstimator())
    planned = planner.plan(dag, constraint)
    pinned = planner.plan(dag, constraint, overrides=pinned_sources)
    assert pinned.dops == planned.dops
    assert pinned.feasible == planned.feasible


@pytest.mark.parametrize("template", template_names())
@pytest.mark.parametrize("constraint", CONSTRAINTS, ids=["sla", "budget"])
def test_est_rows_overrides_search_the_planned_dops_tpch(
    big_binder, big_planner, template, constraint
):
    """The invariant the DOP monitor's no-search replan rests on: an
    observed-mode search with every source pinned to its estimate
    returns the estimate-mode search's DOPs and verdict.  The two modes
    differ only by rounding (``x * (y / x)`` against ``y``) and the
    ``min(1, ...)`` selectivity cap; a cost-model change that makes that
    difference choose another DOP breaks the monitor's shortcut."""
    plan = big_planner.plan(big_binder.bind_sql(instantiate(template, seed=1)))
    _assert_pinned_search_is_the_plan(decompose_pipelines(plan), constraint)


@pytest.mark.parametrize("constraint", CONSTRAINTS, ids=["sla", "budget"])
def test_est_rows_overrides_search_the_planned_dops_adhoc(
    big_binder, big_planner, constraint
):
    """The same invariant over 50 generated ad hoc shapes."""
    for sql in AdhocQueryGenerator(seed=28).batch(50):
        plan = big_planner.plan(big_binder.bind_sql(sql))
        _assert_pinned_search_is_the_plan(decompose_pipelines(plan), constraint)


def test_warehouse_parameterized_serving_parity(big_catalog):
    """The full serving path (three-level cache, skeleton reuse, DAG
    memo) returns plans bit-identical to a fresh bind + a fresh
    optimizer (nothing memoized) for every literal-varying arrival."""
    from repro.core.warehouse import CostIntelligentWarehouse
    from repro.sql.binder import Binder

    binder = Binder(big_catalog)
    parameterized = CostIntelligentWarehouse(catalog=big_catalog)

    for template in template_names():
        for seed in (1, 2, 3):
            sql = instantiate(template, seed=seed)
            for constraint in CONSTRAINTS:
                expected = BiObjectiveOptimizer(big_catalog, CostEstimator()).optimize(
                    binder.bind_sql(sql), constraint
                )
                _, actual = parameterized.plan(sql, constraint)
                assert actual.dop_plan.dops == expected.dop_plan.dops
                assert actual.variant_index == expected.variant_index
                assert_estimates_identical(
                    actual.dop_plan.estimate, expected.dop_plan.estimate
                )
    caches = parameterized.describe_caches()
    # Seeds 2 and 3 of each (template, constraint) pair ride the skeleton.
    assert caches["skeleton_cache"]["hits"] >= len(template_names()) * 2 * 2


def test_lean_sweep_matches_full_estimates(big_binder, big_planner):
    """The incremental coster's lean sweep must price candidate moves
    bit-identically to a full estimate of each mutated assignment."""
    from repro.dop.planner import _IncrementalCoster

    plan = big_planner.plan(
        big_binder.bind_sql(instantiate("q5_local_supplier", seed=1))
    )
    dag = decompose_pipelines(plan)
    estimator = CostEstimator()
    coster = _IncrementalCoster(estimator, dag, None)
    dops = {p.pipeline_id: 2 for p in dag}
    base = estimator.estimate_dag(dag, dops)
    base_metrics = (base.latency, base.total_dollars)
    candidates = [(p.pipeline_id, 4) for p in dag] + [(dag.root_id, 1)]
    for (pid, new_dop), (latency, total_dollars) in zip(
        candidates, coster.sweep(dops, candidates)
    ):
        mutated = dict(dops)
        mutated[pid] = new_dop
        full = estimator.estimate_dag(dag, mutated)
        assert latency == full.latency
        assert total_dollars == full.total_dollars
    # With pruning, every candidate is either priced bit-identically or
    # reported at the base metrics — and then it must truly be gainless.
    for (pid, new_dop), (latency, total_dollars) in zip(
        candidates, coster.sweep(dops, candidates, prune_gainless=True)
    ):
        mutated = dict(dops)
        mutated[pid] = new_dop
        full = estimator.estimate_dag(dag, mutated)
        exact = latency == full.latency and total_dollars == full.total_dollars
        pruned = (latency, total_dollars) == base_metrics and (
            full.latency >= base.latency
        )
        assert exact or pruned


def test_incremental_search_times_fewer_pipelines(big_catalog, big_binder):
    """The hot-path contract over the template pool: >=5x fewer
    timing-model evaluations than the naive search."""
    bounds = [
        big_binder.bind_sql(instantiate(name, seed=1)) for name in template_names()
    ]

    naive_optimizer = reference_optimizer(big_catalog)
    fast_estimator = CostEstimator()
    fast_optimizer = BiObjectiveOptimizer(big_catalog, fast_estimator)
    for bound in bounds:
        for constraint in CONSTRAINTS:
            naive_optimizer.optimize(bound, constraint)
            fast_optimizer.optimize(bound, constraint)

    naive_timings = naive_optimizer.estimator.stats.timing_computations
    fast_timings = fast_estimator.stats.timing_computations
    assert fast_timings * 5 <= naive_timings
