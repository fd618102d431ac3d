"""Property-based tests (hypothesis) on core invariants."""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.catalog.statistics import EquiDepthHistogram
from repro.engine.batch import Batch
from repro.engine.operators import execute_aggregate, execute_hash_join, execute_sort
from repro.plan.expressions import AggCall, BinaryOp, ColumnRef, Literal
from repro.util.pareto import ParetoPoint, dominates, pareto_frontier

# ---------------------------------------------------------------------- #
# Expression evaluation vs numpy oracle
# ---------------------------------------------------------------------- #
finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@given(
    st.lists(finite_floats, min_size=1, max_size=50),
    st.sampled_from(["+", "-", "*"]),
    finite_floats,
)
def test_arithmetic_matches_numpy(values, op, constant):
    arr = np.array(values)
    expr = BinaryOp(op, ColumnRef("x"), Literal(constant))
    expected = {"+": arr + constant, "-": arr - constant, "*": arr * constant}[op]
    assert np.allclose(expr.evaluate({"x": arr}), expected, equal_nan=True)


@given(
    st.lists(finite_floats, min_size=1, max_size=50),
    st.sampled_from(["<", "<=", ">", ">=", "=", "<>"]),
    finite_floats,
)
def test_comparison_matches_numpy(values, op, constant):
    arr = np.array(values)
    expr = BinaryOp(op, ColumnRef("x"), Literal(constant))
    ops = {
        "<": arr < constant,
        "<=": arr <= constant,
        ">": arr > constant,
        ">=": arr >= constant,
        "=": arr == constant,
        "<>": arr != constant,
    }
    assert np.array_equal(expr.evaluate({"x": arr}), ops[op])


# ---------------------------------------------------------------------- #
# Histogram invariants
# ---------------------------------------------------------------------- #
@given(
    st.lists(finite_floats, min_size=1, max_size=500),
    st.integers(min_value=1, max_value=64),
)
def test_histogram_mass_and_monotonicity(values, buckets):
    arr = np.array(values)
    histogram = EquiDepthHistogram.from_values(arr, buckets)
    assert histogram.total_count == arr.size
    # selectivity_le is monotone non-decreasing and bounded.
    probes = np.linspace(arr.min() - 1, arr.max() + 1, 9)
    sels = [histogram.selectivity_le(float(p)) for p in probes]
    assert all(0.0 <= s <= 1.0 for s in sels)
    assert all(b >= a - 1e-12 for a, b in zip(sels, sels[1:]))


@given(st.lists(finite_floats, min_size=1, max_size=300))
def test_histogram_range_full_domain(values):
    arr = np.array(values)
    histogram = EquiDepthHistogram.from_values(arr, 16)
    assert histogram.selectivity_range(None, None) == 1.0


# ---------------------------------------------------------------------- #
# Pareto frontier invariants
# ---------------------------------------------------------------------- #
points_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.01, max_value=100, allow_nan=False),
        st.floats(min_value=0.01, max_value=100, allow_nan=False),
    ),
    min_size=1,
    max_size=60,
)


@given(points_strategy)
def test_frontier_is_minimal_and_complete(raw):
    points = [ParetoPoint(l, d) for l, d in raw]
    frontier = pareto_frontier(points)
    # Minimality: no frontier point dominates another.
    for a in frontier:
        for b in frontier:
            assert not dominates(a, b)
    # Completeness: every input point is dominated-or-equal by some
    # frontier point.
    for p in points:
        assert any(
            (f.latency, f.dollars) == (p.latency, p.dollars) or dominates(f, p)
            for f in frontier
        )


# ---------------------------------------------------------------------- #
# Engine invariants vs brute force
# ---------------------------------------------------------------------- #
small_ints = st.integers(min_value=0, max_value=8)


@given(
    st.lists(small_ints, min_size=0, max_size=40),
    st.lists(small_ints, min_size=0, max_size=40),
)
@settings(max_examples=60)
def test_join_matches_brute_force(build_keys, probe_keys):
    build = Batch({"k": np.array(build_keys, dtype=np.int64)})
    probe = Batch({"p": np.array(probe_keys, dtype=np.int64)})
    out = execute_hash_join(build, probe, (ColumnRef("k"),), (ColumnRef("p"),))
    expected = sum(build_keys.count(p) for p in probe_keys)
    assert out.num_rows == expected
    if out.num_rows:
        assert np.array_equal(out.column("k"), out.column("p"))


@given(st.lists(st.tuples(small_ints, finite_floats), min_size=1, max_size=60))
@settings(max_examples=60)
def test_group_sum_matches_brute_force(rows):
    keys = np.array([k for k, _ in rows], dtype=np.int64)
    vals = np.array([v for _, v in rows])
    batch = Batch({"g": keys, "x": vals})
    out = execute_aggregate(
        batch, (ColumnRef("g"),), (AggCall("sum", ColumnRef("x")),), ("s",)
    )
    expected = {}
    for k, v in rows:
        expected[k] = expected.get(k, 0.0) + v
    got = dict(zip(out.column("g").tolist(), out.column("s").tolist()))
    assert set(got) == set(expected)
    for k in expected:
        assert got[k] == np.float64(expected[k]) or abs(got[k] - expected[k]) < 1e-6 * max(1, abs(expected[k]))


@given(st.lists(finite_floats, min_size=0, max_size=60))
def test_sort_is_sorted_permutation(values):
    batch = Batch({"x": np.array(values)})
    out = execute_sort(batch, ("x",), (True,))
    result = out.column("x")
    assert np.array_equal(np.sort(np.array(values)), result)


# ---------------------------------------------------------------------- #
# Billing invariants
# ---------------------------------------------------------------------- #
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            st.floats(min_value=0, max_value=100, allow_nan=False),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_billing_additive_and_nonnegative(intervals):
    from repro.compute.billing import BillingMeter
    from repro.compute.node import node_spec
    from repro.compute.pricing import PriceModel

    meter = BillingMeter(PriceModel(minimum_billed_seconds=0.0))
    spec = node_spec("standard")
    total = 0.0
    for start, duration in intervals:
        lease = meter.open_lease(spec, start)
        meter.close_lease(lease, start + duration)
        total += duration
    report = meter.breakdown()
    assert report.machine_seconds >= 0
    assert abs(report.machine_seconds - total) < 1e-6
    assert report.compute_dollars >= 0


# ---------------------------------------------------------------------- #
# Compiled cost curves vs the readable models
# ---------------------------------------------------------------------- #
_STREAM_KINDS = ("filter", "project", "shuffle", "broadcast", "gather", "limit", "probe")
_row_counts = st.one_of(
    st.just(0.0), st.floats(min_value=0.0, max_value=1e11, allow_nan=False)
)


@st.composite
def operator_chains(draw):
    """A pipeline-shaped operator chain — source, streaming operators
    with 0, 1 or 2 partial aggregates among them, optional sink — with
    drawn cardinalities, plus overrides on a drawn subset of its nodes."""
    from repro.plan.physical import (
        AggMode,
        ExchangeKind,
        PhysAggregate,
        PhysExchange,
        PhysFilter,
        PhysHashJoin,
        PhysLimit,
        PhysProject,
        PhysScan,
        PhysSort,
    )
    from repro.plan.pipelines import Pipeline, PipelineOp

    x = ColumnRef("x")

    def sized(node):
        node.est_rows = draw(_row_counts)
        node.est_bytes = node.est_rows * draw(st.floats(min_value=0.0, max_value=512.0))
        return node

    def aggregate(child, mode):
        return sized(PhysAggregate(child, (x,), (AggCall("sum", x),), ("s",), mode))

    if draw(st.booleans()):
        read = draw(_row_counts)
        node = sized(PhysScan("t", ("x",), input_rows=read, input_bytes=read * 40.0))
        ops = [PipelineOp(node, "source_scan")]
    else:
        node = aggregate(PhysScan("t", ("x",)), AggMode.FINAL)
        ops = [PipelineOp(node, "source_state")]

    kinds = draw(st.lists(st.sampled_from(_STREAM_KINDS), max_size=5))
    for _ in range(draw(st.sampled_from((0, 1, 2)))):
        kinds.insert(draw(st.integers(0, len(kinds))), "partial")
    for kind in kinds:
        role = "stream"
        if kind == "filter":
            node = sized(PhysFilter(node, x))
        elif kind == "project":
            width = draw(st.integers(0, 4))
            node = sized(PhysProject(node, (x,) * width, ("x",) * width))
        elif kind == "limit":
            node = sized(PhysLimit(node, 10))
        elif kind == "partial":
            node = aggregate(node, AggMode.PARTIAL)
        elif kind == "probe":
            node = sized(PhysHashJoin(PhysScan("b", ("x",)), node, (x,), (x,)))
            role = "probe"
        else:
            node = sized(PhysExchange(node, ExchangeKind(kind)))
        ops.append(PipelineOp(node, role))

    sink = draw(st.sampled_from(("none", "build", "sink_agg", "sink_sort")))
    if sink == "build":
        ops.append(PipelineOp(sized(PhysHashJoin(node, PhysScan("p", ("x",)), (x,), (x,))), sink))
    elif sink == "sink_agg":
        ops.append(PipelineOp(aggregate(node, AggMode.FINAL), sink))
    elif sink == "sink_sort":
        ops.append(PipelineOp(sized(PhysSort(node, ("x",), (True,))), sink))

    overrides = draw(
        st.one_of(
            st.none(),
            st.dictionaries(
                st.sampled_from([op.node.node_id for op in ops]), _row_counts
            ),
        )
    )
    return Pipeline(pipeline_id=0, ops=ops), overrides


def _almost_empty_probe_input():
    """The shrunk chain ``hypothesis`` once drew (PR 18): a scan whose
    plan-time estimate is a subnormal 2.2e-311 rows but which is observed
    to emit one, feeding a probe that expects no output, then a build.
    ``rows / expected_in`` overflowed to ``inf``, the probe emitted
    ``0 * inf`` and the build was priced at ``stream_s=nan``."""
    from repro.plan.physical import PhysHashJoin, PhysScan
    from repro.plan.pipelines import Pipeline, PipelineOp

    x = ColumnRef("x")
    scan = PhysScan("t", ("x",), input_rows=1.0, input_bytes=40.0)
    scan.est_rows = 2.2e-311
    probe = PhysHashJoin(PhysScan("b", ("x",)), scan, (x,), (x,))
    build = PhysHashJoin(probe, PhysScan("p", ("x",)), (x,), (x,))
    ops = [
        PipelineOp(scan, "source_scan"),
        PipelineOp(probe, "probe"),
        PipelineOp(build, "build"),
    ]
    return Pipeline(pipeline_id=0, ops=ops), {scan.node_id: 1.0}


@settings(max_examples=300, deadline=None)
@given(operator_chains(), st.lists(st.integers(1, 64), min_size=1, max_size=4))
@example(_almost_empty_probe_input(), [1])
def test_compiled_curve_prices_any_chain_like_the_models(chain, dops):
    """Chains the planner never emits (two partial aggregates, probes
    and exchanges downstream of one, zero-row inputs, estimates of almost
    no rows) must still compile to the reference's floats — a curve may
    never mis-price — and both must price every operator at a finite
    time: a NaN compares unequal to itself and drops out of ``max``."""
    from repro.cost.estimator import CostEstimator
    from repro.testing.reference import ReferenceModels

    pipeline, overrides = chain
    fast = CostEstimator().models
    reference = ReferenceModels()
    for dop in dops:
        expected = reference.pipeline_timing(pipeline, dop, overrides)
        actual = fast.pipeline_timing(pipeline, dop, overrides)
        assert actual.duration == expected.duration
        assert actual.bottleneck == expected.bottleneck
        assert actual.source_rows == expected.source_rows
        assert actual.op_times == expected.op_times
        assert all(math.isfinite(t.stream_s + t.fixed_s) for t in actual.op_times)
