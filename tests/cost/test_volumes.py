import pytest

from repro.cost.volumes import pipeline_volumes
from repro.errors import EstimationError
from repro.plan.physical import AggMode, PhysAggregate, walk_physical
from repro.plan.pipelines import ROLE_SOURCE_SCAN, decompose_pipelines


@pytest.fixture(scope="module")
def agg_dag(big_binder, big_planner):
    plan = big_planner.plan(
        big_binder.bind_sql(
            "SELECT l_returnflag, sum(l_quantity) AS q FROM lineitem GROUP BY l_returnflag"
        )
    )
    return plan, decompose_pipelines(plan)


def scan_pipeline(dag):
    return next(p for p in dag if p.source.role == ROLE_SOURCE_SCAN)


def test_volumes_chain_consistency(agg_dag):
    _, dag = agg_dag
    pipeline = scan_pipeline(dag)
    volumes = pipeline_volumes(pipeline, dop=4)
    for upstream, downstream in zip(volumes, volumes[1:]):
        assert downstream.rows_in == upstream.rows_out
        assert downstream.bytes_in == upstream.bytes_out


def test_partial_agg_output_scales_with_dop(agg_dag):
    _, dag = agg_dag
    pipeline = scan_pipeline(dag)

    def partial_out(dop):
        for volume in pipeline_volumes(pipeline, dop):
            node = volume.op.node
            if isinstance(node, PhysAggregate) and node.mode is AggMode.PARTIAL:
                return volume.rows_out
        raise AssertionError("no partial aggregate found")

    assert partial_out(1) < partial_out(8) < partial_out(64)
    # Never exceeds the input cardinality.
    source_rows = pipeline_volumes(pipeline, 1)[0].rows_out
    assert partial_out(10**6) <= source_rows


def test_truth_overrides_propagate(agg_dag):
    plan, dag = agg_dag
    pipeline = scan_pipeline(dag)
    scan_node = pipeline.ops[0].node
    baseline = pipeline_volumes(pipeline, 4)
    truth = {scan_node.node_id: scan_node.est_rows * 4.0}
    adjusted = pipeline_volumes(pipeline, 4, truth)
    assert adjusted[0].rows_out == pytest.approx(baseline[0].rows_out * 4.0)
    # Downstream streaming op input scales too.
    assert adjusted[1].rows_in == pytest.approx(baseline[1].rows_in * 4.0)


def test_sink_emits_nothing(agg_dag):
    _, dag = agg_dag
    pipeline = scan_pipeline(dag)
    sink = pipeline_volumes(pipeline, 2)[-1]
    assert sink.rows_out == 0.0


def test_invalid_dop(agg_dag):
    _, dag = agg_dag
    with pytest.raises(EstimationError):
        pipeline_volumes(scan_pipeline(dag), 0)


def test_scan_input_independent_of_dop(agg_dag):
    _, dag = agg_dag
    pipeline = scan_pipeline(dag)
    v1 = pipeline_volumes(pipeline, 1)[0]
    v64 = pipeline_volumes(pipeline, 64)[0]
    assert v1.bytes_in == v64.bytes_in
