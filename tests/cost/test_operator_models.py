import pytest

from repro.cost.hardware import HardwareCalibration
from repro.cost.estimator import CostEstimator
from repro.plan.pipelines import ROLE_SOURCE_SCAN, decompose_pipelines


@pytest.fixture(scope="module")
def estimator():
    return CostEstimator()


@pytest.fixture(scope="module")
def scan_pipeline(big_binder, big_planner):
    plan = big_planner.plan(
        big_binder.bind_sql("SELECT count(*) AS c FROM lineitem")
    )
    dag = decompose_pipelines(plan)
    return next(p for p in dag if p.source.role == ROLE_SOURCE_SCAN)


@pytest.fixture(scope="module")
def join_pipelines(big_binder, big_planner):
    plan = big_planner.plan(
        big_binder.bind_sql(
            "SELECT count(*) AS c FROM orders, lineitem WHERE o_orderkey = l_orderkey"
        )
    )
    return decompose_pipelines(plan)


def test_scan_duration_decreases_then_saturates(estimator, scan_pipeline):
    durations = [
        estimator.pipeline_timing(scan_pipeline, dop).duration for dop in (1, 2, 4, 8)
    ]
    assert durations[0] > durations[1] > durations[2]


def test_scan_near_linear_speedup_at_moderate_dop(estimator, scan_pipeline):
    d1 = estimator.pipeline_timing(scan_pipeline, 1).duration
    d8 = estimator.pipeline_timing(scan_pipeline, 8).duration
    speedup = d1 / d8
    assert 4.0 < speedup <= 8.5  # near-linear minus fixed overheads


def test_shuffle_pipeline_latency_u_curve(estimator, join_pipelines):
    """Over-scaling a shuffle-heavy pipeline eventually hurts latency (§2)."""
    probe = join_pipelines.root
    # root pipeline here is gather; use the probe pipeline with exchange
    candidates = [
        p
        for p in join_pipelines
        if any("shuffle" in op.node.describe().lower() for op in p.ops)
    ]
    pipeline = candidates[0]
    durations = {
        dop: estimator.pipeline_timing(pipeline, dop).duration
        for dop in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
    }
    best = min(durations, key=durations.get)
    assert best > 1  # scaling helps initially
    assert durations[512] > durations[best]  # and hurts eventually


def test_machine_time_grows_with_dop(estimator, scan_pipeline):
    t4 = estimator.pipeline_timing(scan_pipeline, 4).duration * 4
    t32 = estimator.pipeline_timing(scan_pipeline, 32).duration * 32
    assert t32 > t4


def test_throughput_increases_with_dop(estimator, scan_pipeline):
    assert estimator.throughput(scan_pipeline, 8) > estimator.throughput(scan_pipeline, 1)


def test_bottleneck_reported(estimator, scan_pipeline):
    timing = estimator.pipeline_timing(scan_pipeline, 2)
    assert timing.bottleneck
    assert len(timing.op_times) == len(scan_pipeline.ops)


def test_spill_penalty_kicks_in():
    tiny_memory = HardwareCalibration.calibrated(
        "standard", hash_memory_fraction=1e-7
    )
    normal = CostEstimator(HardwareCalibration())
    constrained = CostEstimator(tiny_memory)

    # Build a join pipeline against the big catalog.
    from repro.optimizer.dag_planner import DagPlanner
    from repro.sql.binder import Binder
    from repro.workloads.tpch_stats import synthetic_tpch_catalog

    catalog = synthetic_tpch_catalog(10.0)
    binder = Binder(catalog)
    plan = DagPlanner(catalog).plan(
        binder.bind_sql(
            "SELECT count(*) AS c FROM orders, lineitem WHERE o_orderkey = l_orderkey"
        )
    )
    dag = decompose_pipelines(plan)
    build = next(p for p in dag if p.sink.role == "build")
    slow = constrained.pipeline_timing(build, 2).duration
    fast = normal.pipeline_timing(build, 2).duration
    assert slow > fast


def test_exchange_calibration_changes_predictions(estimator, join_pipelines):
    from repro.cost.regression import ExchangeCalibration, ExchangeCoefficients
    from repro.plan.physical import ExchangeKind

    slow_exchange = ExchangeCalibration(
        by_kind={
            kind: ExchangeCoefficients(transfer_scale=3.0, base_setup_s=1.0)
            for kind in ExchangeKind
        }
    )
    slow_models = CostEstimator(HardwareCalibration(), slow_exchange)
    pipeline = next(
        p
        for p in join_pipelines
        if any("shuffle" in op.node.describe().lower() for op in p.ops)
    )
    assert (
        slow_models.pipeline_timing(pipeline, 8).duration
        > estimator.pipeline_timing(pipeline, 8).duration
    )
