"""DOP monitor and baseline scaling policies under cardinality errors."""

import pytest

from repro.cost.estimator import CostEstimator
from repro.dop.constraints import sla_constraint
from repro.dop.planner import DopPlanner
from repro.monitor.deviation import DeviationThresholds, deviation_ratio
from repro.monitor.policies import (
    IntervalScalerPolicy,
    PerStageScalerPolicy,
    PipelineDopMonitor,
    StaticPolicy,
)
from repro.plan.pipelines import decompose_pipelines
from repro.sim.distsim import DistributedSimulator, SimConfig
from repro.errors import ReproError


# --------------------------- deviation -------------------------------- #
def test_deviation_ratio_symmetric():
    assert deviation_ratio(10, 5) == pytest.approx(2.0)
    assert deviation_ratio(5, 10) == pytest.approx(2.0)
    assert deviation_ratio(7, 7) == 1.0
    assert deviation_ratio(0, 5) == 1.0  # no evidence


def test_thresholds_classify():
    thresholds = DeviationThresholds(minor=1.3, major=3.0)
    assert thresholds.classify(1.0) == "none"
    assert thresholds.classify(2.0) == "adjust"
    assert thresholds.classify(5.0) == "replan"


def test_thresholds_validation():
    with pytest.raises(ReproError):
        DeviationThresholds(minor=2.0, major=1.5)


# --------------------------- end-to-end ------------------------------- #
@pytest.fixture(scope="module")
def setup(big_binder, big_planner, estimator):
    plan = big_planner.plan(
        big_binder.bind_sql(
            "SELECT count(*) AS c FROM orders, lineitem "
            "WHERE o_orderkey = l_orderkey AND o_totalprice > 200000"
        )
    )
    dag = decompose_pipelines(plan)
    sla = 25.0
    dop_plan = DopPlanner(estimator, max_dop=64).plan(dag, sla_constraint(sla))
    # Inject a 6x cardinality under-estimate on every scan source.
    truth = {}
    for pipeline in dag:
        source = pipeline.ops[0].node
        truth[source.node_id] = float(source.est_rows) * 6.0
    return dag, dop_plan, truth, sla


def run_policy(setup_data, estimator, policy_name):
    dag, dop_plan, truth, sla = setup_data
    if policy_name == "static":
        policy = StaticPolicy()
        config = SimConfig(seed=11)
    elif policy_name == "monitor":
        policy = PipelineDopMonitor(
            dag, estimator, sla_constraint(sla), dop_plan.dops,
            planned_latency=dop_plan.estimate.latency,
            planned_durations={
                pid: p.duration for pid, p in dop_plan.estimate.pipelines.items()
            },
            max_dop=64,
        )
        config = SimConfig(seed=11)
    elif policy_name == "interval":
        durations = {
            pid: p.duration for pid, p in dop_plan.estimate.pipelines.items()
        }
        policy = IntervalScalerPolicy(dag, sla, dop_plan.dops, durations, max_dop=64)
        config = SimConfig(seed=11)
    elif policy_name == "stage":
        policy = PerStageScalerPolicy(dag, dop_plan.dops, max_dop=64)
        config = SimConfig(seed=11, materialize_exchanges=True)
    sim = DistributedSimulator(
        dag, dop_plan.dops, estimator,
        truth=truth, planned=dop_plan.estimate, policy=policy, config=config,
    )
    return sim.run(), policy


def test_monitor_reacts_to_card_errors(setup, estimator):
    result, policy = run_policy(setup, estimator, "monitor")
    assert policy.adjustments + policy.replans > 0
    assert result.resize_count > 0


def test_monitor_faster_than_static_under_errors(setup, estimator):
    static_result, _ = run_policy(setup, estimator, "static")
    monitor_result, _ = run_policy(setup, estimator, "monitor")
    assert monitor_result.latency < static_result.latency


def test_monitor_learns_truth(setup, estimator):
    dag, dop_plan, truth, sla = setup
    _, policy = run_policy(setup, estimator, "monitor")
    assert policy.learned  # observed cardinalities recorded
    for node_id, rows in policy.learned.items():
        if node_id in truth:
            assert rows == pytest.approx(truth[node_id])


def test_monitor_without_learned_cardinalities_searches_nothing(setup, monkeypatch):
    """Exact cardinalities (``truth=None``) leave nothing to learn, so a
    forced replan takes the planned DOPs: no DOP search, no new curve."""
    dag, _, _, sla = setup
    estimator = CostEstimator()
    constraint = sla_constraint(sla)
    dop_plan = DopPlanner(estimator, max_dop=64).plan(dag, constraint)
    policy = PipelineDopMonitor(
        dag, estimator, constraint, dop_plan.dops,
        planned_latency=dop_plan.estimate.latency,
        planned_durations={
            pid: p.duration for pid, p in dop_plan.estimate.pipelines.items()
        },
        thresholds=DeviationThresholds(minor=1.0, major=1.0),
        max_dop=64,
    )
    sim = DistributedSimulator(
        dag, dop_plan.dops, estimator,
        truth=None, planned=dop_plan.estimate, policy=policy,
        config=SimConfig(seed=11),
    )
    searches = []
    search = DopPlanner.plan

    def counted(planner, *args, **kwargs):
        searches.append(args)
        return search(planner, *args, **kwargs)

    monkeypatch.setattr(DopPlanner, "plan", counted)
    curves = estimator.stats.curve_computations
    sim.run()
    assert policy.replans > 0
    assert policy.learned == {}
    assert searches == []
    assert estimator.stats.curve_computations == curves


def test_interval_scaler_scales_up(setup, estimator):
    result, policy = run_policy(setup, estimator, "interval")
    assert policy.scale_ups > 0


def test_stage_scaler_resizes_pending_only(setup, estimator):
    result, policy = run_policy(setup, estimator, "stage")
    # Clean-cut engines never resize running pipelines.
    assert all(r.resizes == 0 for r in result.runs.values())


def test_monitor_cheaper_than_interval_scaler(setup, estimator):
    """Whole-cluster scaling overshoots; pipeline-granular does not."""
    monitor_result, _ = run_policy(setup, estimator, "monitor")
    interval_result, _ = run_policy(setup, estimator, "interval")
    assert monitor_result.total_dollars <= interval_result.total_dollars * 1.2
