"""T-shirt sizing, performance-only planning, serverless baselines."""

import pytest

from repro.baselines.perfonly import PerformanceOnlyPlanner
from repro.baselines.serverless import ServerlessConfig, serverless_estimate
from repro.baselines.tshirt import TShirtProvisioner, uniform_dops
from repro.compute.pricing import TSHIRT_SIZES
from repro.cost.operator_models import OperatorModels
from repro.dop.constraints import sla_constraint
from repro.dop.planner import DopPlanner
from repro.errors import OptimizerError
from repro.plan.pipelines import decompose_pipelines
from repro.workloads.tpch_queries import instantiate


@pytest.fixture(scope="module")
def q5_dag(big_binder, big_planner):
    plan = big_planner.plan(big_binder.bind_sql(instantiate("q5_local_supplier", seed=1)))
    return decompose_pipelines(plan)


def test_uniform_dops(q5_dag):
    dops = uniform_dops(q5_dag, 8)
    assert set(dops.values()) == {8}
    with pytest.raises(OptimizerError):
        uniform_dops(q5_dag, 0)


def test_tshirt_pick_meets_sla_on_estimates(q5_dag, estimator):
    provisioner = TShirtProvisioner(estimator, overprovision_steps=0)
    baseline = provisioner.estimate_at_size(q5_dag, 1)
    choice = provisioner.pick_for_sla([q5_dag], baseline.latency * 0.9)
    assert choice.nodes >= 1
    assert choice.estimate.latency <= baseline.latency * 0.9 or choice.size_name == "4XL"


def test_tshirt_overprovision_bumps_size(q5_dag, estimator):
    lean = TShirtProvisioner(estimator, overprovision_steps=0)
    cautious = TShirtProvisioner(estimator, overprovision_steps=2)
    baseline = lean.estimate_at_size(q5_dag, 1)
    sla = baseline.latency * 0.9
    lean_choice = lean.pick_for_sla([q5_dag], sla)
    cautious_choice = cautious.pick_for_sla([q5_dag], sla)
    names = list(TSHIRT_SIZES)
    assert names.index(cautious_choice.size_name) >= names.index(lean_choice.size_name)


def test_tshirt_costs_more_than_dop_planner(q5_dag, estimator):
    """The headline claim: per-pipeline DOP beats one-size-fits-all."""
    provisioner = TShirtProvisioner(estimator, overprovision_steps=1)
    baseline = provisioner.estimate_at_size(q5_dag, 1)
    sla = baseline.latency * 0.9
    tshirt = provisioner.pick_for_sla([q5_dag], sla)
    smart = DopPlanner(estimator, max_dop=128).plan(q5_dag, sla_constraint(sla))
    assert smart.feasible
    assert smart.estimate.total_dollars < tshirt.estimate.total_dollars


def test_perfonly_minimizes_latency_at_cost(q5_dag, estimator):
    planner = PerformanceOnlyPlanner(estimator, max_dop=64)
    plan = planner.plan(q5_dag)
    baseline = estimator.estimate_dag(q5_dag, uniform_dops(q5_dag, 1))
    assert plan.estimate.latency <= baseline.latency
    assert plan.estimate.total_dollars >= baseline.total_dollars


def test_serverless_estimate_shape(q5_dag, estimator):
    estimate = serverless_estimate(q5_dag, OperatorModels(estimator.hw))
    assert estimate.latency > 0
    assert estimate.dollars > 0
    assert len(estimate.pipelines) == len(q5_dag)
    for cost in estimate.pipelines.values():
        assert cost.waste == 0.0  # functions never idle


def test_serverless_cheap_for_tiny_queries(big_binder, big_planner, estimator):
    plan = big_planner.plan(
        big_binder.bind_sql("SELECT count(*) AS c FROM nation")
    )
    dag = decompose_pipelines(plan)
    serverless = serverless_estimate(dag, OperatorModels(estimator.hw))
    cluster = estimator.estimate_dag(dag, uniform_dops(dag, 1))
    assert serverless.dollars < cluster.dollars


def test_serverless_storage_tax_on_shuffles(q5_dag, estimator):
    cheap_storage = ServerlessConfig(storage_bandwidth_per_function=1e12)
    realistic = ServerlessConfig()
    fast = serverless_estimate(q5_dag, OperatorModels(estimator.hw), cheap_storage)
    slow = serverless_estimate(q5_dag, OperatorModels(estimator.hw), realistic)
    assert slow.latency > fast.latency
