import dataclasses

import pytest

from repro.cost.estimator import CostEstimator
from repro.cost.query_simulator import simulate_dag
from repro.errors import EstimationError
from repro.plan.pipelines import decompose_pipelines
from repro.workloads.tpch_queries import instantiate


@pytest.fixture(scope="module")
def q5_dag(big_binder, big_planner):
    plan = big_planner.plan(big_binder.bind_sql(instantiate("q5_local_supplier", seed=1)))
    return decompose_pipelines(plan)


@pytest.fixture(scope="module")
def estimator():
    return CostEstimator()


def uniform(dag, dop):
    return {p.pipeline_id: dop for p in dag}


def test_latency_is_critical_path(q5_dag, estimator):
    estimate = simulate_dag(q5_dag, uniform(q5_dag, 4), estimator)
    finish_times = [p.start + p.duration for p in estimate.pipelines.values()]
    assert estimate.latency == pytest.approx(max(finish_times))


def test_start_respects_blocking_deps(q5_dag, estimator):
    estimate = simulate_dag(q5_dag, uniform(q5_dag, 4), estimator)
    for pipeline in q5_dag:
        cost = estimate.pipelines[pipeline.pipeline_id]
        for dep in pipeline.blocking_deps:
            dep_cost = estimate.pipelines[dep]
            assert cost.start >= dep_cost.start + dep_cost.duration - 1e-9


def test_waste_is_gap_to_consumer_start(q5_dag, estimator):
    estimate = simulate_dag(q5_dag, uniform(q5_dag, 4), estimator)
    for pipeline in q5_dag:
        cost = estimate.pipelines[pipeline.pipeline_id]
        if pipeline.consumer_id is None:
            assert cost.waste == 0.0
        else:
            consumer = estimate.pipelines[pipeline.consumer_id]
            expected = max(0.0, consumer.start - (cost.start + cost.duration))
            assert cost.waste == pytest.approx(expected)


def test_machine_seconds_sum(q5_dag, estimator):
    estimate = simulate_dag(q5_dag, uniform(q5_dag, 2), estimator)
    total = sum(p.machine_seconds for p in estimate.pipelines.values())
    assert estimate.machine_seconds == pytest.approx(total)
    assert estimate.dollars > 0


def test_dollars_proportional_to_machine_time(q5_dag, estimator):
    cheap = simulate_dag(q5_dag, uniform(q5_dag, 1), estimator)
    assert cheap.dollars == pytest.approx(
        cheap.machine_seconds * estimator.hw.node.price_per_second
    )


def test_missing_dop_rejected(q5_dag, estimator):
    with pytest.raises(EstimationError):
        simulate_dag(q5_dag, {}, estimator)


def test_provisioning_adds_latency(q5_dag, estimator):
    with_prov = simulate_dag(q5_dag, uniform(q5_dag, 4), estimator)
    no_attach = CostEstimator(
        dataclasses.replace(estimator.hw, warm_attach_latency_s=0.0),
        estimator.exchange,
    )
    without = simulate_dag(q5_dag, uniform(q5_dag, 4), no_attach)
    assert with_prov.latency > without.latency


def test_estimator_facade_uniform_int(big_binder, big_planner):
    estimator = CostEstimator()
    plan = big_planner.plan(
        big_binder.bind_sql("SELECT count(*) AS c FROM orders")
    )
    dag = decompose_pipelines(plan)
    estimate = estimator.estimate_dag(dag, uniform(dag, 4))
    assert estimate.latency > 0
    assert estimate.scan_request_dollars > 0


def test_estimate_describe_renders(q5_dag, estimator):
    estimate = simulate_dag(q5_dag, uniform(q5_dag, 2), estimator)
    text = estimate.describe()
    assert "latency" in text and "P0" in text
