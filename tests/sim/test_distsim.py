import pytest

from repro.compute.pricing import PriceModel
from repro.dop.constraints import sla_constraint
from repro.dop.planner import DopPlanner
from repro.plan.pipelines import decompose_pipelines
from repro.sim.distsim import (
    CheckpointObservation,
    DistributedSimulator,
    ResizeDecision,
    ScalingPolicy,
    SimConfig,
    perturbation_draws,
)
from repro.sim.skew import skew_multiplier
from repro.util.rng import derive_rng
from repro.workloads.tpch_queries import instantiate, template_names


@pytest.fixture(scope="module")
def q5(big_binder, big_planner, estimator):
    plan = big_planner.plan(big_binder.bind_sql(instantiate("q5_local_supplier", seed=1)))
    dag = decompose_pipelines(plan)
    dop_plan = DopPlanner(estimator, max_dop=32).plan(dag, sla_constraint(30.0))
    return dag, dop_plan


def run_sim(dag, dop_plan, estimator, **kwargs):
    sim = DistributedSimulator(
        dag,
        dop_plan.dops,
        estimator,
        planned=dop_plan.estimate,
        **kwargs,
    )
    return sim.run()


def test_simulation_completes_all_pipelines(q5, estimator):
    dag, dop_plan = q5
    result = run_sim(dag, dop_plan, estimator)
    assert set(result.runs) == {p.pipeline_id for p in dag}
    assert result.latency > 0
    for run in result.runs.values():
        assert run.finish >= run.start


def test_deterministic_given_seed(q5, estimator):
    dag, dop_plan = q5
    a = run_sim(dag, dop_plan, estimator, config=SimConfig(seed=7))
    b = run_sim(dag, dop_plan, estimator, config=SimConfig(seed=7))
    assert a.latency == b.latency
    assert a.total_dollars == b.total_dollars


def test_different_seed_differs(q5, estimator):
    dag, dop_plan = q5
    a = run_sim(dag, dop_plan, estimator, config=SimConfig(seed=1))
    b = run_sim(dag, dop_plan, estimator, config=SimConfig(seed=2))
    assert a.latency != b.latency


def test_simulated_latency_tracks_estimate(q5, estimator):
    """Sim truth is near the analytic estimate (hidden factors bounded)."""
    dag, dop_plan = q5
    result = run_sim(dag, dop_plan, estimator)
    assert result.latency == pytest.approx(dop_plan.estimate.latency, rel=1.0)
    assert result.latency >= dop_plan.estimate.latency * 0.5


def test_simulated_scan_fee_is_the_estimated_scan_fee(
    big_binder, big_planner, estimator
):
    """The simulator bills object-store GETs with the estimator's own
    formula (one function), so the two figures agree to the bit on every
    TPC-H template."""
    for template in template_names():
        plan = big_planner.plan(big_binder.bind_sql(instantiate(template, seed=1)))
        dag = decompose_pipelines(plan)
        dop_plan = DopPlanner(estimator, max_dop=32).plan(dag, sla_constraint(30.0))
        result = run_sim(dag, dop_plan, estimator)
        assert dop_plan.estimate.scan_request_dollars > 0.0
        assert (
            result.scan_request_dollars == dop_plan.estimate.scan_request_dollars
        ), template


def test_billing_covers_all_pipelines(q5, estimator):
    dag, dop_plan = q5
    result = run_sim(dag, dop_plan, estimator)
    # Machine time at least sum over pipelines of dop x duration.
    lower = sum(
        run.final_dop * (run.finish - run.run_start)
        for run in result.runs.values()
    )
    assert result.machine_seconds >= lower * 0.95


def test_true_cardinality_slows_execution(q5, estimator):
    dag, dop_plan = q5
    baseline = run_sim(dag, dop_plan, estimator)
    truth = {}
    for pipeline in dag:
        source = pipeline.ops[0].node
        truth[source.node_id] = float(source.est_rows) * 8.0
    inflated = run_sim(dag, dop_plan, estimator, truth=truth)
    assert inflated.latency > baseline.latency


def test_materialize_exchanges_costs_more_time(q5, estimator):
    dag, dop_plan = q5
    streaming = run_sim(dag, dop_plan, estimator, config=SimConfig(seed=3))
    clean_cut = run_sim(
        dag, dop_plan, estimator,
        config=SimConfig(seed=3, materialize_exchanges=True),
    )
    assert clean_cut.latency > streaming.latency


def test_lease_minimum_billing(q5, estimator):
    dag, dop_plan = q5
    result = run_sim(
        dag, dop_plan, estimator,
        price_model=PriceModel(minimum_billed_seconds=300.0),
    )
    assert result.cost.billed_machine_seconds >= result.cost.machine_seconds


class _ForcedResize(ScalingPolicy):
    """Doubles the first observed pipeline once."""

    name = "forced-resize"

    def __init__(self):
        self.fired = False

    def on_checkpoint(self, obs: CheckpointObservation):
        if not self.fired:
            self.fired = True
            return ResizeDecision(new_dop=obs.dop * 2)
        return None


def test_policy_resize_mechanics(q5, estimator):
    dag, dop_plan = q5
    policy = _ForcedResize()
    result = run_sim(dag, dop_plan, estimator, policy=policy)
    assert result.resize_count == (1 if policy.fired else 0)
    if policy.fired:
        resized = [r for r in result.runs.values() if r.resizes > 0]
        assert len(resized) == 1
        assert len(resized[0].dop_history) == 2


class _Replanner(ScalingPolicy):
    """Forces pending pipelines to dop=2 when the first pipeline finishes."""

    name = "replanner"

    def __init__(self, dag):
        self.dag = dag

    def on_pipeline_finish(self, pipeline_id, time, true_rows):
        return {p.pipeline_id: 2 for p in self.dag}


def test_replan_applies_to_pending_only(q5, estimator):
    dag, dop_plan = q5
    result = run_sim(dag, dop_plan, estimator, policy=_Replanner(dag))
    # Pipelines started after the first finish got dop=2.
    later = [
        r for r in result.runs.values()
        if r.start > min(x.finish for x in result.runs.values())
    ]
    assert any(r.final_dop == 2 for r in later)


def test_provisioning_toggle(q5, estimator):
    dag, dop_plan = q5
    with_prov = run_sim(dag, dop_plan, estimator, config=SimConfig(seed=5))
    without = run_sim(
        dag, dop_plan, estimator,
        config=SimConfig(seed=5, include_provisioning=False),
    )
    assert without.latency < with_prov.latency


# ------------------------ perturbation-draw table ---------------------- #
def test_perturbation_draws_equal_fresh_draws_to_the_bit():
    """The table holds exactly what a fresh generator yields: skew
    first (shuffled pipelines above DOP 1 only), then the lognormal."""
    config = SimConfig(seed=7)
    for pipeline_id in range(12):
        for epoch in range(4):
            for dop in range(1, 65):
                for has_shuffle in (False, True):
                    rng = derive_rng(
                        config.seed, "pipeline", str(pipeline_id), str(epoch)
                    )
                    skew = 1.0
                    if has_shuffle and dop > 1:
                        skew = skew_multiplier(dop, config.skew_zipf_s, rng)
                    noise = float(rng.lognormal(mean=0.0, sigma=config.noise_sigma))
                    for _ in range(2):  # computed, then remembered
                        assert perturbation_draws(
                            config.seed,
                            pipeline_id,
                            epoch,
                            dop if has_shuffle and dop > 1 else 0,
                            config.skew_zipf_s,
                            config.noise_sigma,
                        ) == (skew, noise)


def test_perturbation_table_is_bounded():
    maxsize = perturbation_draws.cache_info().maxsize
    assert maxsize is not None
    for seed in range(1000):
        for pipeline_id in range(6):
            perturbation_draws(seed, pipeline_id, 0, 4, 0.5, 0.06)
    info = perturbation_draws.cache_info()
    assert info.misses >= 6000 > maxsize
    assert info.currsize <= maxsize


def test_repeated_simulation_draws_nothing_new(q5, estimator):
    dag, dop_plan = q5
    first = run_sim(dag, dop_plan, estimator, config=SimConfig(seed=5))
    misses = perturbation_draws.cache_info().misses
    again = run_sim(dag, dop_plan, estimator, config=SimConfig(seed=5))
    assert perturbation_draws.cache_info().misses == misses
    assert again.latency == first.latency
    assert again.total_dollars == first.total_dollars
