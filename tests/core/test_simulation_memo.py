"""A served plan's simulations.

``CostIntelligentWarehouse._simulate`` keeps the ``SimResult`` of every
``(policy name, constraint, DOPs, truth, SimConfig, max_dop)`` it has
run for a plan in that ``PlanChoice``'s ``simulations`` table.  These
tests hold the claim that makes that sound — the simulation is a pure
function of the plan and that key — and the table's bypass,
invalidation and lifetime rules.  The ``simulator_runs`` fixture counts
``DistributedSimulator.run`` calls, so a hit is a run that did not
happen.
"""

import dataclasses
import gc
import weakref

import pytest

from repro.core.service import QueryRequest, QueryState
from repro.core.warehouse import CostIntelligentWarehouse
from repro.dop.constraints import budget_constraint, sla_constraint
from repro.dop.planner import DopPlan
from repro.monitor.policies import POLICY_NAMES, make_policy
from repro.sim.distsim import DistributedSimulator, ScalingPolicy, SimConfig
from repro.testing.faults import FaultPlan, FaultSpec
from repro.workloads.tpch_queries import instantiate, template_names
from repro.workloads.tpch_stats import synthetic_tpch_catalog

#: Tight enough at SF 50 that most plans run above DOP 1 and the policies
#: resize (a fifth of the sweep's cases) — a sweep that never leaves the
#: static path would prove little.
CONSTRAINTS = (sla_constraint(4.0), budget_constraint(0.02))


@pytest.fixture(scope="module")
def catalog():
    return synthetic_tpch_catalog(
        50.0, cluster_keys={"lineitem": "l_shipdate", "orders": "o_orderdate"}
    )


@pytest.fixture()
def warehouse(catalog):
    return CostIntelligentWarehouse(catalog=catalog)


def _fresh_simulation(warehouse, choice, constraint, policy_name, truth):
    """What ``_simulate`` computes on a miss, spelled out: a new policy
    object, a new simulator (hence a new warm pool and meter), one run."""
    policy = make_policy(
        policy_name, choice, constraint, warehouse.estimator, max_dop=warehouse.max_dop
    )
    config = warehouse.sim_config
    if policy_name == "stage-scaler":
        config = dataclasses.replace(config, materialize_exchanges=True)
    return DistributedSimulator(
        choice.dag,
        choice.dop_plan.dops,
        warehouse.estimator,
        truth=truth,
        planned=choice.dop_plan.estimate,
        policy=policy,
        config=config,
    ).run()


def _assert_same_result(actual, expected):
    assert actual.latency == expected.latency
    assert actual.cost == expected.cost
    assert actual.scan_request_dollars == expected.scan_request_dollars
    assert actual.resize_count == expected.resize_count
    assert actual.cold_starts == expected.cold_starts
    assert actual.runs.keys() == expected.runs.keys()
    for pid, run in expected.runs.items():
        assert actual.runs[pid] == run, f"pipeline {pid}"


def _truths(choice):
    """No truth, and every pipeline's source off by 2.5x (enough for the
    DOP monitor to adjust and replan)."""
    sources = [pipeline.ops[0].node for pipeline in choice.dag]
    return (None, {node.node_id: float(node.est_rows) * 2.5 for node in sources})


# ------------------------------ purity -------------------------------- #
@pytest.mark.parametrize("template", template_names())
def test_memoized_simulation_equals_a_freshly_built_simulator(
    warehouse, simulator_runs, template
):
    """10 templates x 4 policy names x {SLA, budget} x truth in {None,
    overrides}: every combination is simulated once (stored), then — after
    all the others have run over the same estimator, plan and draw table —
    answered from the plan's table and compared field by field with a
    simulator built from scratch.  A key that left out the policy name,
    the constraint, the DOPs or the truth would hand one combination
    another's result here."""
    sql = instantiate(template, seed=3)
    cases = []
    for constraint in CONSTRAINTS:
        _, choice = warehouse.plan(sql, constraint)
        for policy_name in POLICY_NAMES:
            for truth in _truths(choice):
                first = warehouse._simulate(choice, constraint, policy_name, truth)
                cases.append((choice, constraint, policy_name, truth, first))
    assert simulator_runs.calls == len(cases) == 16
    choices = {id(case[0]): case[0] for case in cases}.values()
    assert sum(len(choice.simulations) for choice in choices) == len(cases)
    again = [
        warehouse._simulate(choice, constraint, policy_name, truth)
        for choice, constraint, policy_name, truth, _ in cases
    ]
    assert simulator_runs.calls == len(cases)
    for (choice, constraint, policy_name, truth, first), answer in zip(cases, again):
        assert answer is first
        _assert_same_result(
            answer, _fresh_simulation(warehouse, choice, constraint, policy_name, truth)
        )


def test_one_dag_planned_under_sla_then_budget_gets_two_entries(warehouse):
    """Physical planning is constraint-independent, so an SLA and a
    budget ``PlanChoice`` of one bound query optimized in one walk share
    a DAG object: each choice keeps its own simulation."""
    bound = warehouse.binder.bind_sql(instantiate("q6_revenue_forecast", seed=1))
    walk = warehouse.estimator.scratch()
    choices = [
        warehouse.optimizer.optimize(bound, c, scratch=walk) for c in CONSTRAINTS
    ]
    assert choices[0].dag is choices[1].dag
    sims = [
        warehouse._simulate(choice, constraint, "dop-monitor", None)
        for choice, constraint in zip(choices, CONSTRAINTS)
    ]
    assert [list(choice.simulations.values()) for choice in choices] == [
        [sims[0]],
        [sims[1]],
    ]
    assert sims[0] is not sims[1]
    for sim, choice, constraint in zip(sims, choices, CONSTRAINTS):
        _assert_same_result(
            sim, _fresh_simulation(warehouse, choice, constraint, "dop-monitor", None)
        )


def test_sim_config_max_dop_and_dops_are_key_components(warehouse):
    sql = instantiate("q3_shipping_priority", seed=1)
    constraint = CONSTRAINTS[0]
    _, choice = warehouse.plan(sql, constraint)
    base = warehouse._simulate(choice, constraint, "dop-monitor", None)

    warehouse.sim_config = SimConfig(seed=7)
    reseeded = warehouse._simulate(choice, constraint, "dop-monitor", None)
    assert reseeded is not base
    _assert_same_result(
        reseeded,
        _fresh_simulation(warehouse, choice, constraint, "dop-monitor", None),
    )

    warehouse.max_dop = 8
    capped = warehouse._simulate(choice, constraint, "dop-monitor", None)
    assert capped is not reseeded and capped is not base

    plan = choice.dop_plan
    doubled = {pid: 2 * dop for pid, dop in plan.dops.items()}
    other = dataclasses.replace(
        choice,
        dop_plan=DopPlan(
            doubled,
            warehouse.estimator.estimate_dag(choice.dag, doubled),
            plan.feasible,
            constraint=constraint,
        ),
    )
    # ``replace`` starts the copy with a table of its own.
    assert other.simulations == {} and other.simulations is not choice.simulations
    rescaled = warehouse._simulate(other, constraint, "dop-monitor", None)
    assert rescaled is not capped
    _assert_same_result(
        rescaled,
        _fresh_simulation(warehouse, other, constraint, "dop-monitor", None),
    )
    assert list(choice.simulations.values()) == [base, reseeded, capped]
    assert list(other.simulations.values()) == [rescaled]
    assert dataclasses.replace(other) == other  # equality ignores the table


# --------------------- bypass, invalidation, lifetime ------------------ #
def test_a_policy_instance_bypasses_the_memo(warehouse, simulator_runs):
    """A ``ScalingPolicy`` instance is the caller's object and may carry
    state from run to run: never stored, never answered from the table."""

    class Counting(ScalingPolicy):
        starts = 0

        def on_pipeline_start(self, pipeline_id, planned_dop):
            self.starts += 1
            return planned_dop

    sql = instantiate("q12_shipmode", seed=1)
    policy = Counting()
    session = warehouse.session(constraint=CONSTRAINTS[0], policy=policy)
    first = session.submit(sql).result()
    per_run = policy.starts
    assert per_run > 0
    second = session.submit(sql).result()
    assert policy.starts == 2 * per_run  # the simulator really ran again
    assert second.sim is not first.sim
    assert second.choice is first.choice  # an exact hit all the same
    assert simulator_runs.calls == 2
    assert first.choice.simulations == {}


def test_invalidate_caches_empties_the_memo(warehouse, simulator_runs):
    """The estimator's ``invalidate_caches`` clears the walk tables only:
    the simulations live on the cached plan, survive it, and go with
    ``invalidate_plan_cache``."""
    sql = instantiate("q14_promo_effect", seed=1)
    session = warehouse.session(constraint=CONSTRAINTS[0])
    first = session.submit(sql).result()
    assert session.submit(sql).result().sim is first.sim
    warehouse.estimator.invalidate_caches()
    # Walk tables only: the entry is still there and still answers.
    kept = session.submit(sql).result()
    assert kept.choice is first.choice and kept.sim is first.sim
    assert simulator_runs.calls == 1
    warehouse.invalidate_plan_cache()
    recomputed = session.submit(sql).result()
    assert recomputed.choice is not first.choice
    assert recomputed.sim is not first.sim
    assert simulator_runs.calls == 2
    assert list(recomputed.choice.simulations.values()) == [recomputed.sim]
    _assert_same_result(recomputed.sim, first.sim)


def test_recalibrating_re_plans_and_re_simulates(catalog, simulator_runs):
    """The recalibration recipe: assign the new calibration, clear the
    estimator's walk tables, drop the plans.  The calibration is not in
    the simulation key, so until the plans go an exact hit still answers
    with the old run; after, the next arrival re-plans and re-simulates
    exactly as a warehouse built on the new hardware does."""
    sql = instantiate("q3_shipping_priority", seed=1)
    warehouse = CostIntelligentWarehouse(catalog=catalog)
    session = warehouse.session(constraint=CONSTRAINTS[0])
    old = session.submit(sql).result()
    slower = dataclasses.replace(
        warehouse.estimator.hw,
        scan_bytes_per_core=warehouse.estimator.hw.scan_bytes_per_core / 4,
    )

    warehouse.estimator.hw = slower
    warehouse.estimator.invalidate_caches()
    assert session.submit(sql).result().sim is old.sim  # the plan is cached
    warehouse.invalidate_plan_cache()
    new = session.submit(sql).result()
    assert simulator_runs.calls == 2
    assert new.choice is not old.choice
    assert new.sim.latency != old.sim.latency

    fresh = CostIntelligentWarehouse(catalog=catalog, hardware=slower)
    expected = fresh.session(constraint=CONSTRAINTS[0]).submit(sql).result()
    assert new.choice.dop_plan.dops == expected.choice.dop_plan.dops
    assert new.choice.dop_plan.estimate == expected.choice.dop_plan.estimate
    _assert_same_result(new.sim, expected.sim)
    assert new.record.dollars == expected.record.dollars


def test_a_memo_entry_dies_with_its_plan(warehouse):
    """The table is a field of the choice, and a ``SimResult`` never
    references it: flushing the plan caches (eviction does the same, one
    entry at a time) is the only thing that has to happen for the
    simulation to go."""
    sql = instantiate("q5_local_supplier", seed=1)
    session = warehouse.session(constraint=CONSTRAINTS[0])
    outcome = session.submit(sql).result()
    assert list(outcome.choice.simulations.values()) == [outcome.sim]
    dag = weakref.ref(outcome.choice.dag)
    sim = weakref.ref(outcome.sim)
    del outcome
    gc.collect()
    assert dag() is not None and sim() is not None  # the exact cache holds the plan
    warehouse.invalidate_plan_cache()
    gc.collect()
    assert dag() is None and sim() is None


def test_bypassing_the_plan_cache_never_hits(warehouse, simulator_runs):
    """``use_plan_cache=False`` plans a new choice per arrival, so there
    is nothing to hit: no switch, the table just starts empty."""
    sql = instantiate("q6_revenue_forecast", seed=1)
    session = warehouse.session(constraint=CONSTRAINTS[0])
    outcomes = [
        session.submit(QueryRequest(sql=sql, use_plan_cache=False)).result()
        for _ in range(3)
    ]
    assert simulator_runs.calls == 3
    assert len({id(outcome.choice) for outcome in outcomes}) == 3
    for outcome in outcomes[1:]:
        _assert_same_result(outcome.sim, outcomes[0].sim)


# ------------------------------- guard --------------------------------- #
def test_simulate_faults_draw_once_per_arrival_hit_or_not(catalog, simulator_runs):
    """The lookup sits *inside* the callable the stage guard wraps, so a
    repeated query draws its ``simulate`` fault, retries, pays retry
    dollars and fails exactly as when every arrival re-simulates (here:
    the same traffic with the plan cache bypassed, which never hits)."""

    def serve(use_plan_cache):
        runs = simulator_runs.calls
        warehouse = CostIntelligentWarehouse(catalog=catalog)
        warehouse.inject_faults(
            FaultPlan([FaultSpec(point="simulate", error_rate=0.55)], seed=5)
        )
        session = warehouse.session(tenant="acme", constraint=CONSTRAINTS[0])
        sql = instantiate("q1_pricing_summary", seed=1)
        handles = [
            session.submit(QueryRequest(sql=sql, use_plan_cache=use_plan_cache))
            for _ in range(24)
        ]
        return (
            [(h.state, h.retries) for h in handles],
            warehouse.describe_health()["resilience"],
            session.bill.ledger_snapshot(),
            (warehouse.faults.fired, warehouse.faults.invocations),
            simulator_runs.calls - runs,
        )

    *memoized, hit_runs = serve(use_plan_cache=True)
    *recomputed, miss_runs = serve(use_plan_cache=False)
    assert memoized == recomputed
    states, resilience, _, (fired, invocations) = memoized
    failures = sum(state is QueryState.FAILED for state, _ in states)
    assert resilience["retries"] > 0 and resilience["retry_dollars"] > 0
    assert 0 < failures < len(states)
    # One draw per arrival plus one per retry; every fired draw was
    # either retried or the attempt that exhausted the allowance.
    assert invocations["simulate"] == len(states) + resilience["retries"]
    assert fired["simulate"] == resilience["retries"] + failures
    # Bypassing the cache, every arrival that got past its faults ran
    # the simulator; with it, only the first did.
    assert miss_runs == len(states) - failures
    assert hit_runs == 1
