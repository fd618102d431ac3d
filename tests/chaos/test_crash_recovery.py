"""Named crash scenarios: a kill at one journal boundary, then recovery.

A multi-tenant workload (serving traffic plus one mid-workload tuning
apply) runs against a journaled warehouse; a
:func:`~repro.testing.faults.kill` spec severs the process at a chosen
journal-record boundary, and the warehouse is recovered from the
journal over the *same* surviving catalog.  The scenarios: an apply
killed in its in-doubt window is rolled back; a rollback killed before
its commit record is completed forward and metered; a denied query
journals its verdict and nothing else, at every boundary around it;
a recovered warehouse lists and rolls back what it applied, and rolls
back a recommendation object held across the crash exactly once; and
serving caches re-warm from the recovered forecast to the reference's
plans.  Kills at generated points of generated histories
are ``test_histories.py``'s.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.journal import WriteAheadJournal
from repro.core.service import QueryRequest
from repro.core.warehouse import CostIntelligentWarehouse
from repro.dop.constraints import sla_constraint
from repro.errors import AdmissionDeniedError, TuningStateError
from repro.testing import FaultPlan, SimulatedCrashError, crash_probes, kill
from repro.tuning.clustering import ReclusterCandidate
from repro.tuning.service import Recommendation, RecommendationState
from repro.tuning.whatif import TuningReport
from repro.workloads.tpch_stats import synthetic_tpch_catalog

SLA = sla_constraint(20.0)
CHECKPOINT_EVERY = 4

T_JOIN = (
    "SELECT n_name, sum(c_acctbal) AS bal, count(*) AS cnt "
    "FROM customer, nation WHERE c_nationkey = n_nationkey "
    "AND n_regionkey = {v} GROUP BY n_name"
)
T_ORDERS = "SELECT count(*) AS c FROM orders WHERE o_totalprice > {v}"
TENANTS = ("acme", "bolt")
QUERIES_BEFORE_TUNE = 3
TOTAL_QUERIES = 5


def plan_snapshot(choice):
    estimate = choice.dop_plan.estimate
    return (
        choice.join_tree.describe(),
        dict(choice.dop_plan.dops),
        estimate.latency,
        estimate.total_dollars,
        estimate.machine_seconds,
    )


def script(seed: int) -> list[tuple[str, str, str, float]]:
    """The deterministic per-seed workload: (tenant, template, sql, at)."""
    steps = []
    for i in range(TOTAL_QUERIES):
        tenant = TENANTS[(i + seed) % 2]
        if i % 3 == 2:
            sql = T_ORDERS.format(v=100_000 + seed + i)
            template = "orders_scan"
        else:
            sql = T_JOIN.format(v=(seed + i) % 4)
            template = "q5ish"
        steps.append((tenant, template, sql, 10.0 * i))
    return steps


def make_warehouse(catalog, journal, plan=None):
    warehouse = CostIntelligentWarehouse(catalog=catalog, journal=journal)
    if plan is not None:
        warehouse.inject_faults(plan)
    return warehouse


def tune(warehouse) -> None:
    """Propose and apply the workload's MV recommendation."""
    candidates = [
        rec
        for rec in warehouse.tuning.propose()
        if rec.action.kind == "materialized-view"
    ]
    assert candidates, "workload must yield an MV recommendation"
    rec = candidates[0]
    if not rec.accepted:
        warehouse.tuning.accept(rec)
    warehouse.tuning.apply(rec)


def tuning_applied(warehouse) -> bool:
    return bool(warehouse.tuning.applied_recommendations)


def run_script(warehouse, seed: int) -> None:
    """Run (or, after recovery, *resume*) the seed's workload.

    Progress is derived from recovered state: the log length says which
    queries already finalized, the recovered recommendations whether the
    apply committed — so a resumed run completes exactly the steps the
    crashed process never finished.
    """
    steps = script(seed)
    sessions = {
        tenant: warehouse.session(tenant=tenant, constraint=SLA)
        for tenant in TENANTS
    }

    def serve(from_index: int, to_index: int) -> None:
        for tenant, template, sql, at in steps[from_index:to_index]:
            handle = sessions[tenant].submit(
                QueryRequest(sql=sql, template=template, at_time=at)
            )
            handle.result()

    done = len(warehouse.logs)
    if done < QUERIES_BEFORE_TUNE:
        serve(done, QUERIES_BEFORE_TUNE)
        done = QUERIES_BEFORE_TUNE
    if not tuning_applied(warehouse):
        tune(warehouse)
    serve(done, TOTAL_QUERIES)


def reference_run(seed: int):
    """The uncrashed journaled run: bills, plans, and — via the
    zero-rate crash probes — the reachable kill-point schedule."""
    catalog = synthetic_tpch_catalog(1.0)
    probes = FaultPlan(crash_probes(), seed=seed)
    warehouse = make_warehouse(
        catalog, WriteAheadJournal(checkpoint_every=CHECKPOINT_EVERY), probes
    )
    run_script(warehouse, seed)
    bills = {t: b.ledger_snapshot() for t, b in warehouse.billing.items()}
    plans = {
        sql: plan_snapshot(warehouse.plan(sql, SLA)[1])
        for _, _, sql, _ in script(seed)
    }
    return bills, plans, dict(probes.invocations)


def assert_log_invariants(warehouse) -> None:
    records = list(warehouse.logs)
    assert [r.query_id for r in records] == list(range(1, len(records) + 1))
    timestamps = [r.timestamp for r in records]
    assert timestamps == sorted(timestamps)


def test_matrix_reaches_the_in_doubt_window():
    """At least one matrix cell must exercise in-doubt resolution: a
    crash at ``crash_pre_commit`` leaves the tuning apply intended but
    uncommitted, and recovery rolls the catalog mutation back."""
    seed = 0
    catalog = synthetic_tpch_catalog(1.0)
    journal = WriteAheadJournal(checkpoint_every=CHECKPOINT_EVERY)
    crashed = make_warehouse(
        catalog, journal, FaultPlan([kill("crash_pre_commit")], seed=seed)
    )
    with pytest.raises(SimulatedCrashError):
        run_script(crashed, seed)
    stranded = [
        rec
        for rec in crashed.tuning.recommendations
        if rec.state is RecommendationState.APPLYING
    ]
    assert stranded, "crash_pre_commit must strand an intent"
    name = stranded[0].action.name
    assert catalog.has_view(name) or catalog.has_table(name)  # half-applied

    recovered = CostIntelligentWarehouse.recover(journal, catalog=catalog)
    assert recovered.last_recovery.in_doubt_back == 1
    resolved = recovered.ledger.recommendations[stranded[0].rec_id]
    assert resolved.state is RecommendationState.FAILED
    assert resolved.resolution == "back"
    assert not catalog.has_view(name) and not catalog.has_table(name)
    assert not recovered.ledger.applied_mvs
    # Unbilled: the tenant never got the action.
    assert all(
        bill.background_dollars == 0.0
        for bill in recovered.billing.values()
    )


def test_crash_mid_rollback_completes_forward():
    """A rollback whose commit record never landed is completed
    *forward* by recovery: the reversal was requested, so recovery
    finishes it (idempotently) and meters it exactly as the live path
    would have."""
    seed = 1
    catalog = synthetic_tpch_catalog(1.0)
    journal = WriteAheadJournal()
    warehouse = make_warehouse(catalog, journal)
    run_script(warehouse, seed)
    applied = [
        rec for rec in warehouse.tuning.recommendations if rec.applied
    ]
    assert applied
    rec = applied[0]
    name = rec.action.name
    # Reference: the same workload with the rollback completed live.
    ref_catalog = synthetic_tpch_catalog(1.0)
    reference = make_warehouse(ref_catalog, WriteAheadJournal())
    run_script(reference, seed)
    reference.tuning.rollback(
        [r for r in reference.tuning.recommendations if r.applied][0]
    )

    warehouse.inject_faults(FaultPlan([kill("crash_pre_commit")], seed=seed))
    with pytest.raises(SimulatedCrashError):
        warehouse.tuning.rollback(rec)
    assert rec.state is RecommendationState.ROLLING_BACK

    recovered = CostIntelligentWarehouse.recover(journal, catalog=catalog)
    assert recovered.last_recovery.in_doubt_forward == 1
    resolved = recovered.ledger.recommendations[rec.rec_id]
    assert resolved.state is RecommendationState.ROLLED_BACK
    assert resolved.resolution == "forward"
    assert not catalog.has_view(name) and not catalog.has_table(name)
    assert not recovered.ledger.applied_mvs
    assert {
        t: b.ledger_snapshot() for t, b in recovered.billing.items()
    } == {t: b.ledger_snapshot() for t, b in reference.billing.items()}
    assert lifecycle(recovered.ledger.snapshot().recommendations) == lifecycle(
        reference.ledger.snapshot().recommendations
    )


def lifecycle(recommendations) -> list:
    return [(rec.rec_id, rec.action, rec.state) for rec in recommendations]


def apply_mv_and_recluster(warehouse) -> None:
    """The seed-1 workload with its MV applied, then a recluster of
    ``orders`` applied after a checkpoint: recovery restores one apply
    and replays the other."""
    run_script(warehouse, seed=1)
    warehouse.checkpoint()
    candidate = ReclusterCandidate(table="orders", key="o_orderdate")
    report = TuningReport(
        candidate=candidate,
        savings_per_hour=1.0,
        cost_per_hour=0.0,
        one_time_dollars=0.5,
    )
    rec = Recommendation(
        rec_id=warehouse.ledger.issue_rec_id(),
        report=report,
        tenant_shares={"acme": 0.5, "bolt": 0.5},
    )
    warehouse.tuning.accept(rec)
    warehouse.tuning.apply(rec)


def test_a_recovered_warehouse_lists_and_rolls_back_what_it_applied():
    """The ledger holds the one record of each recommendation, so a
    recovered warehouse lists the applies its journal committed and
    rolls them back exactly as the live process would.  A second copy
    used to live beside the journaled one: after recovery the ledger
    said ``applied`` while the tuning service listed nothing, and there
    was no way to roll the applied view back."""
    catalog = synthetic_tpch_catalog(1.0)
    journal = WriteAheadJournal()
    live = make_warehouse(catalog, journal)
    apply_mv_and_recluster(live)
    reference = make_warehouse(synthetic_tpch_catalog(1.0), WriteAheadJournal())
    apply_mv_and_recluster(reference)

    recovered = CostIntelligentWarehouse.recover(journal, catalog=catalog)
    applied = recovered.tuning.applied_recommendations
    assert lifecycle(applied) == lifecycle(live.tuning.applied_recommendations)
    assert [rec.action.kind for rec in applied] == ["materialized-view", "recluster"]

    for warehouse in (recovered, reference):
        for rec in warehouse.tuning.applied_recommendations:
            warehouse.tuning.rollback(rec)
        assert not warehouse.tuning.applied_recommendations
    assert {t: b.ledger_snapshot() for t, b in recovered.billing.items()} == {
        t: b.ledger_snapshot() for t, b in reference.billing.items()
    }
    assert recovered.ledger.applied_mvs == reference.ledger.applied_mvs == {}
    ref_catalog = reference.catalog
    assert catalog.table_names == ref_catalog.table_names
    assert [v.name for v in catalog.views()] == [v.name for v in ref_catalog.views()]
    for table in catalog.table_names:
        assert catalog.table(table).schema == ref_catalog.table(table).schema


def test_a_recommendation_held_across_a_crash_rolls_back_once():
    """An object held across a recovery names its journaled id: rolling
    it back on the recovered warehouse moves the recovered
    recommendation.  The held object itself stays ``applied``, and a
    second rollback of it must raise rather than journal and meter the
    reversal again."""
    catalog = synthetic_tpch_catalog(1.0)
    journal = WriteAheadJournal()
    crashed = make_warehouse(catalog, journal)
    run_script(crashed, seed=1)
    held = crashed.tuning.applied_recommendations[0]
    reference = make_warehouse(synthetic_tpch_catalog(1.0), WriteAheadJournal())
    run_script(reference, seed=1)
    reference.tuning.rollback(reference.tuning.applied_recommendations[0])

    # The process dies after the apply's commit: recover from its journal.
    recovered = CostIntelligentWarehouse.recover(journal, catalog=catalog)
    rolled = recovered.tuning.rollback(held)
    assert rolled is recovered.ledger.recommendations[held.rec_id]
    assert rolled.state is RecommendationState.ROLLED_BACK
    assert held.state is RecommendationState.APPLIED
    with pytest.raises(TuningStateError):
        recovered.tuning.rollback(held)
    assert {t: b.ledger_snapshot() for t, b in recovered.billing.items()} == {
        t: b.ledger_snapshot() for t, b in reference.billing.items()
    }
    records = [type(entry.record).__name__ for entry in journal.entries()]
    assert records.count("RollbackIntent") == records.count("RollbackCommit") == 1
    assert not recovered.ledger.applied_mvs
    assert not catalog.has_view(held.action.name)


# --------------------------------------------------------------------- #
# Denied admission leaves no trace (satellite: DENY journal hygiene)
# --------------------------------------------------------------------- #
def denial_script(warehouse):
    """alpha's first query is admitted; its second, over budget, is
    denied; beta serves throughout."""
    alpha = warehouse.session(tenant="alpha", constraint=SLA)
    beta = warehouse.session(tenant="beta", constraint=SLA)
    served = len(warehouse.logs)
    if served < 1:
        alpha.submit(QueryRequest(sql=T_JOIN.format(v=0), at_time=0.0)).result()
    denied = alpha.submit(QueryRequest(sql=T_JOIN.format(v=1), at_time=10.0))
    with pytest.raises(AdmissionDeniedError):
        denied.result()
    if len(warehouse.logs) < 2:
        beta.submit(QueryRequest(sql=T_JOIN.format(v=2), at_time=20.0)).result()


def make_denial_warehouse(catalog, journal, plan=None):
    warehouse = CostIntelligentWarehouse(
        catalog=catalog, journal=journal, tenant_budgets={"alpha": 0.0001}
    )
    if plan is not None:
        warehouse.inject_faults(plan)
    return warehouse


def test_denied_admission_journals_only_the_verdict():
    catalog = synthetic_tpch_catalog(1.0)
    journal = WriteAheadJournal()
    warehouse = make_denial_warehouse(catalog, journal)
    denial_script(warehouse)
    from repro.core.journal import AdmissionDecision, QueryServed

    records = [entry.record for entry in journal.entries()]
    denies = [
        r
        for r in records
        if isinstance(r, AdmissionDecision) and r.verdict == "deny"
    ]
    assert len(denies) == 1 and denies[0].tenant == "alpha"
    # The denied query contributed exactly one record: its verdict.
    # Served queries contribute a verdict *and* a QueryServed.
    assert len([r for r in records if isinstance(r, QueryServed)]) == 2
    assert len([r for r in records if isinstance(r, AdmissionDecision)]) == 3
    assert warehouse.billing["alpha"].queries == 1  # never billed


def spend_of(warehouse) -> dict:
    """Each tenant's bill but its verdict counts: the part a resumed
    script must reproduce exactly once."""
    return {
        tenant: replace(bill, admits=0, throttles=0, defers=0, denies=0)
        for tenant, bill in warehouse.billing.items()
    }


def test_crash_at_denial_recovers_clean():
    """Kill the process at every record boundary around the denial;
    recovery must restore the verdict counters and nothing else — no
    phantom bill, no phantom log record for the denied query."""
    reference = make_denial_warehouse(
        synthetic_tpch_catalog(1.0), WriteAheadJournal()
    )
    denial_script(reference)
    ref_bills = spend_of(reference)
    denied_sql = T_JOIN.format(v=1)

    probes = FaultPlan(crash_probes())
    probe_wh = make_denial_warehouse(
        synthetic_tpch_catalog(1.0), WriteAheadJournal(), probes
    )
    denial_script(probe_wh)
    reachable = dict(probes.invocations)

    for point in ("crash_pre_write", "crash_post_write"):
        for at in range(reachable[point]):
            catalog = synthetic_tpch_catalog(1.0)
            journal = WriteAheadJournal()
            crashed = make_denial_warehouse(
                catalog, journal, FaultPlan([kill(point, at=at)])
            )
            with pytest.raises(SimulatedCrashError):
                denial_script(crashed)
            # Budgets are constructor config, not journaled state: the
            # restarted process supplies them again, recovery restores
            # the verdict history they act on.
            recovered = CostIntelligentWarehouse.recover(
                journal, catalog=catalog, tenant_budgets={"alpha": 0.0001}
            )
            assert "alpha" not in recovered.billing or (
                recovered.billing["alpha"].queries <= 1
            )
            assert_log_invariants(recovered)
            denial_script(recovered)  # resume: the denial still stands
            # Exactly-once billing and logging survive the crash; the
            # denied query appears in neither.  (Verdict *counts* are
            # not exactly-once: a re-submitted query after a crash is
            # honestly admission-checked again.)
            assert spend_of(recovered) == ref_bills
            assert len(recovered.logs) == 2
            assert all(r.sql != denied_sql for r in recovered.logs)
            assert recovered.billing["alpha"].denies >= 1


# --------------------------------------------------------------------- #
# Derived caches re-warm from recovered state
# --------------------------------------------------------------------- #
def test_warm_cache_rewarns_from_the_recovered_forecast():
    """Serving caches restart cold (pure derived state), but the
    recovered Statistics Service log still drives cache warming, and
    warmed plans are bit-identical to the reference's served plans."""
    seed = 2
    ref_bills, ref_plans, _ = reference_run(seed)

    catalog = synthetic_tpch_catalog(1.0)
    journal = WriteAheadJournal(checkpoint_every=CHECKPOINT_EVERY)
    crashed = make_warehouse(
        catalog, journal, FaultPlan([kill("crash_post_write", at=4)], seed=seed)
    )
    with pytest.raises(SimulatedCrashError):
        run_script(crashed, seed)
    recovered = CostIntelligentWarehouse.recover(journal, catalog=catalog)
    assert recovered.plan_cache is not None and len(recovered.plan_cache) == 0

    workload = {}
    for _, template, sql, _ in script(seed):
        workload.setdefault(template, sql)
    warmed = recovered.warm_cache(workload, SLA)
    assert set(warmed) == set(workload)
    run_script(recovered, seed)
    plans = {
        sql: plan_snapshot(recovered.plan(sql, SLA)[1])
        for _, _, sql, _ in script(seed)
    }
    assert plans == ref_plans
    assert {
        t: b.ledger_snapshot() for t, b in recovered.billing.items()
    } == ref_bills

