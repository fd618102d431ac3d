"""Kill-point recovery matrix: crash anywhere, recover everywhere (PR 7).

The crash counterpart of ``test_fault_matrix.py``: a seeded multi-tenant
workload (serving traffic + one mid-workload tuning apply) runs against
a journaled warehouse while a :func:`~repro.testing.faults.kill` spec
severs the process at **every reachable kill point** — before a journal
write, after the write but before the in-memory apply, and after a
tuning apply's catalog mutation but before its commit record.  After
each crash the warehouse is recovered from the journal over the *same*
surviving catalog, the workload resumes to completion, and the crash
invariants are asserted against an uncrashed journaled reference run:

- **exactly-once billing** — recovered + resumed ``TenantBill`` ledger
  snapshots are *bitwise* equal to the reference (no lost charge, no
  double charge, for serving, background, and retry dollars alike);
- **append-ordered, gap-free log** — query ids are sequential from 1
  and timestamps never decrease, across the crash;
- **no stranded recommendations** — no durable tuning record is ever
  left ``applying`` / ``rolling_back``, and an in-doubt apply's catalog
  mutation is physically rolled back;
- **bit-identical plans** — the recovered warehouse (caches cold)
  plans every workload template identically to the reference.

Every cycle also re-checks reachability coverage: the reference run
carries zero-rate :func:`~repro.testing.faults.crash_probes`, and the
matrix asserts each declared crash point was actually invoked — a new
journal write site cannot silently dodge the matrix.
"""

from __future__ import annotations

import pytest

from repro.core.journal import WriteAheadJournal
from repro.core.service import QueryRequest
from repro.core.warehouse import CostIntelligentWarehouse
from repro.dop.constraints import sla_constraint
from repro.errors import AdmissionDeniedError
from repro.testing import CRASH_POINTS, FaultPlan, SimulatedCrashError, crash_probes, kill
from repro.workloads.tpch_stats import synthetic_tpch_catalog

SLA = sla_constraint(20.0)
RECOVERY_SEEDS = range(20)
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
    return any(
        durable.state == "applied"
        for durable in warehouse.ledger.durable_tuning.values()
    )


def run_script(warehouse, seed: int) -> None:
    """Run (or, after recovery, *resume*) the seed's workload.

    Progress is derived from recovered state: the log length says which
    queries already finalized, the durable tuning records whether the
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


def assert_no_stranded_recommendations(warehouse) -> None:
    for durable in warehouse.ledger.durable_tuning.values():
        assert not durable.in_doubt, (
            f"recommendation #{durable.rec_id} stranded in {durable.state!r}"
        )


@pytest.mark.parametrize("seed", RECOVERY_SEEDS)
def test_kill_point_matrix(seed):
    """Crash at every reachable (point, invocation), recover, resume,
    and hold every crash invariant against the uncrashed reference."""
    ref_bills, ref_plans, reachable = reference_run(seed)

    # Coverage gate: every declared kill point must actually be
    # reachable in this workload — a crash family the workload never
    # exercises would make the whole matrix vacuous.
    for point in CRASH_POINTS:
        assert reachable.get(point, 0) >= 1, f"{point} never invoked"

    for point in CRASH_POINTS:
        for at in range(reachable[point]):
            catalog = synthetic_tpch_catalog(1.0)
            journal = WriteAheadJournal(checkpoint_every=CHECKPOINT_EVERY)
            crashed = make_warehouse(
                catalog, journal, FaultPlan([kill(point, at=at)], seed=seed)
            )
            fired = False
            try:
                run_script(crashed, seed)
            except SimulatedCrashError:
                fired = True
            assert fired, f"kill({point!r}, at={at}) did not crash the run"

            recovered = CostIntelligentWarehouse.recover(journal, catalog=catalog)
            assert_no_stranded_recommendations(recovered)
            assert_log_invariants(recovered)

            run_script(recovered, seed)  # resume to completion
            assert_log_invariants(recovered)
            assert_no_stranded_recommendations(recovered)
            bills = {
                t: b.ledger_snapshot() for t, b in recovered.billing.items()
            }
            assert bills == ref_bills, (
                f"billing diverged after kill({point!r}, at={at})"
            )
            plans = {
                sql: plan_snapshot(recovered.plan(sql, SLA)[1])
                for _, _, sql, _ in script(seed)
            }
            assert plans == ref_plans, (
                f"plans diverged after kill({point!r}, at={at})"
            )


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
        d for d in crashed.ledger.durable_tuning.values() if d.state == "applying"
    ]
    assert stranded, "crash_pre_commit must strand an intent"
    name = stranded[0].name
    assert catalog.has_view(name) or catalog.has_table(name)  # half-applied

    recovered = CostIntelligentWarehouse.recover(journal, catalog=catalog)
    assert recovered.last_recovery.in_doubt_back == 1
    durable = recovered.ledger.durable_tuning[stranded[0].rec_id]
    assert durable.state == "failed" and durable.resolution == "back"
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
    assert warehouse.ledger.durable_tuning[rec.rec_id].state == "rolling_back"

    recovered = CostIntelligentWarehouse.recover(journal, catalog=catalog)
    assert recovered.last_recovery.in_doubt_forward == 1
    durable = recovered.ledger.durable_tuning[rec.rec_id]
    assert durable.state == "rolled_back" and durable.resolution == "forward"
    assert not catalog.has_view(name) and not catalog.has_table(name)
    assert not recovered.ledger.applied_mvs
    assert {
        t: b.ledger_snapshot() for t, b in recovered.billing.items()
    } == {t: b.ledger_snapshot() for t, b in reference.billing.items()}
    assert [
        (e.action_name, e.kind, e.dollars)
        for e in recovered.tuning.background.ledger
    ] == [
        (e.action_name, e.kind, e.dollars)
        for e in reference.tuning.background.ledger
    ]


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


def test_crash_at_denial_recovers_clean():
    """Kill the process at every record boundary around the denial;
    recovery must restore the verdict counters and nothing else — no
    phantom bill, no phantom log record for the denied query."""
    reference = make_denial_warehouse(
        synthetic_tpch_catalog(1.0), WriteAheadJournal()
    )
    denial_script(reference)
    ref_bills = {t: b.ledger_snapshot() for t, b in reference.billing.items()}
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
            assert {
                t: b.ledger_snapshot() for t, b in recovered.billing.items()
            } == ref_bills
            assert len(recovered.logs) == 2
            assert all(r.sql != denied_sql for r in recovered.logs)
            assert recovered.admission.verdict_counts["alpha"]["deny"] >= 1


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


def test_recovery_matrix_sweeps_at_least_twenty_seeds():
    assert len(RECOVERY_SEEDS) >= 20
