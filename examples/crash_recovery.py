"""Crash recovery: the process dies mid-tuning-apply — and restarts
into a bit-identical warehouse.

Crash-consistent warehouse state in action, on one deterministic kill:

- Every authoritative state transition — a served query with its
  billing delta, an admission verdict, a tuning lifecycle edge — is
  written to a **write-ahead journal** before it is applied in memory,
  with periodic checkpoints bounding replay.
- A tuning apply journals its **undo snapshot before touching the
  catalog**, and its commit record only after the mutation succeeds.
  Killing the process between the two leaves the catalog half-mutated
  and the recommendation in-doubt.
- ``CostIntelligentWarehouse.recover(journal)`` restores the last
  checkpoint, replays the tail, and resolves the in-doubt apply: the
  commit record never landed, so the journaled undo snapshot rolls the
  catalog mutation back. No recommendation is ever left ``applying``.
- The resumed workload then re-applies the tuning action and finishes —
  and the final bills are **bitwise equal** to a run that never
  crashed: no lost charge, no double charge.

The kill is simulated by ``kill("crash_pre_commit")``, a one-shot
fault that raises a ``BaseException`` no serving-layer handler can
swallow — the in-memory warehouse is simply abandoned, exactly like a
process death; only the journal and the (durable) catalog survive.

Run:  python examples/crash_recovery.py
"""

from repro import CostIntelligentWarehouse, QueryRequest, sla_constraint
from repro.core import WriteAheadJournal
from repro.testing import FaultPlan, SimulatedCrashError, kill
from repro.workloads.tpch_stats import synthetic_tpch_catalog

SLA = sla_constraint(20.0)
T_JOIN = (
    "SELECT n_name, sum(c_acctbal) AS bal, count(*) AS cnt "
    "FROM customer, nation WHERE c_nationkey = n_nationkey "
    "AND n_regionkey = {v} GROUP BY n_name"
)
STEPS = [("acme", 0), ("bolt", 1), ("acme", 2), ("bolt", 3), ("acme", 0)]


def serve(warehouse, start: int, stop: int) -> None:
    for index, (tenant, v) in enumerate(STEPS[start:stop], start=start):
        session = warehouse.session(tenant=tenant, constraint=SLA)
        session.submit(
            QueryRequest(
                sql=T_JOIN.format(v=v), template="q5ish", at_time=10.0 * index
            )
        ).result()


def apply_mv(warehouse) -> str:
    recs = [
        r
        for r in warehouse.tuning.propose()
        if r.action.kind == "materialized-view"
    ]
    rec = recs[0]
    if not rec.accepted:
        warehouse.tuning.accept(rec)
    warehouse.tuning.apply(rec)
    return rec.action.name


def run_to_completion(warehouse) -> None:
    """Run — or, after recovery, *resume* — the workload: progress is
    read back from the recovered log and durable tuning records."""
    done = len(warehouse.logs)
    if done < 3:
        serve(warehouse, done, 3)
        done = 3
    if not any(
        d.state == "applied" for d in warehouse.ledger.durable_tuning.values()
    ):
        apply_mv(warehouse)
    serve(warehouse, done, len(STEPS))


def bills(warehouse) -> dict:
    return {t: b.ledger_snapshot() for t, b in sorted(warehouse.billing.items())}


def main() -> None:
    print("Reference run (never crashes) on its own catalog...")
    reference = CostIntelligentWarehouse(
        catalog=synthetic_tpch_catalog(1.0), journal=WriteAheadJournal()
    )
    run_to_completion(reference)
    totals = {
        t: round(b.total_dollars, 6) for t, b in sorted(reference.billing.items())
    }
    print(
        f"reference: {len(reference.logs)} queries, "
        f"{len(reference.ledger.applied_mvs)} MV applied, bills {totals}"
    )

    # --- The crashing run: same workload, journaled, killed mid-apply.
    print("\nJournaled run with kill('crash_pre_commit') armed...")
    catalog = synthetic_tpch_catalog(1.0)  # durable storage: survives
    journal = WriteAheadJournal(checkpoint_every=4)  # survives too
    doomed = CostIntelligentWarehouse(catalog=catalog, journal=journal)
    doomed.inject_faults(FaultPlan([kill("crash_pre_commit")]))
    try:
        run_to_completion(doomed)
        raise AssertionError("the kill must fire")
    except SimulatedCrashError as crash:
        print(f"process died at {crash.point!r} (invocation {crash.invocation})")

    stranded = [
        d for d in doomed.ledger.durable_tuning.values() if d.state == "applying"
    ]
    mv_name = stranded[0].name
    print(
        f"at death: {len(doomed.logs)} queries served, recommendation "
        f"#{stranded[0].rec_id} stranded in {stranded[0].state!r}, "
        f"catalog half-mutated (MV registered: "
        f"{catalog.has_view(mv_name) or catalog.has_table(mv_name)})"
    )

    # --- Restart: recover from the journal over the surviving catalog.
    print("\nRecovering from the journal...")
    warehouse = CostIntelligentWarehouse.recover(journal, catalog=catalog)
    report = warehouse.last_recovery
    print(report.describe())
    durable = warehouse.ledger.durable_tuning[stranded[0].rec_id]
    print(
        f"in-doubt apply resolved {durable.resolution!r}: state "
        f"{durable.state!r}, catalog mutation undone (MV registered: "
        f"{catalog.has_view(mv_name) or catalog.has_table(mv_name)})"
    )
    assert durable.state == "failed" and durable.resolution == "back"
    assert not catalog.has_view(mv_name) and not catalog.has_table(mv_name)
    assert not any(d.in_doubt for d in warehouse.ledger.durable_tuning.values())

    # --- Resume: finish the tuning apply and the remaining queries.
    print("\nResuming the workload on the recovered warehouse...")
    run_to_completion(warehouse)
    print(
        f"resumed: {len(warehouse.logs)} queries total, "
        f"{len(warehouse.ledger.applied_mvs)} MV applied"
    )

    # --- The punchline: exactly-once billing, bit-identical plans.
    assert bills(warehouse) == bills(reference), "billing must be exactly-once"
    for _, v in STEPS:
        sql = T_JOIN.format(v=v)
        ours = warehouse.plan(sql, SLA)[1]
        theirs = reference.plan(sql, SLA)[1]
        assert ours.join_tree.describe() == theirs.join_tree.describe()
        assert ours.dop_plan.dops == theirs.dop_plan.dops
    durability = warehouse.describe_health()["durability"]
    print(
        "\nbills bitwise equal to the uncrashed run, plans bit-identical; "
        f"journal at {durability['journal_records']} records, "
        f"checkpoint #{durability['last_checkpoint_id']}"
    )


if __name__ == "__main__":
    main()
