"""Process-sharded serving: warm planner worker pools, crash included.

The threaded scheduler interleaves CPU-bound planning on one core; the
sharded path stages it in warm, long-lived worker *processes* keyed by
query template, while every authoritative effect — admission, billing,
statistics logs, the journal — stays in the coordinator.  This demo
drives identical multi-tenant traffic through both paths and shows:

- **Bit-identical observability.**  Plans, per-tenant ledger bills, and
  admission verdicts from the sharded warehouse equal the threaded
  baseline exactly — process boundaries change *where* planning runs,
  never *what* is served.
- **Warm worker caches.**  Literal-varying repeats of a template land
  on the same worker (template affinity), whose private skeleton cache
  skips join-order DP exactly like the coordinator's own.
- **Crash recovery, exactly-once.**  A seeded ``worker_crash`` fault
  kills a worker right after a dispatch — the hardest window, the task
  is in flight and dies with the process.  The coordinator restarts the
  worker warm, re-stages its in-flight tasks, and bills each query
  once: the crashed run's ledger still matches the threaded baseline
  bit for bit, with zero retry dollars.

Run:  python examples/sharded_serving.py
"""

from repro import (
    CostIntelligentWarehouse,
    QueryRequest,
    budget_constraint,
    sla_constraint,
)
from repro.testing import FaultPlan, FaultSpec
from repro.workloads.tpch_queries import instantiate
from repro.workloads.tpch_stats import synthetic_tpch_catalog

TEMPLATES = ["q1_pricing_summary", "q6_revenue_forecast", "q5_local_supplier"]
TENANTS = {
    "reporting": sla_constraint(15.0),
    "adhoc": budget_constraint(0.05),
}


def fresh_warehouse() -> CostIntelligentWarehouse:
    return CostIntelligentWarehouse(catalog=synthetic_tpch_catalog(1.0))


def drive(warehouse: CostIntelligentWarehouse) -> list:
    """Two literal-varying batches per tenant; returns every outcome."""
    outcomes = []
    for tenant, constraint in TENANTS.items():
        session = warehouse.session(tenant=tenant, constraint=constraint)
        clock = 0.0
        for batch_seeds in (range(1, 5), range(5, 9)):
            requests = []
            for seed in batch_seeds:
                for name in TEMPLATES:
                    requests.append(
                        QueryRequest(
                            sql=instantiate(name, seed=seed),
                            at_time=clock,
                            simulate=False,
                        )
                    )
                    clock += 60.0
            handles = session.submit_many(requests, max_workers=4)
            outcomes.extend(handle.result() for handle in handles)
    return outcomes


def bills(warehouse: CostIntelligentWarehouse) -> dict:
    return {t: b.ledger_snapshot() for t, b in warehouse.billing.items()}


def main() -> None:
    print("Threaded baseline (GIL-interleaved planning)...")
    threaded = fresh_warehouse()
    baseline = [(o.sql, o.record.dollars) for o in drive(threaded)]
    print(f"  served {len(baseline)} queries across {len(TENANTS)} tenants\n")

    print("Sharded warehouse: 4 warm planner worker processes...")
    sharded = fresh_warehouse()
    sharded.enable_sharding(workers=4)
    try:
        served = [(o.sql, o.record.dollars) for o in drive(sharded)]
        pool = sharded.worker_pool
        print(f"  {pool.describe()}")
        assert served == baseline, "sharded plans/bills diverged"
        assert bills(sharded) == bills(threaded), "ledger bills diverged"
        print("  plans and per-tenant ledger bills are bit-identical\n")
    finally:
        sharded.disable_sharding()

    print("Crash drill: kill a worker right after a dispatch...")
    crashed = fresh_warehouse()
    crashed.inject_faults(
        FaultPlan(
            [FaultSpec(point="worker_crash", error_rate=1.0, after=2, limit=2)],
            seed=7,
        )
    )
    crashed.enable_sharding(workers=4)
    try:
        served = [(o.sql, o.record.dollars) for o in drive(crashed)]
        pool = crashed.worker_pool
        print(f"  {pool.describe()}")
        assert pool.injected_kills == 2 and pool.restarts >= 1
        assert served == baseline, "crashed run diverged from baseline"
        assert bills(crashed) == bills(threaded), "crash perturbed the bills"
        assert crashed.metrics.value("repro_retries_total") == 0
        print(
            "  in-flight tasks re-staged on warm restarts; every query "
            "billed exactly once,\n  ledger still bit-identical to the "
            "threaded baseline — crashes are free for tenants"
        )
    finally:
        crashed.disable_sharding()


if __name__ == "__main__":
    main()
