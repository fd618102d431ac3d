"""Multi-tenant budgets: one tenant runs dry mid-batch, the other proceeds.

Admission control closes the loop between billing and serving: every
tenant's TenantBill (serving + background tuning dollars) is checked
against its TenantBudget at admission time, and verdicts escalate as
spend approaches the ceiling — ADMIT, then THROTTLE (no batch
parallelism), then DEFER (pushed behind the rest of the batch and
re-checked), then DENY (a typed AdmissionDeniedError on a handle in the
DENIED terminal state).  Crucially, one tenant exhausting its budget
never fails another tenant's in-flight work: with fail_fast=False each
denial is reported on its own handle while the rest of the batch serves.

Run:  python examples/multi_tenant_budgets.py
"""

from repro import (
    AdmissionDeniedError,
    CostIntelligentWarehouse,
    QueryRequest,
    TenantBudget,
    sla_constraint,
)
from repro.workloads.tpch_queries import instantiate
from repro.workloads.tpch_stats import synthetic_tpch_catalog


def request(name: str, seed: int, tenant: str) -> QueryRequest:
    return QueryRequest(
        sql=instantiate(name, seed=seed),
        template=name,
        tenant=tenant,
        simulate=False,  # plan + price only: the bill is what matters here
    )


def main() -> None:
    print("Building a stats-only TPC-H warehouse (SF 1)...")
    warehouse = CostIntelligentWarehouse(catalog=synthetic_tpch_catalog(1.0))
    session = warehouse.session(tenant="finance", constraint=sla_constraint(15.0))

    # Calibrate a tight budget for finance: serve one probe query, then
    # cap the tenant at ~2.5x that spend.  Marketing gets generous room.
    probe = session.submit(request("q6_revenue_forecast", seed=1, tenant="finance"))
    per_query = probe.result().dollars
    warehouse.admission.set_budget(
        "finance", TenantBudget(dollars=per_query * 2.5, throttle_at=0.5, defer_at=0.9)
    )
    warehouse.admission.set_budget("marketing", TenantBudget(dollars=per_query * 100))
    print(
        f"one query costs ~${per_query:.4f}; finance budget "
        f"${per_query * 2.5:.4f}, marketing budget ${per_query * 100:.4f}\n"
    )

    # One interleaved batch: finance will cross its ceiling mid-batch.
    items = []
    for seed in range(2, 8):
        items.append(request("q6_revenue_forecast", seed=seed, tenant="finance"))
        items.append(request("q1_pricing_summary", seed=seed, tenant="marketing"))
    handles = session.submit_many(items, fail_fast=False)

    print("=== batch outcomes (submission order) ===")
    for handle in handles:
        tenant = handle.request.tenant
        verdict = handle.admission.value if handle.admission else "-"
        line = f"  #{handle.index:<2} {tenant:<10} [{handle.state.value:<7}] verdict={verdict}"
        if handle.denied:
            assert isinstance(handle.error, AdmissionDeniedError)
            line += (
                f"  (${handle.error.spent_dollars:.4f} spent "
                f"of ${handle.error.budget_dollars:.4f})"
            )
        print(line)

    finance_states = [h.state.value for h in handles if h.request.tenant == "finance"]
    marketing_ok = all(
        not h.denied and not h.failed
        for h in handles
        if h.request.tenant == "marketing"
    )
    print(f"\nfinance lifecycle across the batch: {finance_states}")
    print(f"every marketing query served: {marketing_ok}")
    assert marketing_ok, "a tenant budget must never fail another tenant's batch"
    assert any(h.denied for h in handles), "finance should have run dry mid-batch"

    print("\n=== admission verdicts (counted on each tenant's bill) ===")
    for tenant, verdicts in warehouse.describe_caches()["admission"].items():
        print(f"  {tenant}: {verdicts}")
    print("\n=== billing ===")
    print(warehouse.describe_billing())


if __name__ == "__main__":
    main()
