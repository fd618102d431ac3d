"""A scripted history that writes every journal record type, shared by
the ledger tests and the journaled-vs-journal-free parity test."""

from __future__ import annotations

import pytest

from repro.core.journal import RetryCharge
from repro.core.service import QueryRequest
from repro.core.warehouse import CostIntelligentWarehouse
from repro.dop.constraints import sla_constraint
from repro.errors import TuningError
from repro.tuning.service import Recommendation
from repro.workloads.tpch_stats import synthetic_tpch_catalog

_BUDGETS = {"acme": 100.0, "bolt": 100.0}
_SLA = sla_constraint(20.0)
_T_JOIN = (
    "SELECT n_name, sum(c_acctbal) AS bal, count(*) AS cnt "
    "FROM customer, nation WHERE c_nationkey = n_nationkey "
    "AND n_regionkey = {v} GROUP BY n_name"
)


def _drive_ledger_history(warehouse, *, t0: float = 0.0, checkpoints: bool = False):
    """Six served queries from two budgeted tenants (so each is
    admission-checked), one retry charge, three collected snapshots,
    one MV apply, one failed apply and one rollback — and, with
    ``checkpoints``, three explicit checkpoints.  Drives a warehouse
    built by the ``history_warehouse`` fixture."""
    ledger = warehouse.ledger
    tuning = warehouse.tuning
    sessions = {
        tenant: warehouse.session(tenant=tenant, constraint=_SLA)
        for tenant in _BUDGETS
    }

    def serve(indices) -> None:
        for i in indices:
            sessions[("acme", "bolt")[i % 2]].submit(
                QueryRequest(
                    sql=_T_JOIN.format(v=i % 4),
                    template="q5ish",
                    at_time=t0 + 10.0 * i,
                )
            ).result()

    def mark() -> None:
        warehouse.collector.collect_now()
        if checkpoints:
            warehouse.checkpoint()

    serve(range(3))
    ledger.commit(RetryCharge(tenant="acme", dollars=0.000123))
    mark()
    mv = next(
        rec for rec in tuning.propose() if rec.action.kind == "materialized-view"
    )
    if not mv.accepted:
        tuning.accept(mv)
    tuning.apply(mv)
    # The newest id, so replay's next id (derived from intents) equals
    # the live counter (advanced by every proposal).
    clone = Recommendation(rec_id=ledger.issue_rec_id(), report=mv.report)
    tuning.accept(clone)
    with pytest.raises(TuningError):
        tuning.apply(clone)  # the name is taken: an intent, then a failure
    serve(range(3, 6))  # served through the applied MV
    mark()
    tuning.rollback(mv)
    mark()


@pytest.fixture
def drive_ledger_history():
    return _drive_ledger_history


@pytest.fixture
def history_warehouse():
    """Build a budgeted warehouse for ``drive_ledger_history``."""

    def build(journal=None, catalog=None) -> CostIntelligentWarehouse:
        return CostIntelligentWarehouse(
            catalog=catalog or synthetic_tpch_catalog(1.0),
            journal=journal,
            tenant_budgets=_BUDGETS,
        )

    return build
