"""The ledger: one lock over every journal write, one transition
function shared by live commits and crash replay."""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.core.journal import (
    RECORD_TYPES,
    AdmissionDecision,
    Checkpoint,
    WriteAheadJournal,
)
from repro.core.recovery import recover_warehouse
from repro.core.service import QueryRequest
from repro.core.warehouse import CostIntelligentWarehouse
from repro.dop.constraints import sla_constraint
from repro.errors import RecoveryError
from repro.testing import instrument_warehouse
from repro.tuning.service import TuningPolicy
from repro.workloads.tpch_queries import instantiate, template_names
from repro.workloads.tpch_stats import synthetic_tpch_catalog


def test_every_journal_append_happens_under_the_ledger_lock(
    history_warehouse, drive_ledger_history
):
    """Tuning records used to be journaled and folded into the tuning
    bookkeeping bare, while ``checkpoint()`` iterated that dict
    under the lock from whichever session thread crossed
    ``checkpoint_every``."""
    journal = WriteAheadJournal()
    warehouse = history_warehouse(journal)
    sanitizer = instrument_warehouse(warehouse)
    append = journal.append
    appended, unlocked = set(), []

    def checked_append(record):
        appended.add(type(record))
        if "warehouse.serving" not in sanitizer._held():
            unlocked.append(type(record).__name__)
        return append(record)

    journal.append = checked_append
    drive_ledger_history(warehouse, checkpoints=True)
    assert appended == set(RECORD_TYPES)
    assert unlocked == []


def test_live_state_equals_replayed_state_for_every_record_type(
    history_warehouse, drive_ledger_history
):
    """Replaying the whole journal (no checkpoint to start from) onto a
    fresh warehouse over the same catalog rebuilds the live ledger,
    field for field."""
    journal = WriteAheadJournal(checkpoint_every=None)
    live = history_warehouse(journal)
    drive_ledger_history(live)
    replayed_types = {type(entry.record) for entry in journal.entries()}
    assert replayed_types == set(RECORD_TYPES) - {Checkpoint}

    recovered = history_warehouse(catalog=live.catalog)
    report = recover_warehouse(recovered, journal)
    assert report.checkpoint_id is None
    assert report.records_replayed == len(journal)
    live_state, recovered_state = live.ledger.snapshot(), recovered.ledger.snapshot()
    for name in live_state.__dataclass_fields__:
        assert getattr(recovered_state, name) == getattr(live_state, name), name
    # The snapshot carries no window (the journal holds its records).
    assert list(recovered.logs) == list(live.logs)
    assert recovered.ledger.applied_lsn == live.ledger.applied_lsn
    # The history exercised every field: none is at its empty default.
    assert live_state.recommendations
    assert any(bill.verdicts() for bill in live_state.bills)
    assert live_state.cost_history and live_state.next_rec_id > 1


def test_each_record_type_has_exactly_one_apply_handler():
    ledger = CostIntelligentWarehouse(catalog=synthetic_tpch_catalog(1.0)).ledger
    assert set(ledger.handlers) == set(RECORD_TYPES)
    with pytest.raises(RecoveryError, match="no replay handler"):
        ledger.apply(object())


def _bound_fields(bound) -> dict:
    return {f.name: getattr(bound, f.name) for f in fields(bound)}


def test_a_recovered_warehouse_derives_what_the_live_one_does(tmp_path):
    """Template bindings, query ids, collector watermarks, checkpoint
    ids, the tuning cadence and the applied recommendations' estimated
    savings are read from the ledger, so nothing needs re-priming after
    a recovery.  They used to be mirrors kept in step by hand: after an
    apply the live warehouse's bindings were flushed (``propose()``
    returned nothing) while a recovered one re-derived them, and the
    tuning service's cadence marks restarted at zero, so the recovered
    warehouse ran a cycle at its next query that the live one did
    not."""
    catalog = synthetic_tpch_catalog(1.0)
    cadence = TuningPolicy(cadence_queries=40)
    live = CostIntelligentWarehouse(
        catalog=catalog,
        journal=WriteAheadJournal(checkpoint_every=16),
        tuning_policy=cadence,
    )
    live.enable_collection(cadence_queries=8)
    session = live.session(constraint=sla_constraint(20.0))
    requests = [
        QueryRequest(sql=instantiate(name, seed=seed), template=name, simulate=False)
        for seed in range(6)
        for name in template_names()
    ]
    for request in requests:
        session.submit(request).result()
    accepted = next(rec for rec in live.tuning.propose() if rec.accepted)
    live.tuning.apply(accepted)

    path = str(tmp_path / "journal.pkl")
    live.journal.save(path)
    recovered = CostIntelligentWarehouse.recover(
        WriteAheadJournal.load(path), catalog=catalog, tuning_policy=cadence
    )
    recovered.enable_collection(cadence_queries=8)
    live.checkpoint()  # matches the checkpoint recovery writes

    # The applied MV's estimated savings are journaled with its commit.
    savings = "repro_tuning_estimated_savings_ledger_units_per_hour"
    assert live.metrics.value(savings) > 0
    assert recovered.metrics.value(savings) == live.metrics.value(savings)

    live_bindings, recovered_bindings = (
        live.template_queries,
        recovered.template_queries,
    )
    assert set(live_bindings) == set(template_names())
    assert set(recovered_bindings) == set(live_bindings)
    for template, bound in live_bindings.items():
        assert _bound_fields(recovered_bindings[template]) == _bound_fields(bound)

    assert live.journal.last_checkpoint_id > 2
    assert recovered.journal.next_checkpoint_id() == live.journal.next_checkpoint_id()
    assert recovered.collector.due() == live.collector.due()
    served, cycles = [], []
    for warehouse in (live, recovered):
        session = warehouse.session(constraint=sla_constraint(20.0))
        ran = warehouse.tuning.cycles_run
        first = session.submit(QueryRequest(sql=requests[0].sql, simulate=False))
        served.append(first.result().record.query_id)
        assert not warehouse.collector.due()
        for request in requests[1:4]:
            session.submit(request).result()
        cycles.append(warehouse.tuning.cycles_run - ran)
    assert served[0] == served[1] == len(requests) + 1
    # No multiple of the tuning cadence lies in the four queries served.
    assert cycles == [0, 0]

    live_names = [rec.action.name for rec in live.tuning.propose()]
    assert live_names
    assert [rec.action.name for rec in recovered.tuning.propose()] == live_names
    latest = [w.cost_history.latest() for w in (live, recovered)]
    assert (latest[0].seq, latest[0].log_len, latest[0].clock) == (
        latest[1].seq,
        latest[1].log_len,
        latest[1].clock,
    )
    assert latest[0].log_len == len(requests) + 4


def test_a_tenant_denied_at_its_first_query_has_a_zero_spend_bill(tmp_path):
    """An admission decision is counted on the tenant's bill, so a
    tenant whose only records are decisions has a bill that spent
    nothing, live and recovered.  A budget check never denies a tenant
    that has spent nothing, so the denial is committed the way
    ``Session._admit`` commits one; the admitted tenant's query fails
    to bind, leaving its decision as its only record."""
    catalog = synthetic_tpch_catalog(1.0)
    live = CostIntelligentWarehouse(
        catalog=catalog,
        journal=WriteAheadJournal(),
        tenant_budgets={"broke": 1.0, "typo": 1.0},
    )
    live.ledger.commit(AdmissionDecision(tenant="broke", verdict="deny"))
    failed = live.session(tenant="typo", constraint=sla_constraint(20.0)).submit(
        QueryRequest(sql="SELECT nothing FROM no_such_table", simulate=False)
    )
    assert failed.failed

    path = str(tmp_path / "journal.pkl")
    live.journal.save(path)
    recovered = CostIntelligentWarehouse.recover(
        WriteAheadJournal.load(path), catalog=catalog
    )
    for warehouse in (live, recovered):
        broke, typo = warehouse.billing["broke"], warehouse.billing["typo"]
        assert (broke.denies, broke.total_units, broke.queries) == (1, 0, 0)
        assert (typo.admits, typo.total_units, typo.queries) == (1, 0, 0)
        assert warehouse.describe_caches()["admission"] == {
            "broke": {"deny": 1},
            "typo": {"admit": 1},
        }
    assert recovered.ledger.snapshot().bills == live.ledger.snapshot().bills
