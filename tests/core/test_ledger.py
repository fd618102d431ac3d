"""The ledger: one lock over every journal write, one transition
function shared by live commits and crash replay."""

from __future__ import annotations

import pytest

from repro.core.journal import RECORD_TYPES, Checkpoint, WriteAheadJournal
from repro.core.recovery import recover_warehouse
from repro.core.service import QueryRequest
from repro.core.warehouse import CostIntelligentWarehouse
from repro.dop.constraints import sla_constraint
from repro.errors import RecoveryError
from repro.testing import instrument_warehouse
from repro.workloads.tpch_stats import synthetic_tpch_catalog


def test_every_journal_append_happens_under_the_ledger_lock(
    history_warehouse, drive_ledger_history
):
    """Tuning records used to be journaled and folded into
    ``durable_tuning`` bare, while ``checkpoint()`` iterated that dict
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
    assert recovered.ledger.applied_lsn == live.ledger.applied_lsn
    # The history exercised every field: none is at its empty default.
    assert live_state.durable_tuning and live_state.ledger and live_state.verdicts
    assert live_state.cost_history and live_state.next_rec_id > 1


def test_each_record_type_has_exactly_one_apply_handler():
    ledger = CostIntelligentWarehouse(catalog=synthetic_tpch_catalog(1.0)).ledger
    assert set(ledger.handlers) == set(RECORD_TYPES)
    with pytest.raises(RecoveryError, match="no replay handler"):
        ledger.apply(object())


def test_verdict_counts_survive_a_stats_reset_and_a_recovery():
    """``reset_cache_stats()`` zeroes the journaled verdict counters, so
    it checkpoints them; recovery used to replay the decisions the
    reset had forgotten (live ``admit: 2``, recovered ``admit: 5``)."""
    catalog = synthetic_tpch_catalog(1.0)
    journal = WriteAheadJournal()
    live = CostIntelligentWarehouse(
        catalog=catalog, journal=journal, tenant_budgets={"acme": 100.0}
    )
    session = live.session(tenant="acme", constraint=sla_constraint(20.0))

    def serve(indices) -> None:
        for i in indices:
            session.submit(
                QueryRequest(
                    sql=f"SELECT count(*) AS c FROM orders WHERE o_totalprice > {i}",
                    at_time=10.0 * i,
                )
            ).result()

    serve(range(3))
    live.reset_cache_stats()
    serve(range(3, 5))
    assert live.admission.verdict_counts == {"acme": {"admit": 2}}
    recovered = CostIntelligentWarehouse.recover(
        journal, catalog=catalog, tenant_budgets={"acme": 100.0}
    )
    assert recovered.admission.verdict_counts == live.admission.verdict_counts
