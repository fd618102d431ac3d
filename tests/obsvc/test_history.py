"""Unit tests for the cost-history store and its immutable snapshots."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.obsvc.history import (
    BACKGROUND_LEAF,
    RETRY_LEAF,
    CostHistoryStore,
    CostLeaf,
    CostSnapshot,
    TenantCostSlice,
)
from repro.util.units import from_ledger_units, to_ledger_units


def make_slice(tenant: str = "acme", units: int = 1000) -> TenantCostSlice:
    leaves = (
        CostLeaf("q5ish", "P0", "Scan[source_scan]", units - 300),
        CostLeaf("q5ish", "P1", "Aggregate[source_state]", 200),
        CostLeaf(RETRY_LEAF, RETRY_LEAF, RETRY_LEAF, 60),
        CostLeaf(BACKGROUND_LEAF, BACKGROUND_LEAF, BACKGROUND_LEAF, 40),
    )
    return TenantCostSlice(
        tenant=tenant,
        queries=3,
        machine_seconds=4.5,
        serving_units=units - 100,
        background_units=40,
        background_actions=1,
        retry_units=60,
        retries=2,
        leaves=leaves,
    )


def make_snapshot(seq: int = 1, clock: float = 30.0) -> CostSnapshot:
    return CostSnapshot(
        seq=seq,
        clock=clock,
        log_len=3,
        tenants=(make_slice("acme"), make_slice("bolt", units=500)),
    )


def test_slice_units_invariants():
    entry = make_slice()
    assert entry.total_units == (
        entry.serving_units + entry.background_units + entry.retry_units
    )
    assert entry.leaf_units == sum(leaf.units for leaf in entry.leaves)
    assert entry.leaf_units == entry.total_units
    assert entry.total_dollars == from_ledger_units(entry.total_units)


def test_leaf_dollars_round_trip():
    units = to_ledger_units(0.000123456789)
    leaf = CostLeaf("t", "P0", "Scan", units)
    assert leaf.dollars == 0.000123456789


def test_rows_round_trip_bitwise():
    """The snapshot itself is the serialized form: pickling it is the
    only round trip, and it is safe to share between the store, the
    journal record and every checkpoint because nothing in it mutates."""
    snapshot = make_snapshot()
    assert pickle.loads(pickle.dumps(snapshot)) == snapshot
    leaf = snapshot.tenants[0].leaves[0]
    for obj in (snapshot, snapshot.tenants[0], leaf):
        field = dataclasses.fields(obj)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, getattr(obj, field))
    assert type(snapshot.tenants) is tuple
    assert all(type(entry.leaves) is tuple for entry in snapshot.tenants)


def test_append_is_idempotent_by_seq():
    store = CostHistoryStore()
    first = make_snapshot(seq=1)
    assert store.append(first)
    assert not store.append(first)  # replayed duplicate
    assert not store.append(make_snapshot(seq=1, clock=99.0))
    assert store.append(make_snapshot(seq=2, clock=60.0))
    assert len(store) == 2
    assert store.latest().seq == 2
    assert store.next_seq() == 3


def test_queries_over_the_store():
    store = CostHistoryStore()
    store.append(make_snapshot(seq=1, clock=30.0))
    store.append(make_snapshot(seq=2, clock=60.0))
    assert store.tenants() == ("acme", "bolt")
    series = store.series("bolt")
    assert [clock for clock, _ in series] == [30.0, 60.0]
    assert all(units == 500 for _, units in series)
    assert store.series("nobody") == ()
    assert len(store.snapshots(tenant="acme")) == 2


def test_state_round_trip_bitwise():
    store = CostHistoryStore()
    store.append(make_snapshot(seq=1))
    store.append(make_snapshot(seq=2, clock=60.0))
    clone = CostHistoryStore()
    clone.restore(store.snapshots())
    assert clone.snapshots() == store.snapshots()
    assert clone.append(make_snapshot(seq=3, clock=90.0))
    assert len(store) == 2  # the restored store owns its own list


def test_pickle_round_trip_bitwise():
    store = CostHistoryStore()
    store.append(make_snapshot(seq=1))
    clone = pickle.loads(pickle.dumps(store))
    assert clone.snapshots() == store.snapshots()
    # the restored store keeps working (fresh internal lock)
    assert clone.append(make_snapshot(seq=2, clock=60.0))
