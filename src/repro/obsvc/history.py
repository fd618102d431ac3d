"""Queryable, picklable time series of per-tenant cost snapshots.

A :class:`CostSnapshot` is one scheduled observation of the fleet's
spend: the virtual clock, the newest logged query id, and one
:class:`TenantCostSlice` per billed tenant.  Each slice carries the
tenant's authoritative ledger-unit totals (serving / background /
retry, copied bit-for-bit from :class:`~repro.core.ledger.TenantBill`)
plus the **drill-down leaves**: ``(template, pipeline, operator)``
triples whose integral ledger units sum *exactly* to the slice total —
the per-record largest-remainder apportionment in the warehouse
guarantees there is never a stray unit.  The operator is the plan
node's literal-free shape and role
(:meth:`~repro.plan.physical.PhysNode.shape`), so a tenant's leaves are
bounded by its templates' plan shapes, not by the literals it served.

The :class:`CostHistoryStore` participates in crash consistency the
same way the query log does: every snapshot is journaled write-ahead
(``CostSnapshotTaken``) before the in-memory append, the snapshots so
far ride inside ``CheckpointState``, and replay re-appends idempotently
by sequence number.  The three classes are frozen and hold only ints,
floats, strings and tuples of each other, so a snapshot has one
representation: the journal record, every checkpoint and the store
reference the same object, and pickling it is the only serialization.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.util.units import from_ledger_units

__all__ = [
    "CostHistoryStore",
    "CostLeaf",
    "CostSnapshot",
    "TenantCostSlice",
]

#: Synthetic leaf labels closing the reconciliation over spend with no
#: pipeline/operator decomposition: retries, background tuning, and
#: served queries the log's window dropped before a snapshot folded them.
RETRY_LEAF = "(retries)"
BACKGROUND_LEAF = "(background)"
DROPPED_LEAF = "(dropped from the log)"


@dataclass(frozen=True)
class CostLeaf:
    """One drill-down leaf: integral ledger units attributed to an
    operator of a pipeline of a template family."""

    template: str
    pipeline: str
    operator: str
    units: int

    @property
    def dollars(self) -> float:
        return from_ledger_units(self.units)


@dataclass(frozen=True)
class TenantCostSlice:
    """One tenant's position in one snapshot, in ledger units."""

    tenant: str
    queries: int
    machine_seconds: float
    serving_units: int
    background_units: int
    background_actions: int
    retry_units: int
    retries: int
    leaves: tuple[CostLeaf, ...]

    @property
    def total_units(self) -> int:
        return self.serving_units + self.background_units + self.retry_units

    @property
    def total_dollars(self) -> float:
        return from_ledger_units(self.total_units)

    @property
    def leaf_units(self) -> int:
        """Sum of all drill-down leaves — bitwise equal to
        :attr:`total_units` by construction (asserted after every step
        of the generated chaos histories)."""
        return sum(leaf.units for leaf in self.leaves)


@dataclass(frozen=True)
class CostSnapshot:
    """One scheduled observation: virtual time + per-tenant slices."""

    seq: int
    clock: float
    #: The newest query id logged (ids are gap-free from 1, so also the
    #: number of queries logged): the leaves fold every record through it.
    log_len: int
    tenants: tuple[TenantCostSlice, ...]

    def slice_for(self, tenant: str) -> "TenantCostSlice | None":
        for entry in self.tenants:
            if entry.tenant == tenant:
                return entry
        return None

    @property
    def total_units(self) -> int:
        return sum(entry.total_units for entry in self.tenants)


class CostHistoryStore:
    """Append-only, seq-ordered store of collected cost snapshots.

    Appends are idempotent by ``seq`` (journal replay may revisit a
    record the checkpoint already restored); reads return immutable
    snapshots, which is what ``CheckpointState`` carries and
    :meth:`restore` takes back.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._snapshots: list[CostSnapshot] = []

    def __len__(self) -> int:
        with self._lock:
            return len(self._snapshots)

    def __iter__(self):
        return iter(self.snapshots())

    # -- writes ----------------------------------------------------------- #
    def append(self, snapshot: CostSnapshot) -> bool:
        """Append one snapshot; ``False`` when ``seq`` was already seen."""
        with self._lock:
            if self._snapshots and snapshot.seq <= self._snapshots[-1].seq:
                return False
            self._snapshots.append(snapshot)
            return True

    def apply_record(self, record) -> bool:
        """Idempotently append a ``CostSnapshotTaken`` record's snapshot
        (live and on replay)."""
        return self.append(record.snapshot)

    def restore(self, snapshots: tuple[CostSnapshot, ...]) -> None:
        """Replace the store's contents with a checkpoint's snapshots."""
        with self._lock:
            self._snapshots = list(snapshots)

    # -- reads ------------------------------------------------------------ #
    def snapshots(self, tenant: "str | None" = None) -> tuple[CostSnapshot, ...]:
        with self._lock:
            entries = tuple(self._snapshots)
        if tenant is None:
            return entries
        return tuple(s for s in entries if s.slice_for(tenant) is not None)

    def latest(self) -> "CostSnapshot | None":
        with self._lock:
            return self._snapshots[-1] if self._snapshots else None

    @property
    def folded_through(self) -> int:
        """The newest snapshot's ``log_len`` (0 when empty): every query
        id through it is folded into a snapshot's leaves.  Lock-free —
        the ledger reads it on every served query, under its own lock,
        which every append holds."""
        snapshots = self._snapshots
        return snapshots[-1].log_len if snapshots else 0

    def next_seq(self) -> int:
        with self._lock:
            return self._snapshots[-1].seq + 1 if self._snapshots else 1

    def series(self, tenant: str) -> tuple[tuple[float, int], ...]:
        """``(clock, total ledger units)`` series for one tenant."""
        points = []
        for snapshot in self.snapshots():
            entry = snapshot.slice_for(tenant)
            if entry is not None:
                points.append((snapshot.clock, entry.total_units))
        return tuple(points)

    def tenants(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for snapshot in self.snapshots():
            for entry in snapshot.tenants:
                seen.setdefault(entry.tenant, None)
        return tuple(sorted(seen))

    # -- pickling (the lock is process-local) ------------------------------ #
    def __getstate__(self) -> dict:
        return {"snapshots": self.snapshots()}

    def __setstate__(self, state: dict) -> None:
        self._lock = threading.Lock()
        self.restore(state["snapshots"])
