"""Virtual-time scheduled cost collection.

:class:`SnapshotCollector` is to the cost history what
:class:`~repro.tuning.service.TuningService` is to auto-tuning: the
serving layer pings ``warehouse._between_batches()`` after every
submit/batch, and a snapshot is taken when the configured
:class:`CollectionPolicy` cadence has elapsed — counted in **queries**
(the log's newest query id, an O(1) check) or **virtual seconds** (the
warehouse clock; never wall time, so identical seeded runs collect at
identical instants and the history is bitwise reproducible).

Collection is crash-consistent by the same write-ahead discipline as
serving: under the ledger lock the collector adds the per-operator
cost leaves of the records logged since the newest snapshot to that
snapshot's cumulative drill-down leaves (keyed by template, pipeline
and operator shape, so instances of a template that differ only in
their literals add to the same leaf rather than a new one), builds one :class:`~repro.obsvc.history.TenantCostSlice`
per billed tenant (ledger units copied from the authoritative
:class:`~repro.core.ledger.TenantBill`) and commits the
:class:`~repro.obsvc.history.CostSnapshot` through
:meth:`~repro.core.ledger.Ledger.commit` like every other transition:
the ``CostSnapshotTaken`` record carrying it is journaled **before** the
in-memory :class:`~repro.obsvc.history.CostHistoryStore` append.  A
crash between the two is healed on replay.  The collector keeps no
state of its own: the cadence and the fold both stand on the newest
snapshot in the history (its ``log_len`` query id, ``clock`` and
leaves), so a recovered warehouse resumes the schedule, and the
cumulative leaves, exactly where the restored history left off.

The query log keeps only a window of its newest records.  An enabled
collector snapshots before an append would drop a record it has not
folded (:meth:`SnapshotCollector.before_append`); the records the log
dropped while no collector was folding are summed on each tenant's
bill (``TenantBill.unfolded_units``), closed over by one
:data:`DROPPED_LEAF`, so every snapshot reconciles against the bills.

The collector is configured post-construction
(``warehouse.enable_collection(...)``) — the warehouse constructor's
keyword surface stays frozen.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.journal import CostSnapshotTaken
from repro.errors import ReproError
from repro.obsvc.history import (
    BACKGROUND_LEAF,
    DROPPED_LEAF,
    RETRY_LEAF,
    CostLeaf,
    CostSnapshot,
    TenantCostSlice,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.warehouse import CostIntelligentWarehouse

__all__ = [
    "CollectionError",
    "CollectionPolicy",
    "SnapshotCollector",
]


class CollectionError(ReproError):
    """Invalid collection configuration."""


@dataclass(frozen=True)
class CollectionPolicy:
    """When the serving layer should snapshot the fleet's spend.

    Mirrors :class:`~repro.tuning.service.TuningPolicy`'s cadence
    contract: a snapshot is due when either ``cadence_queries`` new
    queries have been logged or ``cadence_seconds`` of *virtual* time
    has passed since the last snapshot.
    """

    cadence_queries: "int | None" = None
    cadence_seconds: "float | None" = None

    def __post_init__(self) -> None:
        if self.cadence_queries is not None and self.cadence_queries < 1:
            raise CollectionError(
                f"cadence_queries must be >= 1, got {self.cadence_queries}"
            )
        if self.cadence_seconds is not None and self.cadence_seconds <= 0:
            raise CollectionError(
                f"cadence_seconds must be positive, got {self.cadence_seconds}"
            )

    @property
    def recurring(self) -> bool:
        return self.cadence_queries is not None or self.cadence_seconds is not None


class SnapshotCollector:
    """Folds logged cost leaves and appends scheduled snapshots."""

    def __init__(self, warehouse: "CostIntelligentWarehouse") -> None:
        self.warehouse = warehouse
        self.policy: "CollectionPolicy | None" = None
        self._lock = threading.Lock()

    # -- configuration --------------------------------------------------- #
    def configure(self, policy: "CollectionPolicy | None") -> None:
        """Install (or clear, with ``None``) the collection schedule."""
        with self._lock:
            self.policy = policy

    @property
    def enabled(self) -> bool:
        policy = self.policy
        return policy is not None and policy.recurring

    # -- scheduling ------------------------------------------------------- #
    def due(self) -> bool:
        """Whether the cadence has elapsed since the newest snapshot in
        the cost history.  Before the first snapshot a query cadence
        counts from an empty log and a time cadence is due at once."""
        policy = self.policy
        if policy is None or not policy.recurring:
            return False
        warehouse = self.warehouse
        latest = warehouse.cost_history.latest()
        if policy.cadence_queries is not None:
            collected = latest.log_len if latest is not None else 0
            if warehouse.logs.last_query_id - collected >= policy.cadence_queries:
                return True
        return policy.cadence_seconds is not None and (
            latest is None
            or warehouse.clock - latest.clock >= policy.cadence_seconds
        )

    def maybe_collect(self) -> "CostSnapshot | None":
        """Take a snapshot if the cadence has elapsed (serving calls
        this after every submit/batch)."""
        with self.warehouse.ledger.lock:
            return self._collect_locked() if self.due() else None

    def collect_now(self) -> CostSnapshot:
        """Take one snapshot immediately, cadence notwithstanding."""
        with self.warehouse.ledger.lock:
            return self._collect_locked()

    def before_append(self) -> None:
        """Snapshot now if the next log append would drop a record no
        snapshot has folded while this collector is enabled (serving
        calls this under the ledger lock before each append).  The
        snapshot is journaled ahead of the record, so replay drops the
        same records the live log did."""
        policy = self.policy
        if policy is None or not policy.recurring:
            return
        warehouse = self.warehouse
        if warehouse.logs.next_drop_id() > warehouse.cost_history.folded_through:
            self._collect_locked()

    # -- snapshotting ----------------------------------------------------- #
    def _collect_locked(self) -> CostSnapshot:
        warehouse = self.warehouse
        folded = self._fold_locked()
        slices = tuple(
            self._slice_for(bill, folded.get(tenant, {}))
            for tenant, bill in sorted(warehouse.billing.items())
        )
        snapshot = CostSnapshot(
            seq=warehouse.cost_history.next_seq(),
            clock=warehouse.clock,
            log_len=warehouse.logs.last_query_id,
            tenants=slices,
        )
        warehouse.ledger.commit(CostSnapshotTaken(snapshot))
        return snapshot

    def _fold_locked(self) -> dict[str, dict[tuple[str, str, str], CostLeaf]]:
        """The cumulative drill-down aggregation, per tenant by
        ``(template, pipeline, operator shape)``: the newest snapshot's
        leaves plus the cost leaves of every record logged after it
        (records carry their own apportioned leaves, labels interned).  A :class:`CostLeaf` is
        rebuilt only when its units change, so a snapshot shares the
        unchanged ones with the one before it."""
        warehouse = self.warehouse
        latest = warehouse.cost_history.latest()
        folded: dict[str, dict[tuple[str, str, str], CostLeaf]] = {}
        for entry in latest.tenants if latest is not None else ():
            folded[entry.tenant] = {
                (leaf.template, leaf.pipeline, leaf.operator): leaf
                for leaf in entry.leaves
                if leaf.template not in (DROPPED_LEAF, RETRY_LEAF, BACKGROUND_LEAF)
            }
        through = latest.log_len if latest is not None else 0
        for record in warehouse.logs.after(through):
            cache = folded.setdefault(record.tenant, {})
            for pipeline, operator, units in record.cost_breakdown:
                key = (record.template or "(adhoc)", pipeline, operator)
                prior = cache.get(key)
                if prior is not None:
                    units += prior.units
                cache[key] = CostLeaf(key[0], key[1], key[2], units)
        return folded

    def _slice_for(self, bill, folded: dict) -> TenantCostSlice:
        leaves = [folded[key] for key in sorted(folded)]
        if bill.unfolded_units:
            leaves.append(
                CostLeaf(DROPPED_LEAF, DROPPED_LEAF, DROPPED_LEAF, bill.unfolded_units)
            )
        if bill.retry_units:
            leaves.append(
                CostLeaf(RETRY_LEAF, RETRY_LEAF, RETRY_LEAF, bill.retry_units)
            )
        if bill.background_units:
            leaves.append(
                CostLeaf(
                    BACKGROUND_LEAF,
                    BACKGROUND_LEAF,
                    BACKGROUND_LEAF,
                    bill.background_units,
                )
            )
        return TenantCostSlice(
            tenant=bill.tenant,
            queries=bill.queries,
            machine_seconds=bill.machine_seconds,
            serving_units=bill.serving_units,
            background_units=bill.background_units,
            background_actions=bill.background_actions,
            retry_units=bill.retry_units,
            retries=bill.retries,
            leaves=tuple(leaves),
        )
