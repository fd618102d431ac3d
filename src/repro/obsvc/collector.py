"""Virtual-time scheduled cost collection.

:class:`SnapshotCollector` is to the cost history what
:class:`~repro.tuning.service.TuningService` is to auto-tuning: the
serving layer pings ``warehouse._between_batches()`` after every
submit/batch, and a snapshot is taken when the configured
:class:`CollectionPolicy` cadence has elapsed — counted in **queries**
(log length, an O(1) check) or **virtual seconds** (the warehouse
clock; never wall time, so identical seeded runs collect at identical
instants and the history is bitwise reproducible).

Collection is crash-consistent by the same write-ahead discipline as
serving: under the ledger lock the collector folds the newly logged
records' per-operator cost leaves into its cumulative drill-down
aggregation, builds one :class:`~repro.obsvc.history.TenantCostSlice`
per billed tenant (ledger units copied from the authoritative
:class:`~repro.core.ledger.TenantBill`) and commits the
:class:`~repro.obsvc.history.CostSnapshot` through
:meth:`~repro.core.ledger.Ledger.commit` like every other transition:
the ``CostSnapshotTaken`` record carrying it is journaled **before** the
in-memory :class:`~repro.obsvc.history.CostHistoryStore` append.  A
crash between the two is healed on replay.  The cadence has no
watermarks of its own: it is measured from the newest snapshot in the
history (its ``log_len`` and ``clock``), so a recovered warehouse
resumes the schedule exactly where the restored history left off.

The collector is configured post-construction
(``warehouse.enable_collection(...)``) — the warehouse constructor's
keyword surface stays frozen.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.journal import CostSnapshotTaken
from repro.errors import ReproError
from repro.obsvc.history import (
    BACKGROUND_LEAF,
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
    log records have landed or ``cadence_seconds`` of *virtual* time
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
        #: Index into the query log up to which leaves are folded.
        self._folded = 0
        #: tenant -> (template, pipeline, operator) -> the leaf holding
        #: its cumulative ledger units.  A :class:`CostLeaf` is rebuilt
        #: only when its units change, and keys keep sorted order
        #: incrementally — so a snapshot reuses unchanged leaf objects
        #: instead of re-sorting and re-materializing the whole
        #: cumulative aggregation every cadence tick.
        self._leaf_cache: dict[str, dict[tuple[str, str, str], CostLeaf]] = {}
        self._sorted_keys: dict[str, list[tuple[str, str, str]]] = {}

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
            if len(warehouse.logs) - collected >= policy.cadence_queries:
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

    # -- snapshotting ----------------------------------------------------- #
    def _collect_locked(self) -> CostSnapshot:
        warehouse = self.warehouse
        self._fold_locked()
        slices = tuple(
            self._slice_for(tenant, bill)
            for tenant, bill in sorted(warehouse.billing.items())
        )
        snapshot = CostSnapshot(
            seq=warehouse.cost_history.next_seq(),
            clock=warehouse.clock,
            log_len=len(warehouse.logs),
            tenants=slices,
        )
        warehouse.ledger.commit(CostSnapshotTaken(snapshot))
        warehouse.metrics.counter("repro_cost_snapshots_total")
        return snapshot

    def _fold_locked(self) -> None:
        """Fold newly logged records' cost leaves into the cumulative
        per-tenant drill-down aggregation (resumable from any index:
        records carry their own apportioned leaves)."""
        records = self.warehouse.logs.since(self._folded)
        self._folded += len(records)
        for record in records:
            tenant = record.tenant
            cache = self._leaf_cache.setdefault(tenant, {})
            ordered = self._sorted_keys.setdefault(tenant, [])
            for pipeline, operator, units in record.cost_breakdown:
                key = (record.template or "(adhoc)", pipeline, operator)
                prior = cache.get(key)
                if prior is None:
                    bisect.insort(ordered, key)
                else:
                    units += prior.units
                cache[key] = CostLeaf(key[0], key[1], key[2], units)

    def _slice_for(self, tenant: str, bill) -> TenantCostSlice:
        cache = self._leaf_cache.get(tenant, {})
        leaves = [cache[key] for key in self._sorted_keys.get(tenant, ())]
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
            tenant=tenant,
            queries=bill.queries,
            machine_seconds=bill.machine_seconds,
            serving_units=bill.serving_units,
            background_units=bill.background_units,
            background_actions=bill.background_actions,
            retry_units=bill.retry_units,
            retries=bill.retries,
            leaves=tuple(leaves),
        )
