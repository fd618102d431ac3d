"""Reclustering tuning actions (paper §4's petabyte-table example).

"Suppose that a user is presented with a tuning suggestion that proposes
to recluster (or repartition) a petabyte-sized table T according to a
different attribute A. Although such a reclustering operation could speed
up queries that use A in the predicates or join columns, the cost of
repopulating a petabyte-sized table is enormous."

This module prices both sides: the one-time repopulation cost (scan +
sort + rewrite of the whole table) and the recurring scan savings from
improved partition pruning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

from repro.catalog.catalog import Catalog
from repro.cost.hardware import HardwareCalibration
from repro.errors import TuningError


@dataclass(frozen=True)
class ReclusterCandidate:
    """Proposal: recluster ``table`` on ``key``."""

    kind: ClassVar[str] = "recluster"

    table: str
    key: str

    @property
    def name(self) -> str:
        return f"recluster_{self.table}_on_{self.key}"


def recluster_one_time_cost(
    candidate: ReclusterCandidate,
    catalog: Catalog,
    hardware: HardwareCalibration | None = None,
    *,
    dop: int = 16,
) -> tuple[float, float]:
    """(machine_seconds, dollars) to repopulate the table sorted on key.

    The rewrite reads every partition, external-sorts by the new key, and
    writes every partition back — scan + sort + write at the calibrated
    rates.  Dollar cost is machine time plus object-store requests; it is
    largely DOP-invariant (more nodes finish faster at the same machine
    time), which is why the report prices it in machine-time dollars.
    """
    hw = hardware or HardwareCalibration()
    entry = catalog.table(candidate.table)
    if not entry.schema.has_column(candidate.key):
        raise TuningError(
            f"table {candidate.table!r} has no column {candidate.key!r}"
        )
    if dop < 1:
        raise TuningError(f"dop must be positive, got {dop}")
    stored_bytes = float(entry.storage_bytes)
    rows = float(entry.row_count)

    scan_s = stored_bytes / hw.scan_bytes_per_node
    per_node_rows = max(2.0, rows / dop)
    log_ref = math.log2(max(2.0, hw.sort_reference_rows))
    sort_rate = hw.node.cores * hw.sort_rows_per_core * log_ref / math.log2(per_node_rows)
    sort_s = rows / (dop * sort_rate) * dop  # machine time, not wall time
    write_s = stored_bytes / hw.store.per_node_bandwidth
    machine_seconds = scan_s + sort_s + write_s

    chunk = 8 * 1024 * 1024
    request_dollars = (
        (stored_bytes / chunk) * hw.store.price_per_get
        + (stored_bytes / chunk) * hw.store.price_per_put
    )
    dollars = machine_seconds * hw.node.price_per_second + request_dollars
    return machine_seconds, dollars


def improved_depth(catalog: Catalog, table: str) -> float:
    """Clustering depth after a fresh recluster (near-perfect layout)."""
    entry = catalog.table(table)
    return min(1.0, max(2.0 / max(1, entry.num_partitions), 0.001))


def apply_hypothetical_recluster(
    overlay: Catalog, candidate: ReclusterCandidate
) -> None:
    """Mark the table clustered on the new key in a what-if overlay."""
    overlay.set_clustering(
        candidate.table, candidate.key, improved_depth(overlay, candidate.table)
    )
