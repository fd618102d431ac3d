"""Billing meter: turns node leases into an auditable cost breakdown.

The meter records every lease interval (node id, spec, start, end) as the
simulation runs and reports user-observable cost (UOC) with the paper's
semantics: a node is billed for its entire lease, including time spent
blocked waiting for upstream pipelines (§3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compute.node import NodeSpec
from repro.compute.pricing import PriceModel
from repro.errors import ComputeError


@dataclass
class LeaseRecord:
    """One node's lease interval; ``end`` is None while the lease is open."""

    node_id: int
    spec: NodeSpec
    start: float
    end: float | None = None
    label: str = ""

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ComputeError(f"lease for node {self.node_id} still open")
        return self.end - self.start


@dataclass
class CostBreakdown:
    """Aggregated cost report for a query or a workload window."""

    compute_dollars: float = 0.0
    storage_dollars: float = 0.0
    request_dollars: float = 0.0
    machine_seconds: float = 0.0
    billed_machine_seconds: float = 0.0
    num_leases: int = 0

    @property
    def total_dollars(self) -> float:
        return self.compute_dollars + self.storage_dollars + self.request_dollars

    def add(self, other: "CostBreakdown") -> None:
        self.compute_dollars += other.compute_dollars
        self.storage_dollars += other.storage_dollars
        self.request_dollars += other.request_dollars
        self.machine_seconds += other.machine_seconds
        self.billed_machine_seconds += other.billed_machine_seconds
        self.num_leases += other.num_leases


class BillingMeter:
    """Tracks open/closed leases and prices them with a :class:`PriceModel`."""

    def __init__(self, price_model: PriceModel | None = None) -> None:
        self.price_model = price_model or PriceModel()
        self._open: dict[int, LeaseRecord] = {}
        self._closed: list[LeaseRecord] = []
        self._next_id = 0

    def open_lease(self, spec: NodeSpec, now: float, label: str = "") -> int:
        """Start billing a node; returns the lease id."""
        if now < 0:
            raise ComputeError(f"negative lease start time {now}")
        lease_id = self._next_id
        self._next_id += 1
        self._open[lease_id] = LeaseRecord(
            node_id=lease_id, spec=spec, start=now, label=label
        )
        return lease_id

    def close_lease(self, lease_id: int, now: float) -> None:
        record = self._open.pop(lease_id, None)
        if record is None:
            raise ComputeError(f"no open lease with id {lease_id}")
        if now < record.start:
            raise ComputeError(
                f"lease {lease_id} closed at {now} before start {record.start}"
            )
        record.end = now
        self._closed.append(record)

    def close_all(self, now: float) -> None:
        for lease_id in list(self._open):
            self.close_lease(lease_id, now)

    @property
    def leases(self) -> list[LeaseRecord]:
        return list(self._closed)

    def breakdown(self, *, now: float | None = None) -> CostBreakdown:
        """Price all leases; open leases are priced up to ``now`` if given."""
        report = CostBreakdown()
        records = list(self._closed)
        if now is not None:
            records.extend(
                LeaseRecord(r.node_id, r.spec, r.start, now, r.label)
                for r in self._open.values()
            )
        elif self._open:
            raise ComputeError(
                f"{len(self._open)} leases still open; pass now= to price them"
            )
        for record in records:
            duration = record.duration
            report.machine_seconds += duration
            report.billed_machine_seconds += self.price_model.billed_seconds(duration)
            report.compute_dollars += self.price_model.lease_dollars(
                record.spec, duration
            )
            report.num_leases += 1
        return report
