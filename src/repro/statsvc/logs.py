"""Query execution logs: the Statistics Service's ground truth.

"For each database instance, the Statistics Service collects the query
execution logs from all the tenants to form the 'ground truth' for
understanding workload behaviors."
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.errors import ReproError


@dataclass(frozen=True)
class QueryRecord:
    """One executed query's log entry."""

    query_id: int
    timestamp: float
    sql: str
    template: str  # template family name, or "adhoc"
    tables: tuple[str, ...]
    columns: tuple[str, ...]  # qualified "table.column" names accessed
    join_edges: tuple[tuple[str, str], ...]  # ("t.col", "t.col") pairs
    group_keys: tuple[str, ...] = ()
    filter_columns: tuple[str, ...] = ()
    aggregate_sqls: tuple[str, ...] = ()
    latency_s: float = 0.0
    machine_seconds: float = 0.0
    dollars: float = 0.0
    bytes_scanned: float = 0.0
    sla_seconds: float | None = None
    tenant: str = "default"
    #: Exact drill-down apportionment of this query's spend:
    #: ``(pipeline, operator, ledger_units)`` triples whose integral
    #: units sum bitwise to ``to_ledger_units(dollars)`` (largest
    #: remainder, computed once at serving time).  Trailing default
    #: keeps pre-observability checkpoints loadable.
    cost_breakdown: tuple = ()

    @property
    def sla_met(self) -> bool | None:
        if self.sla_seconds is None:
            return None
        return self.latency_s <= self.sla_seconds


class LogView:
    """The log read API, derived from ``__iter__`` (records in append
    order).  Usable as-is over any re-iterable run of records — the
    governance layer forecasts over ``LogView(logs.tail(n))``."""

    def __init__(self, records: Iterable[QueryRecord] = ()) -> None:
        self._records = records

    def __iter__(self) -> Iterator[QueryRecord]:
        return iter(self._records)

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def by_template(self) -> dict[str, list[QueryRecord]]:
        grouped: dict[str, list[QueryRecord]] = {}
        for record in self:
            grouped.setdefault(record.template, []).append(record)
        return grouped

    def tenant_counts(
        self, templates: Iterable[str] | None = None
    ) -> dict[str, int]:
        """Logged-query counts per tenant, optionally restricted to the
        given template families.

        The tuning layer uses this to attribute background-compute spend
        to the tenants whose traffic motivated an action.
        """
        wanted = set(templates) if templates is not None else None
        counts: dict[str, int] = {}
        for record in self:
            if wanted is not None and record.template not in wanted:
                continue
            counts[record.tenant] = counts.get(record.tenant, 0) + 1
        return counts

    def template_counts(self) -> dict[str, int]:
        """Logged-query counts per template family.

        The raw-arrival complement of the forecaster's rates: cache
        warming uses it to break ranking ties when the forecast has not
        seen a family yet.
        """
        counts: dict[str, int] = {}
        for record in self:
            counts[record.template] = counts.get(record.template, 0) + 1
        return counts

    @property
    def total_dollars(self) -> float:
        return sum(r.dollars for r in self)

    @property
    def horizon(self) -> tuple[float, float]:
        """(first, last) record timestamps; (0, 0) when empty."""
        timestamps = [r.timestamp for r in self]
        if not timestamps:
            return (0.0, 0.0)
        return (timestamps[0], timestamps[-1])


class QueryLogStore(LogView):
    """Append-only in-memory log with time-window queries."""

    def __init__(self) -> None:
        super().__init__([])
        self._ids = itertools.count(1)

    def next_query_id(self) -> int:
        return next(self._ids)

    def append(self, record: QueryRecord) -> None:
        if self._records and record.timestamp < self._records[-1].timestamp:
            raise ReproError(
                "log records must be appended in timestamp order "
                f"({record.timestamp} < {self._records[-1].timestamp})"
            )
        self._records.append(record)

    @property
    def last_query_id(self) -> int:
        """The id of the newest record (0 when empty)."""
        return self._records[-1].query_id if self._records else 0

    def restore(self, records: Iterable[QueryRecord]) -> None:
        """Replace the log wholesale from a recovery checkpoint.

        Crash-recovery only (:mod:`repro.core.recovery`): the records
        come from a checkpoint of this same store, so append order and
        id assignment are already consistent.  Re-seeds the id counter
        so post-recovery serving continues gap-free.
        """
        self._records = list(records)
        self.restore_ids()

    def restore_ids(self) -> None:
        """Re-seed the query-id counter to follow the newest record —
        ids stay sequential and gap-free across a crash (an id handed
        out by the dead process for a never-journaled record is simply
        re-issued)."""
        self._ids = itertools.count(self.last_query_id + 1)

    def __len__(self) -> int:
        return len(self._records)

    def window(self, start: float, end: float) -> list[QueryRecord]:
        """Records with ``start <= timestamp < end``."""
        return [r for r in self._records if start <= r.timestamp < end]

    def tail(self, count: int) -> list[QueryRecord]:
        """The most recent ``count`` records (all of them when fewer).

        O(count), not O(log): consumers that recompute over recent
        behavior on a serving path (e.g. the governance layer's forecast
        refresh) must not scale with total history.
        """
        if count < 1:
            return []
        return self._records[-count:]

    def since(self, start: int) -> list[QueryRecord]:
        """Records from append index ``start`` onward (O(result), not
        O(log)) — lets the cost collector fold incrementally."""
        return self._records[start:]

    @property
    def horizon(self) -> tuple[float, float]:
        """(first, last) record timestamps; (0, 0) when empty."""
        if not self._records:
            return (0.0, 0.0)
        return (self._records[0].timestamp, self._records[-1].timestamp)

    def for_tenant(self, tenant: str) -> "TenantLogView":
        """An isolated, read-only view of this store for one tenant."""
        return TenantLogView(self, tenant)


class TenantLogView(LogView):
    """Read-only per-tenant projection of a shared :class:`QueryLogStore`.

    The Statistics Service keeps one ground-truth log per warehouse
    ("collects the query execution logs from all the tenants"); each
    :class:`~repro.core.service.Session` sees only its tenant's records
    through this view, so per-tenant analysis (forecasting, accounting)
    runs unchanged over a slice.
    """

    def __init__(self, store: QueryLogStore, tenant: str) -> None:
        self._store = store
        self.tenant = tenant

    def __iter__(self) -> Iterator[QueryRecord]:
        return (r for r in self._store if r.tenant == self.tenant)

    def window(self, start: float, end: float) -> list[QueryRecord]:
        """This tenant's records with ``start <= timestamp < end``."""
        return [r for r in self._store.window(start, end) if r.tenant == self.tenant]
