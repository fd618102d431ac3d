"""Query execution logs: the Statistics Service's ground truth.

"For each database instance, the Statistics Service collects the query
execution logs from all the tenants to form the 'ground truth' for
understanding workload behaviors."

What the service derives from them needs recent history and per-family
roll-ups, not every record, so :class:`QueryLogStore` keeps the newest
:data:`WINDOW_RECORDS` records and exact roll-ups of all of them.  The
store keeps no counter beside its records: the next query id is the
newest record's id + 1.  The serving layer takes an id and appends its
record inside one ledger-lock hold, so ids stay sequential and gap-free,
and a recovered log continues them with nothing re-seeded.  The store
keeps no account of what its window drops either: an append returns
the dropped record, and the ledger counts it on the tenant's bill when
no cost snapshot has folded it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import ReproError

#: How many of the newest records the log keeps: the window forecasts,
#: summaries and the tuning advisor read.
WINDOW_RECORDS = 2048


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
    #: remainder, computed once at serving time).  The operator is its
    #: literal-free shape and role (``Scan(lineitem)[source_scan]``),
    #: interned, so every instance of a template names the same labels.
    cost_breakdown: tuple = ()

    @property
    def sla_met(self) -> bool | None:
        if self.sla_seconds is None:
            return None
        return self.latency_s <= self.sla_seconds


@dataclass(frozen=True)
class LogRollups:
    """A :class:`QueryLogStore`'s roll-ups as ``dict.items()`` tuples
    (what a checkpoint carries of the log)."""

    template_counts: tuple[tuple[str, int], ...]
    #: ``((template, tenant), count)`` pairs.
    tenant_counts: tuple[tuple[tuple[str, str], int], ...]
    newest_sql: tuple[tuple[str, str], ...]


class LogView:
    """The log read API, derived from ``__iter__`` (records in append
    order).  Usable as-is over any re-iterable run of records: the
    governance layer forecasts over ``LogView(logs.tail(n))``, and a
    plain list read through it is an unbounded analysis log."""

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
    """The newest :data:`WINDOW_RECORDS` records, plus exact roll-ups of
    every record ever appended.

    Iteration, :meth:`tail`, :meth:`window` and :attr:`horizon` read the
    window (forecasts and summaries need recent history, not all of it);
    :meth:`template_counts`, :meth:`tenant_counts` and :meth:`newest_sql`
    read the roll-ups, which an append updates in O(1).  :meth:`append`
    returns the record it drops from the window, so the ledger can
    count a record no cost snapshot folded on its tenant's bill.
    ``len()`` is the window's length; the number of records ever logged
    is :attr:`last_query_id`.
    """

    def __init__(self) -> None:
        super().__init__(deque())
        self._template_counts: dict[str, int] = {}
        self._tenant_counts: dict[tuple[str, str], int] = {}
        self._newest_sql: dict[str, str] = {}

    def __iter__(self) -> Iterator[QueryRecord]:
        # A copy: a reader on another thread never sees the window move.
        return iter(tuple(self._records))

    def next_query_id(self) -> int:
        """The id the next appended record takes (ids start at 1)."""
        return self.last_query_id + 1

    def append(self, record: QueryRecord) -> "QueryRecord | None":
        """Log ``record``; when the window is full, drop its oldest
        record and return it (``None`` when nothing drops)."""
        records = self._records
        if records and record.timestamp < records[-1].timestamp:
            raise ReproError(
                "log records must be appended in timestamp order "
                f"({record.timestamp} < {records[-1].timestamp})"
            )
        records.append(record)
        template, tenant = record.template, record.tenant
        counts = self._template_counts
        counts[template] = counts.get(template, 0) + 1
        key = (template, tenant)
        counts = self._tenant_counts
        counts[key] = counts.get(key, 0) + 1
        self._newest_sql[template] = record.sql
        if len(records) > WINDOW_RECORDS:
            return records.popleft()
        return None

    @property
    def last_query_id(self) -> int:
        """The id of the newest record (0 when empty): ids are gap-free
        from 1, so this is also the number of records ever logged."""
        return self._records[-1].query_id if self._records else 0

    @property
    def first_query_id(self) -> int:
        """The id of the window's oldest record (0 when empty)."""
        return self._records[0].query_id if self._records else 0

    @property
    def newest(self) -> "QueryRecord | None":
        """The newest record (``None`` when empty)."""
        return self._records[-1] if self._records else None

    def next_drop_id(self) -> int:
        """The id of the record the next append drops (0 when none)."""
        records = self._records
        return records[0].query_id if len(records) >= WINDOW_RECORDS else 0

    # -- roll-ups -------------------------------------------------------- #
    def template_counts(self) -> dict[str, int]:
        """Logged-query counts per template family, over every record."""
        return dict(self._template_counts)

    def tenant_counts(
        self, templates: Iterable[str] | None = None
    ) -> dict[str, int]:
        """Logged-query counts per tenant over every record, optionally
        restricted to the given template families."""
        wanted = set(templates) if templates is not None else None
        counts: dict[str, int] = {}
        for (template, tenant), count in self._tenant_counts.items():
            if wanted is None or template in wanted:
                counts[tenant] = counts.get(tenant, 0) + count
        return counts

    def newest_sql(self) -> dict[str, str]:
        """Each template family's newest logged SQL."""
        return dict(self._newest_sql)

    def rollups(self) -> LogRollups:
        """The roll-ups as plain tuples (checkpointing)."""
        return LogRollups(
            template_counts=tuple(self._template_counts.items()),
            tenant_counts=tuple(self._tenant_counts.items()),
            newest_sql=tuple(self._newest_sql.items()),
        )

    def restore(self, records: Iterable[QueryRecord], rollups: LogRollups) -> None:
        """Replace the log wholesale from a recovery checkpoint.

        Crash-recovery only (:mod:`repro.core.recovery`): ``records`` is
        the checkpoint's window, which its ``rollups`` already count.
        """
        self._records = deque(records)
        self._template_counts = dict(rollups.template_counts)
        self._tenant_counts = dict(rollups.tenant_counts)
        self._newest_sql = dict(rollups.newest_sql)

    # -- the window -------------------------------------------------------- #
    def __len__(self) -> int:
        return len(self._records)

    def window(self, start: float, end: float) -> list[QueryRecord]:
        """Records with ``start <= timestamp < end``."""
        return [r for r in self if start <= r.timestamp < end]

    def tail(self, count: int) -> list[QueryRecord]:
        """The most recent ``count`` records (all of them when fewer);
        O(count), so a serving-path reader never scales with the window."""
        records = self._records
        if count < 1:
            return []
        if count >= len(records):
            return list(records)
        return [records[index] for index in range(-count, 0)]

    def after(self, query_id: int) -> list[QueryRecord]:
        """The window's records with ids above ``query_id`` (O(result)) —
        lets the cost collector fold incrementally."""
        return self.tail(self.last_query_id - query_id)

    @property
    def horizon(self) -> tuple[float, float]:
        """(first, last) record timestamps; (0, 0) when empty."""
        records = self._records
        if not records:
            return (0.0, 0.0)
        return (records[0].timestamp, records[-1].timestamp)

    def for_tenant(self, tenant: str) -> "TenantLogView":
        """An isolated, read-only view of this store for one tenant."""
        return TenantLogView(self, tenant)


class TenantLogView(LogView):
    """Read-only per-tenant projection of a shared :class:`QueryLogStore`.

    The Statistics Service keeps one ground-truth log per warehouse
    ("collects the query execution logs from all the tenants"); each
    :class:`~repro.core.service.Session` sees only its tenant's records
    in the window through this view, so per-tenant analysis
    (forecasting, accounting) runs unchanged over a slice;
    :meth:`tenant_counts` reads the store's roll-ups.
    """

    def __init__(self, store: QueryLogStore, tenant: str) -> None:
        self._store = store
        self.tenant = tenant

    def __iter__(self) -> Iterator[QueryRecord]:
        return (r for r in self._store if r.tenant == self.tenant)

    def window(self, start: float, end: float) -> list[QueryRecord]:
        """This tenant's records with ``start <= timestamp < end``."""
        return [r for r in self._store.window(start, end) if r.tenant == self.tenant]

    def tenant_counts(
        self, templates: Iterable[str] | None = None
    ) -> dict[str, int]:
        """This tenant's logged-query count, optionally restricted to the
        given template families (``{}`` when there is none)."""
        count = self._store.tenant_counts(templates).get(self.tenant, 0)
        return {self.tenant: count} if count else {}
