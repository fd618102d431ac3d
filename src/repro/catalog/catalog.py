"""The system catalog: tables, statistics, and tuning artifacts.

This is the queryable face of the Metadata Service in the paper's
architecture (Figure 3).  Besides base tables it tracks the artifacts that
cost-oriented auto-tuning (§4) creates — materialized views and clustering
layouts — so the optimizer and the What-If Service see a single source of
truth.  ``Catalog.overlay()`` produces a cheap hypothetical copy, which is
how what-if analysis evaluates a tuning action without applying it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

from repro.catalog.schema import TableSchema
from repro.catalog.statistics import TableStats
from repro.errors import CatalogError


@dataclass(frozen=True)
class MaterializedViewDef:
    """Definition of a materialized view registered in the catalog.

    The view is restricted to the shape the tuning advisor proposes
    (paper §4's running example): an inner-join of base tables, optional
    conjunctive filters, an optional group-by with aggregates.  ``sql`` is
    kept for display; the structural fields drive plan matching.
    """

    name: str
    base_tables: tuple[str, ...]
    join_keys: tuple[tuple[str, str], ...]  # ((tbl.col, tbl.col), ...)
    group_by: tuple[str, ...] = ()
    aggregates: tuple[str, ...] = ()
    filters: tuple[str, ...] = ()
    sql: str = ""
    row_count: int = 0
    storage_bytes: int = 0


@dataclass(frozen=True)
class TableEntry:
    """A catalog entry: schema + statistics + physical layout facts."""

    schema: TableSchema
    stats: TableStats
    storage_bytes: int = 0
    num_partitions: int = 1
    dictionaries: dict[str, tuple[str, ...]] = field(default_factory=dict)
    """Sorted value dictionaries for STRING columns; code = index.  The
    binder uses them to translate string literals into dictionary codes."""
    clustering_depth: float = 1.0
    """Average number of partitions a clustering-key point lookup touches,
    normalized to [1/num_partitions, 1]; 1.0 means unclustered (every
    partition overlaps every key range), lower is better-clustered."""

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def row_count(self) -> int:
        return self.stats.row_count


class Catalog:
    """Mutable registry of tables and tuning artifacts.

    All planner/estimator reads go through this object.  ``overlay`` returns
    a copy-on-write clone used by the What-If Service; mutations to the
    overlay never touch the parent.
    """

    def __init__(self) -> None:
        self._tables: dict[str, TableEntry] = {}
        self._views: dict[str, MaterializedViewDef] = {}
        self._version = 0

    @property
    def version(self) -> int:
        """Monotonic stats/schema version.

        Bumped by every mutation (table registration, stats refresh,
        reclustering, view changes); plan caches key on it so any change
        to planner-visible metadata invalidates cached plans.
        """
        return self._version

    def _bump_version(self) -> None:
        self._version += 1

    # ------------------------------------------------------------------ #
    # Tables
    # ------------------------------------------------------------------ #
    def register_table(self, entry: TableEntry, *, replace_existing: bool = False) -> None:
        name = entry.name
        if name in self._tables and not replace_existing:
            raise CatalogError(f"table {name!r} already registered")
        self._tables[name] = entry
        self._bump_version()

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise CatalogError(f"unknown table {name!r}")
        del self._tables[name]
        self._bump_version()

    def table(self, name: str) -> TableEntry:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def tables(self) -> Iterator[TableEntry]:
        return iter(self._tables.values())

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(self._tables)

    def set_clustering(self, name: str, key: str | None, depth: float) -> None:
        """Record a (re)clustering layout change for ``name``.

        ``depth`` is the resulting clustering depth (see TableEntry).
        """
        if not 0.0 < depth <= 1.0:
            raise CatalogError(f"clustering depth must be in (0, 1], got {depth}")
        entry = self.table(name)
        self._tables[name] = replace(
            entry,
            schema=entry.schema.with_clustering_key(key),
            clustering_depth=depth,
        )
        self._bump_version()

    # ------------------------------------------------------------------ #
    # Materialized views
    # ------------------------------------------------------------------ #
    def register_view(self, view: MaterializedViewDef) -> None:
        """Register an MV definition.

        The definition may share its name with the table that backs the
        materialization (that is the normal pairing); it must not clash
        with another view.
        """
        if view.name in self._views:
            raise CatalogError(f"materialized view {view.name!r} already exists")
        self._views[view.name] = view
        self._bump_version()

    def drop_view(self, name: str) -> None:
        if name not in self._views:
            raise CatalogError(f"unknown materialized view {name!r}")
        del self._views[name]
        self._bump_version()

    def views(self) -> Iterator[MaterializedViewDef]:
        return iter(self._views.values())

    def has_view(self, name: str) -> bool:
        return name in self._views

    def view(self, name: str) -> MaterializedViewDef:
        try:
            return self._views[name]
        except KeyError:
            raise CatalogError(f"unknown materialized view {name!r}") from None

    # ------------------------------------------------------------------ #
    # Hypothetical catalogs (what-if)
    # ------------------------------------------------------------------ #
    def overlay(self) -> "Catalog":
        """Return an independent shallow copy for hypothetical changes.

        Entries are immutable dataclasses, so a dict copy is sufficient:
        the overlay can rebind names without mutating shared state.
        """
        clone = Catalog()
        clone._tables = dict(self._tables)
        clone._views = dict(self._views)
        clone._version = self._version
        return clone

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def total_storage_bytes(self) -> int:
        tables = sum(e.storage_bytes for e in self._tables.values())
        views = sum(v.storage_bytes for v in self._views.values())
        return tables + views

    def describe(self) -> str:
        """Human-readable catalog summary (for examples and debugging)."""
        lines = []
        for entry in sorted(self._tables.values(), key=lambda e: e.name):
            cols = ", ".join(
                f"{c.name}:{c.dtype.value}" for c in entry.schema.columns
            )
            lines.append(
                f"table {entry.name} ({cols}) rows={entry.row_count:,} "
                f"partitions={entry.num_partitions}"
            )
        for view in sorted(self._views.values(), key=lambda v: v.name):
            lines.append(
                f"mview {view.name} over {'+'.join(view.base_tables)} "
                f"rows={view.row_count:,}"
            )
        return "\n".join(lines)
