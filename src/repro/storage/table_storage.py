"""Stored tables: micro-partition sets with clustering and pruning.

:class:`StoredTable` is what the local engine scans and what the
reclustering tuning action physically rewrites.  Clustering quality is
summarized by *clustering depth*: the expected fraction of partitions a
range predicate on the clustering key must read.  Depth close to 1.0 means
values are scattered across all partitions; depth near ``1/num_partitions``
means perfectly sorted data.
"""

from __future__ import annotations

import numpy as np

from repro.catalog.schema import TableSchema
from repro.errors import StorageError
from repro.storage.micropartition import DEFAULT_PARTITION_ROWS, MicroPartition


def split_into_partitions(
    schema: TableSchema,
    columns: dict[str, np.ndarray],
    partition_rows: int = DEFAULT_PARTITION_ROWS,
) -> list[MicroPartition]:
    """Split raw column arrays into fixed-size micro-partitions."""
    if partition_rows <= 0:
        raise StorageError(f"partition_rows must be positive, got {partition_rows}")
    names = list(columns)
    if not names:
        return []
    total = columns[names[0]].size
    partitions: list[MicroPartition] = []
    for pid, start in enumerate(range(0, total, partition_rows)):
        stop = min(start + partition_rows, total)
        chunk = {name: columns[name][start:stop] for name in names}
        partitions.append(MicroPartition(schema, chunk, partition_id=pid))
    return partitions


def cluster_by(
    schema: TableSchema,
    columns: dict[str, np.ndarray],
    key: str,
    partition_rows: int = DEFAULT_PARTITION_ROWS,
) -> list[MicroPartition]:
    """Sort rows by ``key`` and re-split — the physical recluster operation."""
    if key not in columns:
        raise StorageError(f"cannot cluster {schema.name} by unknown column {key!r}")
    order = np.argsort(columns[key], kind="stable")
    sorted_cols = {name: arr[order] for name, arr in columns.items()}
    return split_into_partitions(
        schema.with_clustering_key(key), sorted_cols, partition_rows
    )


class StoredTable:
    """A table materialized as micro-partitions on the object store."""

    def __init__(
        self,
        schema: TableSchema,
        partitions: list[MicroPartition],
    ) -> None:
        self.schema = schema
        self.partitions = partitions

    @classmethod
    def from_columns(
        cls,
        schema: TableSchema,
        columns: dict[str, np.ndarray],
        *,
        partition_rows: int = DEFAULT_PARTITION_ROWS,
        cluster_key: str | None = None,
    ) -> "StoredTable":
        for name in schema.column_names:
            if name not in columns:
                raise StorageError(f"missing column {schema.name}.{name}")
        if cluster_key is not None:
            parts = cluster_by(schema, columns, cluster_key, partition_rows)
            schema = schema.with_clustering_key(cluster_key)
        else:
            parts = split_into_partitions(schema, columns, partition_rows)
        return cls(schema, parts)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def row_count(self) -> int:
        return sum(p.row_count for p in self.partitions)

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def stored_bytes(self, columns: tuple[str, ...] | None = None) -> int:
        return sum(p.stored_bytes(columns) for p in self.partitions)

    def column_concat(self, name: str) -> np.ndarray:
        """Concatenate one column across partitions (testing/data export)."""
        arrays = [p.column(name) for p in self.partitions]
        if not arrays:
            return np.empty(0)
        return np.concatenate(arrays)

    def all_columns(self) -> dict[str, np.ndarray]:
        return {name: self.column_concat(name) for name in self.schema.column_names}

    # ------------------------------------------------------------------ #
    # Pruning & clustering quality
    # ------------------------------------------------------------------ #
    def clustering_depth(self, column: str, probes: int = 64) -> float:
        """Measured clustering depth of ``column``.

        Probes ``probes`` equally spaced point values across the column's
        domain and returns the mean fraction of partitions whose zone maps
        overlap each probe.  1.0 = unclustered, 1/num_partitions = perfect.
        """
        if not self.partitions:
            return 1.0
        zones = [p.zone_maps.get(column) for p in self.partitions]
        if any(z is None for z in zones):
            return 1.0
        lo = min(z.min_value for z in zones)  # type: ignore[union-attr]
        hi = max(z.max_value for z in zones)  # type: ignore[union-attr]
        if hi <= lo:
            return 1.0
        probe_values = np.linspace(lo, hi, probes)
        total_overlap = 0
        for value in probe_values:
            total_overlap += sum(
                1 for z in zones if z.may_contain_eq(float(value))  # type: ignore[union-attr]
            )
        return total_overlap / (probes * len(self.partitions))

    def recluster(self, key: str) -> "StoredTable":
        """Return a new StoredTable physically re-sorted on ``key``."""
        rows_per_part = max(
            1, self.partitions[0].row_count if self.partitions else DEFAULT_PARTITION_ROWS
        )
        columns = self.all_columns()
        parts = cluster_by(self.schema, columns, key, rows_per_part)
        return StoredTable(self.schema.with_clustering_key(key), parts)
