"""Columnar micro-partitions with zone maps.

A micro-partition is the unit of storage, pruning, and scan-time morsel
formation — the same role Snowflake's micro-partitions or Parquet row
groups play.  Each partition stores numpy column arrays plus a per-column
:class:`ZoneMap` (min/max) used for partition pruning; pruning efficiency
is what the reclustering tuning action (§4) improves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.catalog.schema import TableSchema
from repro.errors import StorageError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

DEFAULT_PARTITION_ROWS = 64_000
COMPRESSION_RATIO = 3.0
"""Assumed columnar-compression ratio applied to on-store byte sizes."""


@dataclass(frozen=True)
class ZoneMap:
    """Min/max summary of one column within one micro-partition."""

    min_value: float
    max_value: float

    def may_contain_range(self, lo: float | None, hi: float | None) -> bool:
        """Can any value in [lo, hi] exist in this partition?"""
        if lo is not None and self.max_value < lo:
            return False
        if hi is not None and self.min_value > hi:
            return False
        return True

    def may_contain_eq(self, value: float) -> bool:
        return self.min_value <= value <= self.max_value


class MicroPartition:
    """An immutable horizontal slice of a table with column zone maps."""

    def __init__(
        self,
        schema: TableSchema,
        columns: dict[str, np.ndarray],
        partition_id: int = 0,
    ) -> None:
        # Local: the planning path imports this module for its constants.
        import numpy as np

        sizes = {name: arr.size for name, arr in columns.items()}
        if len(set(sizes.values())) > 1:
            raise StorageError(f"ragged columns in partition: {sizes}")
        self.schema = schema
        self.partition_id = partition_id
        self._columns = {name: np.asarray(arr) for name, arr in columns.items()}
        self.row_count = next(iter(sizes.values())) if sizes else 0
        self.zone_maps: dict[str, ZoneMap] = {}
        for name, arr in self._columns.items():
            if arr.size and np.issubdtype(arr.dtype, np.number):
                self.zone_maps[name] = ZoneMap(
                    min_value=float(arr.min()), max_value=float(arr.max())
                )

    # ------------------------------------------------------------------ #
    # Data access
    # ------------------------------------------------------------------ #
    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self._columns)

    def column(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            raise StorageError(
                f"partition of {self.schema.name} has no column {name!r}"
            ) from None

    def project(self, names: tuple[str, ...]) -> dict[str, np.ndarray]:
        return {name: self.column(name) for name in names}

    # ------------------------------------------------------------------ #
    # Size model
    # ------------------------------------------------------------------ #
    def uncompressed_bytes(self, columns: tuple[str, ...] | None = None) -> int:
        names = columns if columns is not None else self.column_names
        width = sum(self.schema.column(n).dtype.width_bytes for n in names)
        return self.row_count * width

    def stored_bytes(self, columns: tuple[str, ...] | None = None) -> int:
        """On-object-store size after columnar compression."""
        return int(self.uncompressed_bytes(columns) / COMPRESSION_RATIO)

    # ------------------------------------------------------------------ #
    # Pruning
    # ------------------------------------------------------------------ #
    def prunable_by_range(
        self, column: str, lo: float | None, hi: float | None
    ) -> bool:
        """True when the zone map proves no row matches ``lo <= col <= hi``."""
        zone = self.zone_maps.get(column)
        if zone is None:
            return False
        return not zone.may_contain_range(lo, hi)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MicroPartition({self.schema.name}#{self.partition_id}, "
            f"rows={self.row_count})"
        )
