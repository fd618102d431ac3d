"""Relational schema objects: data types, columns, and table schemas.

The engine is columnar and numpy-backed, so the type system is deliberately
small: 64-bit integers, 64-bit floats, fixed-dictionary strings, dates
(stored as int64 epoch days), and booleans.  Each type knows its on-wire
width, which the cost models use to convert cardinalities into bytes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import CatalogError


class DataType(enum.Enum):
    """Supported column types with their storage width in bytes."""

    INT64 = "int64"
    FLOAT64 = "float64"
    STRING = "string"
    DATE = "date"
    BOOL = "bool"

    @property
    def width_bytes(self) -> int:
        """Uncompressed per-value width used by cost and storage models."""
        return _WIDTHS[self]

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.INT64, DataType.FLOAT64, DataType.DATE)


_WIDTHS = {
    DataType.INT64: 8,
    DataType.FLOAT64: 8,
    DataType.STRING: 16,  # dictionary code + amortized dictionary share
    DataType.DATE: 8,
    DataType.BOOL: 1,
}


@dataclass(frozen=True)
class Column:
    """A named, typed column.

    ``nullable`` is tracked for completeness; the synthetic generators do
    not currently produce NULLs, but the planner treats nullable columns
    conservatively in NDV-based estimates.
    """

    name: str
    dtype: DataType
    nullable: bool = False

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise CatalogError(f"invalid column name: {self.name!r}")


@dataclass(frozen=True)
class TableSchema:
    """An ordered collection of uniquely named columns."""

    name: str
    columns: tuple[Column, ...]
    primary_key: tuple[str, ...] = field(default=())
    clustering_key: str | None = None

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise CatalogError(f"invalid table name: {self.name!r}")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise CatalogError(f"duplicate column names in table {self.name}")
        for key in self.primary_key:
            if key not in names:
                raise CatalogError(
                    f"primary key column {key!r} not in table {self.name}"
                )
        if self.clustering_key is not None and self.clustering_key not in names:
            raise CatalogError(
                f"clustering key {self.clustering_key!r} not in table {self.name}"
            )

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        raise CatalogError(f"table {self.name} has no column {name!r}")

    def has_column(self, name: str) -> bool:
        return any(c.name == name for c in self.columns)

    @property
    def row_width_bytes(self) -> int:
        """Uncompressed width of one row across all columns."""
        return sum(c.dtype.width_bytes for c in self.columns)

    def with_clustering_key(self, key: str | None) -> "TableSchema":
        """Return a copy clustered on ``key`` (used by the recluster action)."""
        return TableSchema(
            name=self.name,
            columns=self.columns,
            primary_key=self.primary_key,
            clustering_key=key,
        )
