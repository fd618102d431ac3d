"""Table and column statistics: equi-depth histograms, NDV, correlations.

These are the statistics the Metadata Service serves to the optimizer and
cost estimator.  They are intentionally classical (histograms + distinct
counts + min/max), because the paper argues for explainable estimation
models rather than black-box learned ones (§3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.catalog.schema import Column, DataType, TableSchema
from repro.errors import CatalogError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

DEFAULT_HISTOGRAM_BUCKETS = 64


@dataclass(frozen=True)
class EquiDepthHistogram:
    """Equi-depth (equi-height) histogram over a numeric column.

    ``bounds`` has ``len(counts) + 1`` entries; bucket ``i`` covers
    ``[bounds[i], bounds[i+1])`` except the last bucket, which is closed on
    both sides.  Counts are approximately equal by construction, which keeps
    per-bucket selectivity errors bounded.
    """

    bounds: tuple[float, ...]
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bounds) != len(self.counts) + 1:
            raise CatalogError("histogram bounds/counts length mismatch")
        if any(c < 0 for c in self.counts):
            raise CatalogError("histogram counts must be non-negative")
        if any(hi < lo for lo, hi in zip(self.bounds[:-1], self.bounds[1:])):
            raise CatalogError("histogram bounds must be non-decreasing")

    @property
    def total_count(self) -> int:
        return int(sum(self.counts))

    @property
    def num_buckets(self) -> int:
        return len(self.counts)

    @classmethod
    def from_values(
        cls, values: np.ndarray, num_buckets: int = DEFAULT_HISTOGRAM_BUCKETS
    ) -> "EquiDepthHistogram":
        """Build an equi-depth histogram from raw values."""
        import numpy as np  # planning reads statistics, only builders need numpy

        if values.size == 0:
            return cls(bounds=(0.0, 0.0), counts=(0,))
        data = np.sort(values.astype(np.float64))
        buckets = max(1, min(num_buckets, data.size))
        quantiles = np.linspace(0.0, 1.0, buckets + 1)
        bounds = np.quantile(data, quantiles)
        # Collapse duplicate bounds produced by heavy hitters: counts are
        # computed from the actual data so mass is conserved regardless.
        counts = np.zeros(buckets, dtype=np.int64)
        idx = np.searchsorted(bounds[1:-1], data, side="right")
        np.add.at(counts, idx, 1)
        return cls(bounds=tuple(float(b) for b in bounds), counts=tuple(int(c) for c in counts))

    def selectivity_le(self, value: float) -> float:
        """Estimated fraction of rows with ``col <= value``."""
        total = self.total_count
        if total == 0:
            return 0.0
        if value < self.bounds[0]:
            return 0.0
        if value >= self.bounds[-1]:
            return 1.0
        acc = 0.0
        for i, count in enumerate(self.counts):
            lo, hi = self.bounds[i], self.bounds[i + 1]
            if value >= hi:
                acc += count
            elif value < lo:
                break
            else:
                width = hi - lo
                frac = 1.0 if width <= 0 else (value - lo) / width
                acc += count * frac
                break
        return min(1.0, acc / total)

    def selectivity_range(self, lo: float | None, hi: float | None) -> float:
        """Estimated fraction of rows with ``lo <= col <= hi``.

        ``None`` bounds are open.  The result is clamped to [0, 1].
        """
        upper = self.selectivity_le(hi) if hi is not None else 1.0
        lower = self.selectivity_le(lo) if lo is not None else 0.0
        # selectivity_le is "<=", so subtracting slightly undercounts rows
        # equal to lo; acceptable for planning purposes.
        return max(0.0, min(1.0, upper - lower))

    def selectivity_eq(self, value: float, ndv: float) -> float:
        """Estimated fraction of rows with ``col == value``.

        Uses the containing bucket's mass divided by the bucket's share of
        distinct values (uniform-within-bucket assumption).
        """
        total = self.total_count
        if total == 0 or ndv <= 0:
            return 0.0
        if value < self.bounds[0] or value > self.bounds[-1]:
            return 0.0
        for i, count in enumerate(self.counts):
            lo, hi = self.bounds[i], self.bounds[i + 1]
            last = i == len(self.counts) - 1
            if (lo <= value < hi) or (last and value <= hi):
                bucket_ndv = max(1.0, ndv / self.num_buckets)
                return min(1.0, (count / total) / bucket_ndv)
        return 1.0 / ndv


@dataclass(frozen=True)
class ColumnStats:
    """Per-column statistics served by the metadata service."""

    column: Column
    row_count: int
    ndv: int
    min_value: float
    max_value: float
    null_count: int = 0
    histogram: EquiDepthHistogram | None = None

    def __post_init__(self) -> None:
        if self.row_count < 0 or self.ndv < 0 or self.null_count < 0:
            raise CatalogError("statistics counts must be non-negative")
        if self.ndv > max(self.row_count, 1):
            raise CatalogError("ndv cannot exceed row count")

    def scaled(self, factor: float) -> "ColumnStats":
        """Return stats for a uniformly scaled row count (used by what-if)."""
        rows = int(round(self.row_count * factor))
        return ColumnStats(
            column=self.column,
            row_count=rows,
            ndv=min(self.ndv, max(rows, 1) if rows else 0),
            min_value=self.min_value,
            max_value=self.max_value,
            null_count=int(round(self.null_count * factor)),
            histogram=self.histogram,
        )


@dataclass(frozen=True)
class TableStats:
    """Table-level statistics: cardinality plus per-column stats."""

    table: str
    row_count: int
    column_stats: dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStats:
        try:
            return self.column_stats[name]
        except KeyError:
            raise CatalogError(f"no statistics for column {self.table}.{name}") from None

    def has_column(self, name: str) -> bool:
        return name in self.column_stats


def build_column_stats(
    column: Column,
    values: np.ndarray,
    *,
    histogram_buckets: int = DEFAULT_HISTOGRAM_BUCKETS,
    sample_rate: float = 1.0,
    rng: np.random.Generator | None = None,
) -> ColumnStats:
    """Compute :class:`ColumnStats` from a column's raw values.

    ``sample_rate`` < 1.0 computes statistics from a uniform row sample and
    scales counts back up — the knob the Statistics Service (§4) uses to
    trade statistics accuracy for collection cost.
    """
    import numpy as np  # planning reads statistics, only builders need numpy

    if not 0.0 < sample_rate <= 1.0:
        raise CatalogError(f"sample_rate must be in (0, 1], got {sample_rate}")
    total_rows = int(values.size)
    sample = values
    if sample_rate < 1.0 and total_rows > 0:
        rng = rng or np.random.default_rng(0)
        take = max(1, int(round(total_rows * sample_rate)))
        sample = rng.choice(values, size=take, replace=False)

    if sample.size == 0:
        return ColumnStats(
            column=column, row_count=0, ndv=0, min_value=0.0, max_value=0.0
        )

    numeric = sample.astype(np.float64)
    _, counts = np.unique(sample, return_counts=True)
    distinct = int(counts.size)
    if sample.size < total_rows:
        # Chao1 estimator: d + f1^2 / (2 * f2), where f1/f2 are the numbers
        # of values seen exactly once/twice.  Saturated domains (few
        # singletons) stay near the sampled distinct count; sparse domains
        # scale up.  Clamped to the row count.
        f1 = int((counts == 1).sum())
        f2 = int((counts == 2).sum())
        chao = distinct + (f1 * f1) / (2.0 * max(1, f2))
        distinct = min(total_rows, max(distinct, int(round(chao))))
    histogram = EquiDepthHistogram.from_values(numeric, histogram_buckets)
    return ColumnStats(
        column=column,
        row_count=total_rows,
        ndv=max(1, min(distinct, total_rows)),
        min_value=float(numeric.min()),
        max_value=float(numeric.max()),
        histogram=histogram,
    )


def build_table_stats(
    schema: TableSchema,
    columns: dict[str, np.ndarray],
    *,
    histogram_buckets: int = DEFAULT_HISTOGRAM_BUCKETS,
    sample_rate: float = 1.0,
    rng: np.random.Generator | None = None,
) -> TableStats:
    """Compute :class:`TableStats` for all columns of a table."""
    row_count = 0
    for name in schema.column_names:
        if name in columns:
            row_count = int(columns[name].size)
            break
    stats: dict[str, ColumnStats] = {}
    for col in schema.columns:
        if col.name not in columns:
            continue
        values = columns[col.name]
        if values.size != row_count:
            raise CatalogError(
                f"column {schema.name}.{col.name} has {values.size} rows, "
                f"expected {row_count}"
            )
        stats[col.name] = build_column_stats(
            col,
            values,
            histogram_buckets=histogram_buckets,
            sample_rate=sample_rate,
            rng=rng,
        )
    return TableStats(table=schema.name, row_count=row_count, column_stats=stats)
