"""Columnar batches: the unit of data the local engine processes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ExecutionError


@dataclass
class Batch:
    """A set of equal-length named columns (numpy arrays)."""

    columns: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        lengths = {name: arr.shape[0] for name, arr in self.columns.items()}
        if len(set(lengths.values())) > 1:
            raise ExecutionError(f"ragged batch: {lengths}")

    @property
    def num_rows(self) -> int:
        if not self.columns:
            return 0
        return next(iter(self.columns.values())).shape[0]

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self.columns)

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise ExecutionError(f"batch has no column {name!r}") from None

    def select(self, names: tuple[str, ...]) -> "Batch":
        return Batch({name: self.column(name) for name in names})

    def filter(self, mask: np.ndarray) -> "Batch":
        if mask.dtype != np.bool_:
            raise ExecutionError(f"filter mask must be boolean, got {mask.dtype}")
        return Batch({name: arr[mask] for name, arr in self.columns.items()})

    def take(self, indices: np.ndarray) -> "Batch":
        return Batch({name: arr[indices] for name, arr in self.columns.items()})

    def head(self, n: int) -> "Batch":
        return Batch({name: arr[:n] for name, arr in self.columns.items()})

    @classmethod
    def empty(cls, names: tuple[str, ...]) -> "Batch":
        return cls({name: np.empty(0, dtype=np.float64) for name in names})

    @classmethod
    def concat(cls, batches: list["Batch"]) -> "Batch":
        if not batches:
            raise ExecutionError("cannot concat zero batches")
        names = batches[0].column_names
        for batch in batches[1:]:
            if batch.column_names != names:
                raise ExecutionError("cannot concat batches with differing columns")
        return cls(
            {
                name: np.concatenate([b.column(name) for b in batches])
                for name in names
            }
        )
