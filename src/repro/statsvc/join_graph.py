"""Weighted join graphs (paper §4, footnote 3).

"A graph where the vertices are table attributes and the weights on the
edges indicate how often the attributes are joined."  The auto-tuning
advisor mines this graph for materialized-view candidates.

Edges are keyed by the sorted attribute pair, so two summaries of one
log name each edge the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.statsvc.logs import QueryRecord


@dataclass(frozen=True)
class JoinEdgeStat:
    """One attribute-pair edge with its observed frequency."""

    left: str  # "table.column"
    right: str
    count: int
    total_dollars: float


class JoinGraph:
    """Attribute-level weighted join graph over a log window."""

    def __init__(self) -> None:
        # (left, right) -> [count, dollars]
        self._edges: dict[tuple[str, str], list] = {}

    def add_record(self, record: QueryRecord, weight: int = 1) -> None:
        for left, right in record.join_edges:
            stat = self._edges.setdefault(tuple(sorted((left, right))), [0, 0.0])
            stat[0] += weight
            stat[1] += record.dollars * weight

    # ------------------------------------------------------------------ #
    # Queries over the graph
    # ------------------------------------------------------------------ #
    def edges(self) -> list[JoinEdgeStat]:
        return [
            JoinEdgeStat(left=a, right=b, count=count, total_dollars=dollars)
            for (a, b), (count, dollars) in self._edges.items()
        ]
