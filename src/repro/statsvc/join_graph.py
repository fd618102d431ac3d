"""Weighted join graphs (paper §4, footnote 3).

"A graph where the vertices are table attributes and the weights on the
edges indicate how often the attributes are joined."  The auto-tuning
advisor mines this graph for materialized-view candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

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
        self.graph = nx.Graph()

    def add_record(self, record: QueryRecord, weight: int = 1) -> None:
        for left, right in record.join_edges:
            a, b = sorted((left, right))
            if self.graph.has_edge(a, b):
                self.graph[a][b]["count"] += weight
                self.graph[a][b]["dollars"] += record.dollars * weight
            else:
                self.graph.add_edge(a, b, count=weight, dollars=record.dollars * weight)

    # ------------------------------------------------------------------ #
    # Queries over the graph
    # ------------------------------------------------------------------ #
    def edges(self) -> list[JoinEdgeStat]:
        return [
            JoinEdgeStat(left=a, right=b, count=data["count"], total_dollars=data["dollars"])
            for a, b, data in self.graph.edges(data=True)
        ]
