"""Queryable workload summaries (paper §4).

"The service computes in the background with these collected traces to
generate and maintain queryable workload summaries, including
file/attribute-access counts and weighted join graphs for training
workload-prediction models and run-time resource usage for modeling the
performance and monetary cost."
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError
from repro.statsvc.join_graph import JoinGraph
from repro.statsvc.logs import QueryRecord
from repro.util.rng import derive_rng


@dataclass
class WorkloadSummary:
    """Aggregated view of a log window."""

    num_queries: int = 0
    sample_rate: float = 1.0
    table_access: Counter = field(default_factory=Counter)
    attribute_access: Counter = field(default_factory=Counter)
    filter_access: Counter = field(default_factory=Counter)
    group_key_access: Counter = field(default_factory=Counter)
    template_counts: Counter = field(default_factory=Counter)
    join_graph: JoinGraph = field(default_factory=JoinGraph)
    total_machine_seconds: float = 0.0
    total_dollars: float = 0.0
    total_bytes_scanned: float = 0.0
    dollars_by_template: Counter = field(default_factory=Counter)

    def hottest_filters(self, top_k: int = 10) -> list[tuple[str, int]]:
        return self.filter_access.most_common(top_k)


def build_summary(
    records: list[QueryRecord],
    *,
    sample_rate: float = 1.0,
    seed: int = 0,
) -> WorkloadSummary:
    """Summarize a record window, optionally from a uniform sample.

    Sampling is the §4 knob "to balance the generation cost and the
    comprehensiveness of the statistics": counts from a p-sample are
    scaled by 1/p, trading accuracy for a proportional cost reduction
    (see :mod:`repro.statsvc.sampling`).
    """
    if not 0.0 < sample_rate <= 1.0:
        raise ReproError(f"sample rate must be in (0, 1], got {sample_rate}")
    summary = WorkloadSummary(sample_rate=sample_rate)
    if not records:
        return summary
    summary.num_queries = len(records)

    if sample_rate < 1.0:
        rng = derive_rng(seed, "summary-sample")
        keep = rng.random(len(records)) < sample_rate
        sampled = [r for r, k in zip(records, keep) if k]
    else:
        sampled = list(records)

    scale = 1.0 / sample_rate
    weight = max(1, int(round(scale)))
    for record in sampled:
        summary.table_access.update({t: weight for t in record.tables})
        summary.attribute_access.update({c: weight for c in record.columns})
        summary.filter_access.update({c: weight for c in record.filter_columns})
        summary.group_key_access.update({c: weight for c in record.group_keys})
        summary.template_counts.update({record.template: weight})
        summary.join_graph.add_record(record, weight)
        summary.total_machine_seconds += record.machine_seconds * scale
        summary.total_dollars += record.dollars * scale  # lint-allow: float-billing sample-weighted workload summary estimate, not an authoritative ledger balance; replay never reconciles it
        summary.total_bytes_scanned += record.bytes_scanned * scale
        summary.dollars_by_template.update({record.template: record.dollars * scale})
    return summary
