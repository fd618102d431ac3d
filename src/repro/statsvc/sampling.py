"""Statistics Service cost/accuracy trade-off (paper §4).

"The Statistics Service itself must be cost-efficient as well.  This
requires new algorithms to balance the generation cost and the
comprehensiveness of the statistics (e.g., by varying sampling rates).
The service could identify the hot and cold statistics and design
different data structures on tiered storage."

This module prices the service (per-record processing cost + tiered
summary storage) and measures summary error against the full-rate
baseline, so experiment E10 can sweep sampling rates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.statsvc.summaries import WorkloadSummary
from repro.util.units import GB, HOURS_PER_MONTH


@dataclass(frozen=True)
class StatsServiceCostModel:
    """Dollar model for running the Statistics Service itself."""

    dollars_per_processed_record: float = 2e-6
    hot_storage_gb_month: float = 0.25  # SSD-backed, queryable
    cold_storage_gb_month: float = 0.023  # object storage
    summary_bytes_per_attribute: float = 64.0
    summary_bytes_per_edge: float = 96.0
    hot_fraction_default: float = 0.2

    def processing_dollars(self, records_seen: int, sample_rate: float) -> float:
        """Cost of ingesting a log window at the given sampling rate."""
        return records_seen * sample_rate * self.dollars_per_processed_record

    def summary_bytes(self, summary: WorkloadSummary) -> float:
        attrs = len(summary.attribute_access) + len(summary.filter_access)
        edges = len(summary.join_graph.edges())
        return (
            attrs * self.summary_bytes_per_attribute
            + edges * self.summary_bytes_per_edge
        )

    def storage_dollars_per_hour(
        self, summary: WorkloadSummary, hot_fraction: float | None = None
    ) -> float:
        """Tiered storage cost: hot share on SSD, the rest on cold store."""
        hot = self.hot_fraction_default if hot_fraction is None else hot_fraction
        size_gb = self.summary_bytes(summary) / GB
        per_month = (
            size_gb * hot * self.hot_storage_gb_month
            + size_gb * (1.0 - hot) * self.cold_storage_gb_month
        )
        return per_month / HOURS_PER_MONTH

    def total_dollars_per_hour(
        self,
        summary: WorkloadSummary,
        records_per_hour: float,
        *,
        hot_fraction: float | None = None,
    ) -> float:
        processing = self.processing_dollars(
            int(records_per_hour), summary.sample_rate
        )
        return processing + self.storage_dollars_per_hour(summary, hot_fraction)


def _counter_relative_error(reference, estimate) -> float:
    """Mean relative error over the reference counter's keys."""
    if not reference:
        return 0.0
    total = 0.0
    for key, ref_value in reference.items():
        est_value = estimate.get(key, 0)
        total += abs(est_value - ref_value) / max(ref_value, 1)
    return total / len(reference)


def summary_error(reference: WorkloadSummary, estimate: WorkloadSummary) -> dict[str, float]:
    """Error of a sampled summary vs. the full-rate reference.

    Returns mean relative errors for the access-count surfaces and the
    join-graph edge weights — the accuracy side of the E10 trade-off.
    """
    ref_edges = {
        (e.left, e.right): e.count for e in reference.join_graph.edges()
    }
    est_edges = {
        (e.left, e.right): e.count for e in estimate.join_graph.edges()
    }
    return {
        "attribute_access": _counter_relative_error(
            reference.attribute_access, estimate.attribute_access
        ),
        "filter_access": _counter_relative_error(
            reference.filter_access, estimate.filter_access
        ),
        "template_counts": _counter_relative_error(
            reference.template_counts, estimate.template_counts
        ),
        "join_edges": _counter_relative_error(ref_edges, est_edges),
    }
