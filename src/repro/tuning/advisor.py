"""Auto-tuning advisor: candidate generation + what-if ranking (paper §4).

Closes the loop the paper describes: the Statistics Service's summaries
and forecasts drive candidate generation (MVs from hot join templates,
reclustering from hot filtered columns), the What-If Service prices each
candidate, and the advisor greedily accepts profitable actions under a
storage budget — each accompanied by the customer-readable dollar report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.catalog import Catalog
from repro.errors import TuningError
from repro.sql.binder import BoundQuery
from repro.statsvc.forecast import TemplateForecast, WorkloadForecaster
from repro.statsvc.logs import QueryLogStore
from repro.statsvc.summaries import WorkloadSummary, build_summary
from repro.tuning.clustering import ReclusterCandidate
from repro.tuning.mv import MVCandidate, mv_candidate_from_query
from repro.tuning.whatif import TuningReport, WhatIfService
from repro.util.units import GB

#: The forecaster every cycle runs (stateless).
FORECASTER = WorkloadForecaster()
#: Most MV / recluster candidates one cycle prices.
MAX_MV_CANDIDATES = 5
MAX_RECLUSTER_CANDIDATES = 3
#: The storage the accepted actions of one cycle may add, in bytes.
STORAGE_BUDGET_BYTES = 50 * GB
#: Fewest logged arrivals a template needs before a cycle tunes for it.
MIN_TEMPLATE_COUNT = 2


@dataclass
class AdvisorProposals:
    """Everything one tuning cycle produced."""

    reports: list[TuningReport] = field(default_factory=list)
    accepted: list[TuningReport] = field(default_factory=list)
    summary: WorkloadSummary | None = None

    def describe(self) -> str:
        lines = [f"{len(self.reports)} proposals, {len(self.accepted)} accepted"]
        for report in self.reports:
            lines.append(report.describe())
        return "\n".join(lines)


class AutoTuningAdvisor:
    """Generates, prices, and filters tuning proposals."""

    def __init__(self, catalog: Catalog, whatif: WhatIfService) -> None:
        self.catalog = catalog
        self.whatif = whatif

    # ------------------------------------------------------------------ #
    def propose(
        self, store: QueryLogStore, bound_queries: dict[str, BoundQuery]
    ) -> AdvisorProposals:
        """One tuning cycle over the logged workload.

        ``bound_queries`` maps template name -> a representative bound
        query of that family (``warehouse.template_queries``, derived
        from the log on read).
        """
        records = list(store)
        if not records:
            raise TuningError("no logged queries to tune against")
        summary = build_summary(records)
        forecasts = FORECASTER.forecast(store)
        workload = {
            template: (bound_queries[template], forecast)
            for template, forecast in forecasts.items()
            if template in bound_queries
            and forecast.observed_count >= MIN_TEMPLATE_COUNT
        }

        proposals = AdvisorProposals(summary=summary)
        for candidate in self._mv_candidates(workload):
            try:
                proposals.reports.append(self.whatif.evaluate_mv(candidate, workload))
            except TuningError:
                continue
        for candidate in self._recluster_candidates(summary, workload):
            try:
                proposals.reports.append(
                    self.whatif.evaluate_recluster(candidate, workload)
                )
            except TuningError:
                continue

        proposals.reports.sort(key=lambda r: r.net_per_hour, reverse=True)
        proposals.accepted = self._select(proposals.reports)
        return proposals

    # ------------------------------------------------------------------ #
    # Candidate generation
    # ------------------------------------------------------------------ #
    def _mv_candidates(
        self, workload: dict[str, tuple[BoundQuery, TemplateForecast]]
    ) -> list[MVCandidate]:
        ranked = sorted(
            workload.items(),
            key=lambda item: item[1][1].dollars_per_hour,
            reverse=True,
        )
        candidates: list[MVCandidate] = []
        seen_shapes: set[tuple] = set()
        for template, (query, _) in ranked:
            if len(candidates) >= MAX_MV_CANDIDATES:
                break
            if len(query.tables) < 2 or not query.aggregates:
                continue
            shape = (
                tuple(sorted(t.name for t in query.tables)),
                tuple(sorted(a.sql() for a in query.aggregates)),
            )
            if shape in seen_shapes:
                continue
            seen_shapes.add(shape)
            if self.catalog.has_view(f"mv_{template}"):
                continue  # already materialized (applied in a prior cycle)
            try:
                candidates.append(
                    mv_candidate_from_query(
                        query, self.catalog, name=f"mv_{template}"
                    )
                )
            except TuningError:
                continue
        return candidates

    def _recluster_candidates(
        self,
        summary: WorkloadSummary,
        workload: dict[str, tuple[BoundQuery, TemplateForecast]],
    ) -> list[ReclusterCandidate]:
        candidates: list[ReclusterCandidate] = []
        for column, _count in summary.hottest_filters(20):
            if len(candidates) >= MAX_RECLUSTER_CANDIDATES:
                break
            table = self._owning_table(column)
            if table is None:
                continue
            entry = self.catalog.table(table)
            if entry.schema.clustering_key == column:
                continue  # already clustered on it
            if not entry.schema.column(column).dtype.is_numeric:
                continue
            if not any(
                table in q.table_names for q, _ in workload.values()
            ):
                continue
            candidates.append(ReclusterCandidate(table=table, key=column))
        return candidates

    def _owning_table(self, column: str) -> str | None:
        for entry in self.catalog.tables():
            if entry.schema.has_column(column):
                return entry.name
        return None

    # ------------------------------------------------------------------ #
    def _select(self, reports: list[TuningReport]) -> list[TuningReport]:
        """Greedy accept profitable reports under
        :data:`STORAGE_BUDGET_BYTES`.

        At most one recluster per table per cycle — a second accepted
        layout would silently undo the first.  The table comes from the
        typed candidate carried on the report; the old
        ``action_name.split("_on_")`` parsing broke for identifiers that
        themselves contain ``_on_``.
        """
        accepted: list[TuningReport] = []
        used_bytes = 0.0
        reclustered_tables: set[str] = set()
        for report in reports:
            if not report.profitable:
                continue
            if used_bytes + report.storage_bytes > STORAGE_BUDGET_BYTES:
                continue
            if isinstance(report.candidate, ReclusterCandidate):
                table = report.candidate.table
                if table in reclustered_tables:
                    continue
                reclustered_tables.add(table)
            accepted.append(report)
            used_bytes += report.storage_bytes
        return accepted
