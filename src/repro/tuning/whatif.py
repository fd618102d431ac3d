"""What-If Service (paper §4).

"For each tuning proposal, the What-If Service generates a relevant
workload prediction based on the Statistics Service.  Then it invokes
the cost estimator to determine whether the tuning action is
'profitable'."

Evaluation recipe: plan each affected query family against the current
catalog and against a hypothetical overlay with the action applied; the
per-query dollar delta times the forecast arrival rate is the savings
rate ``x``; storage + maintenance is the cost rate ``y``; accept when
``x − y > 0``, and report the break-even horizon against the one-time
application cost so an average customer can read the trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.catalog import Catalog
from repro.cost.estimator import CostEstimator
from repro.errors import TuningError
from repro.optimizer.dag_planner import DagPlanner
from repro.plan.pipelines import decompose_pipelines
from repro.sql.binder import BoundQuery
from repro.statsvc.forecast import TemplateForecast
from repro.tuning.clustering import (
    ReclusterCandidate,
    apply_hypothetical_recluster,
    recluster_one_time_cost,
)
from repro.tuning.mv import MVCandidate, register_hypothetical_mv, try_rewrite
from repro.util.units import GB, HOURS_PER_MONTH

#: Object-store price of a materialized view's bytes, $/GB-month.
STORAGE_PRICE_GB_MONTH = 0.023


@dataclass
class TemplateImpact:
    """Per-template dollar impact of a tuning action."""

    template: str
    rate_per_hour: float
    dollars_before: float
    dollars_after: float

    @property
    def savings_per_hour(self) -> float:
        return (self.dollars_before - self.dollars_after) * self.rate_per_hour


@dataclass
class TuningReport:
    """The customer-facing dollar report for one tuning proposal.

    ``candidate`` is the evaluated candidate object itself
    (:class:`~repro.tuning.mv.MVCandidate` or
    :class:`~repro.tuning.clustering.ReclusterCandidate`): the tuning
    action, whose name and kind the report reads off it.
    """

    candidate: "MVCandidate | ReclusterCandidate"
    savings_per_hour: float  # x
    cost_per_hour: float  # y
    one_time_dollars: float
    impacts: list[TemplateImpact] = field(default_factory=list)
    storage_bytes: float = 0.0
    notes: str = ""

    @property
    def action_name(self) -> str:
        return self.candidate.name

    @property
    def kind(self) -> str:
        return self.candidate.kind

    @property
    def net_per_hour(self) -> float:
        """x − y: the paper's accept-if-positive quantity."""
        return self.savings_per_hour - self.cost_per_hour

    @property
    def profitable(self) -> bool:
        return self.net_per_hour > 0

    @property
    def break_even_hours(self) -> float:
        if self.net_per_hour <= 0:
            return float("inf")
        return self.one_time_dollars / self.net_per_hour

    def describe(self) -> str:
        from repro.util.units import fmt_dollars

        verdict = "ACCEPT" if self.profitable else "REJECT"
        lines = [
            f"[{verdict}] {self.action_name} ({self.kind})",
            f"  savings x = {fmt_dollars(self.savings_per_hour)}/h, "
            f"cost y = {fmt_dollars(self.cost_per_hour)}/h, "
            f"net = {fmt_dollars(self.net_per_hour)}/h",
            f"  one-time = {fmt_dollars(self.one_time_dollars)}, "
            f"break-even = "
            + (
                f"{self.break_even_hours:.1f} h"
                if self.break_even_hours != float("inf")
                else "never"
            ),
        ]
        for impact in self.impacts:
            lines.append(
                f"    {impact.template}: {fmt_dollars(impact.dollars_before)} -> "
                f"{fmt_dollars(impact.dollars_after)} per query "
                f"x {impact.rate_per_hour:.2f}/h"
            )
        if self.notes:
            lines.append(f"  note: {self.notes}")
        return "\n".join(lines)


class WhatIfService:
    """Prices tuning proposals against hypothetical catalogs."""

    def __init__(
        self,
        catalog: Catalog,
        estimator: CostEstimator | None = None,
        *,
        churn_fraction_per_hour: float = 0.001,
    ) -> None:
        self.catalog = catalog
        self.estimator = estimator or CostEstimator()
        self.churn_fraction_per_hour = churn_fraction_per_hour

    # ------------------------------------------------------------------ #
    # Shared query pricing
    # ------------------------------------------------------------------ #
    def query_dollars(self, query: BoundQuery, catalog: Catalog) -> float:
        """Dollars to answer ``query`` on ``catalog`` with every
        pipeline at DOP 1."""
        plan = DagPlanner(catalog).plan(query)
        dag = decompose_pipelines(plan)
        # One question, one scratch: nothing priced here stays in the
        # (possibly the warehouse's) estimator.
        dops = {p.pipeline_id: 1 for p in dag}
        return self.estimator.scratch().estimate_dag(dag, dops).total_dollars

    # ------------------------------------------------------------------ #
    # Materialized views
    # ------------------------------------------------------------------ #
    def evaluate_mv(
        self,
        candidate: MVCandidate,
        workload: dict[str, tuple[BoundQuery, TemplateForecast]],
    ) -> TuningReport:
        """Price an MV candidate against the forecast workload."""
        overlay = self.catalog.overlay()
        register_hypothetical_mv(overlay, candidate, self.catalog)

        impacts: list[TemplateImpact] = []
        for template, (query, forecast) in workload.items():
            rewritten = try_rewrite(query, candidate)
            if rewritten is None:
                continue
            before = self.query_dollars(query, self.catalog)
            after = self.query_dollars(rewritten, overlay)
            impacts.append(
                TemplateImpact(
                    template=template,
                    rate_per_hour=forecast.rate_per_hour,
                    dollars_before=before,
                    dollars_after=after,
                )
            )
        if not impacts:
            raise TuningError(
                f"MV candidate {candidate.name} matches no workload template"
            )
        savings = sum(i.savings_per_hour for i in impacts)

        one_time = self._mv_build_dollars(candidate)
        storage_per_hour = (
            (candidate.est_bytes / GB)
            * STORAGE_PRICE_GB_MONTH
            / HOURS_PER_MONTH
        )
        maintenance_per_hour = one_time * self.churn_fraction_per_hour
        return TuningReport(
            candidate=candidate,
            savings_per_hour=savings,
            cost_per_hour=storage_per_hour + maintenance_per_hour,
            one_time_dollars=one_time,
            impacts=impacts,
            storage_bytes=candidate.est_bytes,
            notes=(
                f"maintenance modeled as {self.churn_fraction_per_hour:.2%} of "
                "build cost per hour (incremental refresh on base-table churn)"
            ),
        )

    def _mv_build_dollars(self, candidate: MVCandidate) -> float:
        """One-time cost: run the view-defining join + aggregation once."""
        from repro.sql.binder import Binder
        from repro.tuning.mv import mv_build_sql

        binder = Binder(self.catalog)
        build_query = binder.bind_sql(mv_build_sql(candidate))
        return self.query_dollars(build_query, self.catalog)

    # ------------------------------------------------------------------ #
    # Reclustering
    # ------------------------------------------------------------------ #
    def evaluate_recluster(
        self,
        candidate: ReclusterCandidate,
        workload: dict[str, tuple[BoundQuery, TemplateForecast]],
    ) -> TuningReport:
        """Price reclustering ``table`` on ``key`` against the workload."""
        overlay = self.catalog.overlay()
        apply_hypothetical_recluster(overlay, candidate)

        impacts: list[TemplateImpact] = []
        for template, (query, forecast) in workload.items():
            if candidate.table not in query.table_names:
                continue
            before = self.query_dollars(query, self.catalog)
            after = self.query_dollars(query, overlay)
            impacts.append(
                TemplateImpact(
                    template=template,
                    rate_per_hour=forecast.rate_per_hour,
                    dollars_before=before,
                    dollars_after=after,
                )
            )
        if not impacts:
            raise TuningError(
                f"recluster candidate {candidate.name} touches no workload query"
            )
        savings = sum(i.savings_per_hour for i in impacts)
        _, one_time = recluster_one_time_cost(candidate, self.catalog, self.estimator.hw)

        # Keeping the layout clustered as data arrives costs a share of
        # the full rewrite per hour, proportional to churn.
        maintenance = one_time * self.churn_fraction_per_hour
        return TuningReport(
            candidate=candidate,
            savings_per_hour=savings,
            cost_per_hour=maintenance,
            one_time_dollars=one_time,
            impacts=impacts,
            notes="savings come from zone-map pruning on the new clustering key",
        )
