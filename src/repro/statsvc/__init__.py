"""Statistics Service (paper §4).

"A comprehensive and efficient Statistics Service is the foundation of
accurate workload predictions."  Collects query execution logs, computes
queryable workload summaries (file/attribute access counts, weighted
join graphs, resource usage), forecasts workloads per template, and
manages its own collection cost via sampling and hot/cold tiering.
"""

from repro.statsvc.logs import QueryLogStore, QueryRecord
from repro.statsvc.summaries import WorkloadSummary, build_summary
from repro.statsvc.join_graph import JoinGraph
from repro.statsvc.forecast import WorkloadForecaster, TemplateForecast
from repro.statsvc.sampling import StatsServiceCostModel, summary_error

__all__ = [
    "QueryRecord",
    "QueryLogStore",
    "WorkloadSummary",
    "build_summary",
    "JoinGraph",
    "WorkloadForecaster",
    "TemplateForecast",
    "StatsServiceCostModel",
    "summary_error",
]
