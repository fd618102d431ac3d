"""Statistics Service (paper §4).

"A comprehensive and efficient Statistics Service is the foundation of
accurate workload predictions."  Collects query execution logs, computes
queryable workload summaries (file/attribute access counts, weighted
join graphs, resource usage), forecasts workloads per template, and
manages its own collection cost via sampling and hot/cold tiering.
"""
