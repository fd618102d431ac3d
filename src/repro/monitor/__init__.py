"""DOP monitor: run-time cluster resizing at pipeline granularity (§3.3).

The monitor watches true cardinalities and flow rates during execution.
Small deviations from the static plan adjust the affected pipeline's DOP
via the scalability models; substantial deviations re-invoke the DOP
planner with the observed statistics.  Baseline policies reproduce the
two prior-art categories the paper contrasts: whole-cluster interval
scaling (Jockey/Ellis-style) and per-stage scaling with materialized
"clean cuts" (BigQuery-style).
"""
