"""DOP planning (paper §3.2): per-pipeline degrees of parallelism.

Searches DOP assignments for a pipeline DAG under a user constraint —
minimum dollars subject to a latency SLA, or minimum latency subject to a
budget — using the cost estimator as the referee, with the co-finish
heuristic (C1/T1(DOP1) ≈ C2/T2(DOP2)) pruning the sibling search space.
"""
