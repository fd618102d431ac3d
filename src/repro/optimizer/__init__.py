"""DAG planning: the classical cost-based optimizer stage.

The paper separates *DAG planning* (traditional query optimization
producing an execution DAG) from *DOP planning* (per-pipeline parallelism)
— this package is the former: cardinality estimation, join ordering,
physical operator selection, exchange placement, and the bushy-variant
generator that the DOP-planning stage explores (§3.2).
"""
