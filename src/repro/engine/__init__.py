"""Local columnar execution engine.

Executes physical plans for real on numpy data, single process.  Its role
in the reproduction is correctness ground truth: it produces true result
sets and true per-operator cardinalities, which the distributed simulator
and the DOP monitor experiments use as the "run-time feedback" the paper's
§3.3 relies on.
"""
