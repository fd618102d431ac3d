"""Discrete-event distributed execution simulator.

Plays the role of the paper's real cluster (their testbed): executes a
pipeline DAG over simulated elastic nodes with *hidden* ground-truth
behavior the analytic estimator does not know — partition skew,
stochastic rate noise, miscalibrated exchange constants, warm-pool
latencies, lease-minimum billing — plus true cardinalities instead of
optimizer estimates.  The DOP monitor (§3.3) runs inside it via scaling
policies and corrects deviations at run time.
"""
