"""The keys and counters of the estimator's memo.

Pipeline timing is a pure function of ``(pipeline, dop, overrides)``,
and within one ``(pipeline, overrides)`` only the DOP varies, so
:meth:`repro.cost.estimator.CostEstimator.curve` keeps one compiled
:class:`~repro.cost.curve.PipelineCurve` per ``(pipeline, projected
overrides)`` in a plain dictionary of the estimator's — one more table
of a planning walk's scratch, dropped with it — and the curve memoizes
its own durations per DOP.  This module holds what that table is keyed
by (:func:`overrides_key`) and what it, and the estimator's other
memos, count into (:class:`TimingCacheStats`, one instance per
estimator, shared by every scratch made from it).

Correctness contract (enforced by the parity suite in
``tests/cost/test_estimation_parity.py``): a curve performs exactly the
float operations the per-call ``pipeline_volumes`` + ``op_time``
reference (:mod:`repro.testing.reference`) performs, so estimates are
bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass


def overrides_key(overrides: dict[int, float] | None) -> tuple | None:
    """Hashable identity of a cardinality-overrides mapping.

    ``None`` and ``{}`` are deliberately distinct: passing any mapping —
    even an empty one — switches the volume model into
    observed-selectivity mode for un-overridden operators.
    """
    if overrides is None:
        return None
    return tuple(sorted(overrides.items()))


@dataclass
class TimingCacheStats:
    """Hit/miss counters (``describe_caches()["timing_cache"]``).

    ``timing_*`` count per-DOP duration lookups on the curves;
    ``curve_*`` count curve lookups and compilations (one volume walk
    each); ``plan_*`` count whole DOP searches answered from, and stored
    into, the estimator's per-DAG plan memo; ``simulation_*`` count
    simulated executions answered from, and stored into, its per-DAG
    simulation memo.  One instance is shared by an estimator and every
    scratch made from it.
    """

    curve_hits: int = 0
    curve_computations: int = 0
    timing_hits: int = 0
    timing_computations: int = 0
    plan_hits: int = 0
    plan_computations: int = 0
    simulation_hits: int = 0
    simulation_computations: int = 0

    def reset(self) -> None:
        self.curve_hits = 0
        self.curve_computations = 0
        self.timing_hits = 0
        self.timing_computations = 0
        self.plan_hits = 0
        self.plan_computations = 0
        self.simulation_hits = 0
        self.simulation_computations = 0

    def describe(self) -> str:
        return (
            f"timings: {self.timing_hits} hits / "
            f"{self.timing_computations} computed; "
            f"curves: {self.curve_hits} hits / "
            f"{self.curve_computations} compiled; "
            f"plans: {self.plan_hits} hits / "
            f"{self.plan_computations} searched; "
            f"simulations: {self.simulation_hits} hits / "
            f"{self.simulation_computations} run"
        )
