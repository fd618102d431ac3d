"""The estimator's memo: one compiled cost curve per pipeline and overrides.

Pipeline timing is a pure function of ``(pipeline, dop, overrides)``,
and within one ``(pipeline, overrides)`` only the DOP varies.  The cache
therefore holds one :class:`~repro.cost.curve.PipelineCurve` per
``(pipeline, projected overrides)``; the curve memoizes its own
durations per DOP.  Every consumer of one estimator — the DOP planner's
search, the co-finish polish, the DOP monitor's replans, the What-If
Service, the distributed simulator — reads the same curves.

Curves are keyed *by pipeline identity* in a plain dictionary that lives
as long as its estimator; in serving that is one planning walk's
scratch (:meth:`~repro.cost.estimator.CostEstimator.scratch`), whose
curves die with the walk while its counters are the warehouse's.

Cardinality overrides are *projected per pipeline* before keying: the
volume model only ever reads override entries for the pipeline's own
plan nodes (plus whether a mapping was passed at all, which switches
un-overridden operators into observed-selectivity mode), so two
override mappings that agree on this pipeline's nodes are the same
curve.  Without the projection, a DOP monitor that learns one
node-local truth would recompile *every* pipeline in the plan; with it,
only the pipeline that owns the overridden node does.

Correctness contract (enforced by the parity suite in
``tests/cost/test_estimation_parity.py``): a curve performs exactly the
float operations the per-call ``pipeline_volumes`` + ``op_time``
reference (:mod:`repro.testing.reference`) performs, so estimates are
bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.cost.curve import PipelineCurve
from repro.plan.pipelines import Pipeline


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


class TimingCache:
    """Per-pipeline memo of compiled cost curves.

    Owned by one :class:`~repro.cost.operator_models.OperatorModels`; all
    of that estimator's callers share it automatically.  ``stats`` is
    passed in when the cache belongs to a scratch and counts into its
    parent's counters.
    """

    def __init__(self, stats: TimingCacheStats | None = None) -> None:
        # pipeline -> (its plan-node ids, {overrides_key: PipelineCurve})
        self._entries: dict[Pipeline, tuple[frozenset, dict]] = {}
        self.stats = stats if stats is not None else TimingCacheStats()

    def _entry(self, pipeline: Pipeline) -> tuple[frozenset, dict]:
        entry = self._entries.get(pipeline)
        if entry is None:
            node_ids = frozenset(op.node.node_id for op in pipeline.ops)
            entry = self._entries[pipeline] = (node_ids, {})
        return entry

    @staticmethod
    def _project_overrides(
        node_ids: frozenset, overrides: dict[int, float] | None
    ) -> dict[int, float] | None:
        """Restrict overrides to the pipeline's own plan nodes.

        Safe because the volume model reads overrides only at this
        pipeline's node ids; ``None`` stays ``None`` and a non-empty
        mapping may project to ``{}`` (both distinctions matter — any
        mapping enables observed-selectivity mode).  Projection widens
        key sharing: a node-local truth learned by the DOP monitor no
        longer fragments every *other* pipeline's curves.
        """
        if overrides is None:
            return None
        if overrides.keys() <= node_ids:
            return overrides
        return {
            node_id: rows
            for node_id, rows in overrides.items()
            if node_id in node_ids
        }

    def curve(
        self,
        pipeline: Pipeline,
        overrides: dict[int, float] | None,
        compile: Callable[[Pipeline, dict[int, float] | None], PipelineCurve],
    ) -> PipelineCurve:
        """The pipeline's curve under ``overrides``; ``compile`` runs on
        a miss, with the overrides already projected."""
        node_ids, curves = self._entry(pipeline)
        overrides = self._project_overrides(node_ids, overrides)
        key = overrides_key(overrides)
        found = curves.get(key)
        if found is None:
            self.stats.curve_computations += 1
            found = curves[key] = compile(pipeline, overrides)
        else:
            self.stats.curve_hits += 1
        return found

    def invalidate(self) -> None:
        """Drop every curve (call after recalibrating hardware or
        exchange coefficients — curves bake both in)."""
        self._entries.clear()

    def __len__(self) -> int:
        """Memoized ``(pipeline, overrides, dop)`` durations."""
        return sum(
            len(curve)
            for _, curves in self._entries.values()
            for curve in curves.values()
        )
