"""Scaling policies: the paper's DOP monitor and the prior-art baselines.

All policies implement the :class:`repro.sim.distsim.ScalingPolicy`
protocol and run inside the distributed simulator.

- :class:`StaticPolicy` — execute the static plan unchanged.
- :class:`PipelineDopMonitor` — the paper's §3.3 design: pipeline-granular
  adjustment for moderate deviations, full DOP replanning (at most
  :data:`MAX_REPLANS` per query) for substantial ones, fed by observed
  true cardinalities.  A replan searches afresh only once a cardinality
  has been learned; it reuses the walk's curves, nothing else.
- :class:`IntervalScalerPolicy` — whole-cluster scaling on a fixed cadence
  against an SLA (Jockey/Ellis family): scales *every* active pipeline by
  the same factor, which the paper notes "could hurt their resource
  utilization".
- :class:`PerStageScalerPolicy` — BigQuery-style: only re-sizes *future*
  stages using cardinalities revealed at stage boundaries; pair it with
  ``SimConfig(materialize_exchanges=True)`` to charge the "clean cut"
  materialization the paper argues is nonessential.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.cost.estimator import CostEstimator
from repro.dop.cofinish import min_dop_for_duration
from repro.dop.constraints import Constraint
from repro.dop.planner import DopPlanner
from repro.errors import ReproError
from repro.monitor.deviation import DeviationThresholds, deviation_ratio
from repro.plan.pipelines import PipelineDag
from repro.sim.distsim import (
    CheckpointObservation,
    ResizeDecision,
    ScalingPolicy,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.bioptimizer import PlanChoice

POLICY_NAMES = ("dop-monitor", "static", "interval-scaler", "stage-scaler")

#: Full replans a :class:`PipelineDopMonitor` makes per query; past it, a
#: major deviation gets the single-pipeline correction only.
MAX_REPLANS = 2
#: Share of the SLA an :class:`IntervalScalerPolicy` aims to finish in.
INTERVAL_SLACK = 0.9


class StaticPolicy(ScalingPolicy):
    """No run-time adaptation (the static-plan baseline)."""

    name = "static"


class PipelineDopMonitor(ScalingPolicy):
    """The paper's DOP monitor (§3.3).

    Collects true cardinalities at checkpoints.  A deviation between the
    minor and major thresholds re-derives *this pipeline's* DOP from the
    scalability models so the pipeline still finishes near its planned
    duration.  A deviation beyond the major threshold re-invokes the DOP
    planner over the remaining pipelines with all observations learned
    so far.

    "Learned" means "differs from what the plan assumed": a source whose
    true rows equal its ``est_rows`` is not recorded.  While nothing is
    learned, a full replan takes ``planned_dops`` as the replanned
    assignment without searching, and the single-pipeline correction
    reads the estimate-mode curve (``overrides=None``) the optimizer
    already compiled (the warehouse builds the monitor over the planning
    walk's estimator scratch, so the curves are the search's).  This
    rests on one invariant: ``planned_dops`` is the estimator's own
    ``overrides=None`` search for this DAG under this constraint and
    ``max_dop`` (what :func:`make_policy` passes from the served
    :class:`PlanChoice`), which an observed-mode search with every
    source pinned to its estimate returns unchanged
    (``tests/cost/test_estimation_parity.py`` holds that equivalence).
    Deviations in duration alone — skew, noise — then trigger no search,
    since a DOP replan on unchanged cardinalities cannot correct them.
    """

    name = "dop-monitor"

    def __init__(
        self,
        dag: PipelineDag,
        estimator: CostEstimator,
        constraint: Constraint,
        planned_dops: dict[int, int],
        *,
        planned_latency: float | None = None,
        planned_durations: dict[int, float] | None = None,
        thresholds: DeviationThresholds | None = None,
        max_dop: int = 64,
    ) -> None:
        self.dag = dag
        self.estimator = estimator
        self.constraint = constraint
        self.planned_dops = dict(planned_dops)
        self.planned_latency = planned_latency
        self.planned_durations = dict(planned_durations or {})
        self.thresholds = thresholds or DeviationThresholds()
        self.max_dop = max_dop
        self._planner = DopPlanner(estimator, max_dop=max_dop)
        self.learned: dict[int, float] = {}
        self.adjustments = 0
        self.replans = 0
        self._finished: set[int] = set()

    def _sla_slack(self) -> float:
        """How much looser than the plan the SLA is (>= 1 when headroom).

        Per-pipeline correction targets scale by this factor: there is no
        point restoring the planned duration exactly when the SLA leaves
        4x headroom — doing so buys latency nobody asked for (and pays
        for it).
        """
        if (
            self.constraint.latency_sla is None
            or self.planned_latency is None
            or self.planned_latency <= 0
        ):
            return 1.0
        return max(1.0, self.constraint.latency_sla / self.planned_latency)

    # ------------------------------------------------------------------ #
    def on_checkpoint(self, obs: CheckpointObservation) -> ResizeDecision | None:
        self._learn(obs.pipeline_id, obs.true_source_rows)
        deviation = max(
            deviation_ratio(obs.true_source_rows, obs.planned_source_rows),
            deviation_ratio(obs.projected_duration, obs.planned_duration)
            if obs.planned_duration > 0
            else 1.0,
        )
        action = self.thresholds.classify(deviation)
        if action == "none":
            return None
        if action == "adjust":
            return self._adjust_single(obs)
        return self._full_replan(obs)

    def _adjust_single(self, obs: CheckpointObservation) -> ResizeDecision | None:
        """Re-derive this pipeline's DOP from its remaining SLA budget.

        The remaining wall-clock budget is split across this pipeline and
        the not-yet-finished rest proportionally to their planned
        durations; the pipeline then gets the smallest DOP whose modeled
        remaining time fits its share.
        """
        pipeline = self.dag.pipeline(obs.pipeline_id)
        target_full = self._target_full_duration(obs)
        if target_full is None or obs.projected_duration <= target_full:
            return None
        new_dop = min_dop_for_duration(
            pipeline,
            max(target_full, 1e-3),
            self.estimator,
            max_dop=self.max_dop,
            overrides=self.learned or None,
        )
        if new_dop == obs.dop:
            return None
        self.adjustments += 1
        return ResizeDecision(new_dop=new_dop)

    def _target_full_duration(self, obs: CheckpointObservation) -> float | None:
        planned_here = (
            obs.planned_duration if obs.planned_duration > 0 else obs.projected_duration
        )
        if self.constraint.latency_sla is None or not self.planned_durations:
            return planned_here * self._sla_slack()
        remaining_sla = self.constraint.latency_sla - obs.time
        if remaining_sla <= 0:
            return planned_here  # SLA already blown; recover the plan pace
        planned_remaining_here = (1.0 - obs.progress) * planned_here
        planned_rest = sum(
            duration
            for pid, duration in self.planned_durations.items()
            if pid != obs.pipeline_id and pid not in self._finished
        )
        total = planned_remaining_here + planned_rest
        if total <= 0:
            return planned_here * self._sla_slack()
        share = planned_remaining_here / total
        target_remaining = max(1e-3, remaining_sla * share)
        remaining_fraction = max(1e-3, 1.0 - obs.progress)
        return target_remaining / remaining_fraction

    def _full_replan(self, obs: CheckpointObservation) -> ResizeDecision | None:
        if self.replans >= MAX_REPLANS:
            return self._adjust_single(obs)
        self.replans += 1
        if self.learned:
            dops = self._planner.plan(
                self.dag, self.constraint, overrides=self.learned
            ).dops
        else:
            dops = self.planned_dops  # a search would return them; see class doc
        replan = {pid: dop for pid, dop in dops.items() if pid != obs.pipeline_id}
        # The replanned DOP for the running pipeline may still be too slow
        # given the time already burned; take the max with the
        # budget-aware single-pipeline correction.
        adjusted = self._adjust_single(obs)
        new_dop = dops.get(obs.pipeline_id, obs.dop)
        if adjusted is not None and adjusted.new_dop is not None:
            new_dop = max(new_dop, adjusted.new_dop)
        return ResizeDecision(
            new_dop=new_dop if new_dop != obs.dop else None, replan=replan
        )

    def on_pipeline_finish(
        self, pipeline_id: int, time: float, true_rows: float
    ) -> dict[int, int] | None:
        self._learn(pipeline_id, true_rows)
        self._finished.add(pipeline_id)
        return None

    def _learn(self, pipeline_id: int, true_rows: float) -> None:
        pipeline = self.dag.pipeline(pipeline_id)
        source = pipeline.ops[0].node
        if true_rows != float(source.est_rows):
            self.learned[source.node_id] = true_rows


class IntervalScalerPolicy(ScalingPolicy):
    """Whole-cluster interval scaling against an SLA (Jockey/Ellis style).

    At each observation it projects query completion assuming remaining
    pipelines run at planned durations; if the projection misses the SLA
    it scales the *current* pipeline and all pending pipelines by the
    same lateness factor — the coarse-grained behavior the paper
    contrasts with pipeline-granular resizing.
    """

    name = "interval-scaler"

    def __init__(
        self,
        dag: PipelineDag,
        sla_seconds: float,
        planned_dops: dict[int, int],
        planned_durations: dict[int, float],
        *,
        max_dop: int = 64,
    ) -> None:
        self.dag = dag
        self.sla = sla_seconds
        self.planned_dops = dict(planned_dops)
        self.planned_durations = dict(planned_durations)
        self.max_dop = max_dop
        self.scale_ups = 0

    def on_checkpoint(self, obs: CheckpointObservation) -> ResizeDecision | None:
        remaining_here = (1.0 - obs.progress) * obs.projected_duration
        pending = [
            pid
            for pid, state_duration in self.planned_durations.items()
            if pid != obs.pipeline_id
        ]
        # Crude serial projection (the style of SLA-progress scalers).
        remaining_rest = sum(
            self.planned_durations[pid] for pid in pending if pid > obs.pipeline_id
        )
        projected_finish = obs.time + remaining_here + remaining_rest
        deadline = self.sla * INTERVAL_SLACK
        if projected_finish <= deadline:
            return None
        lateness = projected_finish / max(deadline, 1e-9)
        factor = max(2.0, lateness)
        self.scale_ups += 1
        new_dop = min(self.max_dop, max(obs.dop + 1, math.ceil(obs.dop * factor)))
        replan = {
            pid: min(self.max_dop, math.ceil(self.planned_dops.get(pid, 1) * factor))
            for pid in pending
        }
        return ResizeDecision(new_dop=new_dop, replan=replan)


class PerStageScalerPolicy(ScalingPolicy):
    """Per-stage scaling at shuffle boundaries (BigQuery style).

    Never resizes a running pipeline.  When a pipeline finishes, its true
    output cardinality re-sizes the not-yet-started pipelines
    proportionally to the volume they will now receive.  Use together
    with ``SimConfig(materialize_exchanges=True)`` so every exchange pays
    the materialization round-trip such engines require.
    """

    name = "stage-scaler"

    def __init__(
        self,
        dag: PipelineDag,
        planned_dops: dict[int, int],
        *,
        max_dop: int = 64,
    ) -> None:
        self.dag = dag
        self.planned_dops = dict(planned_dops)
        self.max_dop = max_dop
        self.restages = 0
        self._ratios: dict[int, float] = {}

    def on_pipeline_finish(
        self, pipeline_id: int, time: float, true_rows: float
    ) -> dict[int, int] | None:
        pipeline = self.dag.pipeline(pipeline_id)
        planned_rows = float(pipeline.ops[0].node.est_rows)
        ratio = true_rows / planned_rows if planned_rows > 0 else 1.0
        self._ratios[pipeline_id] = ratio
        consumer = pipeline.consumer_id
        if consumer is None:
            return None
        sibling_ratios = [
            self._ratios.get(p.pipeline_id, 1.0)
            for p in self.dag.siblings(pipeline_id)
        ]
        factor = max(sibling_ratios)
        planned = self.planned_dops.get(consumer, 1)
        new_dop = min(self.max_dop, max(1, math.ceil(planned * factor)))
        if new_dop != planned:
            self.restages += 1
        return {consumer: new_dop}


def make_policy(
    name: str,
    choice: "PlanChoice",
    constraint: Constraint,
    estimator: CostEstimator,
    *,
    max_dop: int,
) -> ScalingPolicy:
    """Instantiate a scaling policy by name for one query."""
    plan = choice.dop_plan
    if name == "static":
        return StaticPolicy()
    if name == "stage-scaler":
        return PerStageScalerPolicy(choice.dag, plan.dops, max_dop=max_dop)
    durations = {pid: p.duration for pid, p in plan.estimate.pipelines.items()}
    if name == "dop-monitor":
        return PipelineDopMonitor(
            choice.dag,
            estimator,
            constraint,
            plan.dops,
            planned_latency=plan.estimate.latency,
            planned_durations=durations,
            max_dop=max_dop,
        )
    if name == "interval-scaler":
        sla = constraint.latency_sla or plan.estimate.latency * 1.5
        return IntervalScalerPolicy(
            choice.dag, sla, plan.dops, durations, max_dop=max_dop
        )
    raise ReproError(f"unknown policy {name!r}; known: {POLICY_NAMES}")
