"""The co-finish heuristic (paper §3.2).

"A heuristic that we use to speed up DOP planning ... is to make sure
that these (concurrent) dependent pipelines finish roughly at the same
time to minimize resource waste due to pipeline waiting.  Specifically,
if the two dependent pipelines ... have input cardinalities C1 and C2,
and the throughput functions ... are T1(·) and T2(·), we ensure that the
DOP assignments satisfy C1/T1(DOP1) ≈ C2/T2(DOP2)."

Implementation: given a sibling group (pipelines sharing a consumer) and
a target completion time, assign each sibling the smallest DOP whose
modeled duration meets the target.  Because durations are not perfectly
divisible (startup overheads, integral DOPs), "roughly at the same time"
is the best achievable — exactly as the paper phrases it.
"""

from __future__ import annotations

from repro.cost.estimator import CostEstimator
from repro.errors import OptimizerError
from repro.plan.pipelines import Pipeline, PipelineDag


def min_dop_for_duration(
    pipeline: Pipeline,
    target_seconds: float,
    estimator: CostEstimator,
    *,
    max_dop: int,
    overrides: dict[int, float] | None = None,
) -> int:
    """Smallest DOP whose modeled duration is <= ``target_seconds``.

    Durations are not monotone in DOP forever (exchange setup eventually
    dominates), so this scans upward and returns the best-duration DOP
    if the target is unreachable.
    """
    if target_seconds <= 0:
        raise OptimizerError(f"target duration must be positive: {target_seconds}")
    duration_at = estimator.durations(pipeline, overrides)
    best_dop = 1
    best_duration = float("inf")
    dop = 1
    while dop <= max_dop:
        duration = duration_at(dop)
        if duration <= target_seconds:
            return dop
        if duration < best_duration:
            best_duration = duration
            best_dop = dop
        dop *= 2
    return best_dop


def equalize_siblings(
    dag: PipelineDag,
    dops: dict[int, int],
    estimator: CostEstimator,
    *,
    max_dop: int,
    overrides: dict[int, float] | None = None,
) -> dict[int, int]:
    """Rebalance every sibling group to co-finish (polish pass).

    For each group, the slowest sibling's duration becomes the target;
    other siblings shrink to the smallest DOP still meeting it.  The
    group's completion time (max finish) never increases, so query
    latency is preserved while idle pinned time shrinks.
    """
    adjusted = dict(dops)
    seen_groups: set[int] = set()
    for pipeline in dag:
        consumer = pipeline.consumer_id
        if consumer is None or consumer in seen_groups:
            continue
        seen_groups.add(consumer)
        group = dag.siblings(pipeline.pipeline_id)
        if len(group) < 2:
            continue
        target = max(
            estimator.durations(p, overrides)(adjusted[p.pipeline_id]) for p in group
        )
        for sibling in group:
            pid = sibling.pipeline_id
            candidate = min_dop_for_duration(
                sibling, target, estimator, max_dop=max_dop, overrides=overrides
            )
            if candidate < adjusted[pid]:
                adjusted[pid] = candidate
    return adjusted
