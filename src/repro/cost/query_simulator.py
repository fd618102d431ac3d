"""Query-level analytic simulator (paper §3.1).

"Based on the per-operator scalability models, we can compute the
throughput of an operator pipeline given a DOP assignment and thus
estimate its execution time and total machine time (∝ cost).  The query
simulator then models the data flow in each pipeline of a query plan."

This is the *lightweight* simulator the optimizer invokes many times per
query: an ASAP schedule of the pipeline DAG where each pipeline runs for
its modeled duration, concurrent pipelines overlap freely, and breaker
pipelines hold their nodes (billed, idle) until their consumer starts —
the "accumulated blocked time" the DOP planner minimizes.

Not to be confused with :mod:`repro.sim.distsim`, the heavyweight
discrete-event simulator that plays the role of the real cluster.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cost.estimate import CostEstimate, PipelineCost
from repro.errors import EstimationError
from repro.plan.pipelines import PipelineDag

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.cost.estimator import CostEstimator


def simulate_dag(
    dag: PipelineDag,
    dops: dict[int, int],
    estimator: CostEstimator,
    *,
    overrides: dict[int, float] | None = None,
) -> CostEstimate:
    """Schedule the pipeline DAG and price it.

    ``dops`` maps pipeline id -> degree of parallelism (node count).
    ``overrides`` maps plan-node id -> observed true cardinality.  Every
    pipeline that must acquire nodes beyond those inherited from its
    finished producers pays the warm-pool attach latency.  Durations
    come from ``estimator``'s curves; dollars at the node price of its
    calibration.
    """
    hw = estimator.hw

    inherited: dict[int, int] = {pid: 0 for pid in dops}
    for pipeline in dag:
        if pipeline.consumer_id is not None and pipeline.consumer_id in inherited:
            inherited[pipeline.consumer_id] += dops.get(pipeline.pipeline_id, 0)

    timings: dict[int, tuple[float, str, float]] = {}
    for pipeline in dag:
        pid = pipeline.pipeline_id
        dop = dops.get(pid)
        if dop is None:
            raise EstimationError(f"no DOP for pipeline {pid}")
        duration, bottleneck, source_rows = estimator.pipeline_summary(
            pipeline, dop, overrides
        )
        if dop > inherited.get(pid, 0):
            duration += hw.warm_attach_latency_s
        timings[pid] = (duration, bottleneck, source_rows)

    # ASAP schedule over blocking dependencies.
    start: dict[int, float] = {}
    finish: dict[int, float] = {}
    for pipeline in dag.topological_order():
        pid = pipeline.pipeline_id
        begin = max(
            (finish[dep] for dep in pipeline.blocking_deps),
            default=0.0,
        )
        start[pid] = begin
        finish[pid] = begin + timings[pid][0]

    estimate = CostEstimate(latency=0.0, machine_seconds=0.0, dollars=0.0)
    latency = max(finish.values(), default=0.0)
    for pipeline in dag:
        pid = pipeline.pipeline_id
        duration, bottleneck, source_rows = timings[pid]
        if pipeline.consumer_id is not None:
            waste = max(0.0, start[pipeline.consumer_id] - finish[pid])
        else:
            waste = 0.0
        cost = PipelineCost(
            pipeline_id=pid,
            dop=dops[pid],
            start=start[pid],
            duration=duration,
            waste=waste,
            bottleneck=bottleneck,
            source_rows=source_rows,
        )
        estimate.pipelines[pid] = cost
        estimate.machine_seconds += cost.machine_seconds

    estimate.latency = latency
    estimate.dollars = estimate.machine_seconds * hw.node.price_per_second
    return estimate


class ScheduleSweeper:
    """Batched lean scheduling of single-pipeline DOP moves on one DAG.

    The DOP planner's greedy rounds evaluate many candidate assignments
    that differ from the incumbent in exactly one pipeline's DOP, so the
    DAG structure — iteration order, topological order, blocking
    dependencies, consumer edges — is shared by every candidate and is
    precomputed here once per search (as positional indexes; no dict
    lookups on the per-candidate path).  :meth:`sweep` then prices a
    whole round of moves, returning per move exactly the ``(latency,
    machine_seconds)`` that :func:`simulate_dag` would produce for
    the mutated assignment — the same arithmetic in the same order, so
    the floats are bit-identical — without building per-candidate
    ``CostEstimate``/``PipelineCost`` objects.  The planner materializes
    a full estimate only at phase boundaries.
    """

    def __init__(self, dag: PipelineDag, estimator: CostEstimator) -> None:
        self.attach = estimator.hw.warm_attach_latency_s
        self.pids = [p.pipeline_id for p in dag]
        self.index = {pid: i for i, pid in enumerate(self.pids)}
        self.consumer: list[int | None] = [
            self.index.get(p.consumer_id) if p.consumer_id is not None else None
            for p in dag
        ]
        topo = dag.topological_order()
        self._topo_pairs = [
            (
                self.index[p.pipeline_id],
                tuple(self.index[dep] for dep in p.blocking_deps),
            )
            for p in topo
        ]
        self.deps_by_pos: list[tuple[int, ...]] = [()] * len(self.pids)
        for position, deps in self._topo_pairs:
            self.deps_by_pos[position] = deps

    def _base(
        self, dops: list[int], durations: list[float]
    ) -> tuple[list[int], list[float]]:
        """Nodes each pipeline inherits from its finished producers, and
        the durations with the warm-attach term of every pipeline that
        must acquire more."""
        inherited = [0] * len(dops)
        for i, c in enumerate(self.consumer):
            if c is not None:
                inherited[c] += dops[i]
        durs = list(durations)
        for i, nodes in enumerate(inherited):
            if dops[i] > nodes:
                durs[i] += self.attach
        return inherited, durs

    def filter_gainful(
        self,
        dops: list[int],
        durations: list[float],
        candidates: list[tuple[int, int]],
    ) -> tuple[list[bool], float, float, tuple[list[int], list[float]]]:
        """Which ``(position, new_dop)`` candidates can reduce latency.

        Schedules the *base* assignment once and marks the pipelines on
        a critical chain (start equals a dependency's finish all the
        way up from a latency-achieving pipeline).  A single-pipeline
        move at position ``p`` changes only ``p``'s duration and — when
        the added nodes flip the consumer's warm-attach condition off —
        its direct consumer's; every dependency chain avoiding the
        changed pipelines is scheduled bit-identically, so unless one
        of them is on some critical chain the move's latency is >= the
        base latency: its gain is <= 0 and a gain-scored greedy round
        discards it without ever costing it.  Returns the keep flags
        plus the base ``(latency, machine_seconds)`` to report for
        pruned candidates (any value would do — the planner's gain
        check discards them — but the base metrics keep reports
        honest), and the built base state for :meth:`sweep` to reuse.
        """
        consumer = self.consumer
        n = len(self.pids)
        inherited, durs = self._base(dops, durations)

        start = [0.0] * n
        finish = [0.0] * n
        for i, deps in self._topo_pairs:
            begin = 0.0
            for dep in deps:
                done = finish[dep]
                if done > begin:
                    begin = done
            start[i] = begin
            finish[i] = begin + durs[i]
        latency = max(finish) if n else 0.0
        machine_seconds = 0.0
        for i in range(n):
            c = consumer[i]
            if c is not None:
                waste = start[c] - finish[i]
                if waste < 0.0:
                    waste = 0.0
            else:
                waste = 0.0
            machine_seconds += dops[i] * (durs[i] + waste)

        # Backward critical-chain marking: latency achievers, then every
        # dependency whose finish binds its consumer's start.
        critical = [False] * n
        stack = [i for i in range(n) if finish[i] == latency]
        for i in stack:
            critical[i] = True
        while stack:
            i = stack.pop()
            begin = start[i]
            for dep in self.deps_by_pos[i]:
                if not critical[dep] and finish[dep] == begin:
                    critical[dep] = True
                    stack.append(dep)
        keep = []
        for p, new_dop in candidates:
            if critical[p]:
                keep.append(True)
                continue
            c = consumer[p]
            if c is None or not critical[c]:
                keep.append(False)
                continue
            # The consumer's duration changes only when the candidate's
            # extra nodes flip its warm-attach condition off.
            flips = (
                dops[c] > inherited[c]
                and dops[c] <= inherited[c] - dops[p] + new_dop
            )
            keep.append(flips)
        return keep, latency, machine_seconds, (inherited, durs)

    def sweep(
        self,
        dops: list[int],
        durations: list[float],
        moves: list[tuple[int, int, float]],
        state: tuple[list[int], list[float]] | None = None,
    ) -> list[tuple[float, float]]:
        """``(latency, machine_seconds)`` per move.

        ``dops`` and ``durations`` (raw pipeline durations, before the
        warm-attach term) are listed in DAG order; ``moves`` entries are
        ``(position, new_dop, new_raw_duration)``.  ``state`` is the
        ``(inherited, base_durations)`` pair a preceding
        :meth:`filter_gainful` on the same assignment built.
        """
        attach = self.attach
        consumer = self.consumer
        n = len(self.pids)
        inherited, base = state if state is not None else self._base(dops, durations)

        results: list[tuple[float, float]] = []
        start = [0.0] * n
        finish = [0.0] * n
        topo_pairs = self._topo_pairs
        durs = base  # patched in place per move and restored after
        for moved, new_dop, new_raw in moves:
            saved_moved = durs[moved]
            duration = new_raw
            if new_dop > inherited[moved]:
                duration += attach
            durs[moved] = duration
            # The move changes how many nodes the consumer inherits,
            # which can flip the consumer's warm-attach term.
            moved_consumer = consumer[moved]
            if moved_consumer is not None:
                saved_consumer = durs[moved_consumer]
                consumer_inherited = inherited[moved_consumer] - dops[moved] + new_dop
                duration = durations[moved_consumer]
                if dops[moved_consumer] > consumer_inherited:
                    duration += attach
                durs[moved_consumer] = duration

            for i, deps in topo_pairs:
                begin = 0.0
                for dep in deps:
                    done = finish[dep]
                    if done > begin:
                        begin = done
                start[i] = begin
                finish[i] = begin + durs[i]

            latency = max(finish) if n else 0.0
            machine_seconds = 0.0
            for i in range(n):
                c = consumer[i]
                if c is not None:
                    waste = start[c] - finish[i]
                    if waste < 0.0:
                        waste = 0.0
                else:
                    waste = 0.0
                dop = new_dop if i == moved else dops[i]
                machine_seconds += dop * (durs[i] + waste)
            results.append((latency, machine_seconds))

            durs[moved] = saved_moved
            if moved_consumer is not None:
                durs[moved_consumer] = saved_consumer
        return results
