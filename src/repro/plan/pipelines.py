"""Pipeline decomposition of physical plans.

The unit of DOP assignment in the paper is the *pipeline* (execution
stage): a maximal chain of streaming operators between pipeline breakers.
Breakers are hash-join builds, blocking aggregations, and sorts.
Exchanges are streaming operators and stay inside a pipeline — the paper
explicitly avoids "clean cuts" at shuffle boundaries (§3.3).

Execution/cost semantics encoded here (shared by the analytic estimator
and the discrete-event simulator):

- A pipeline may start only when all its *blocking* dependencies have
  finished (paper §3.2: "a pipeline cannot start until all of its
  dependent pipelines are complete").
- A breaker pipeline's nodes hold materialized state (hash table, sorted
  runs, aggregate groups) and remain leased — idle but billed — until the
  consuming pipeline starts and takes the nodes over.  The gap between a
  producer finishing and its consumer starting is the "resource waste due
  to pipeline waiting" the co-finish heuristic minimizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import PlanError
from repro.plan.physical import (
    AggMode,
    PhysAggregate,
    PhysExchange,
    PhysFilter,
    PhysHashJoin,
    PhysLimit,
    PhysNode,
    PhysProject,
    PhysScan,
    PhysSort,
)

#: Roles an operator can play within a pipeline (costing differs by role).
ROLE_SOURCE_SCAN = "source_scan"
ROLE_SOURCE_STATE = "source_state"
ROLE_STREAM = "stream"
ROLE_BUILD = "build"
ROLE_PROBE = "probe"
ROLE_SINK_AGG = "sink_agg"
ROLE_SINK_SORT = "sink_sort"


@dataclass(frozen=True)
class PipelineOp:
    """One operator occurrence inside a pipeline.

    The same :class:`PhysNode` can occur in two pipelines with different
    roles (a hash join is the ``build`` sink of one pipeline and a
    ``probe`` stream op of another).
    """

    node: PhysNode
    role: str


@dataclass(eq=False)
class Pipeline:
    """A maximal streaming operator chain with blocking dependencies.

    Identity semantics (``eq=False``): pipelines are compared and hashed
    by object identity so the estimator's timing cache can key weak
    per-pipeline memos on them.
    """

    pipeline_id: int
    ops: list[PipelineOp] = field(default_factory=list)
    blocking_deps: list[int] = field(default_factory=list)
    consumer_id: int | None = None

    @property
    def source(self) -> PipelineOp:
        if not self.ops:
            raise PlanError(f"pipeline {self.pipeline_id} has no operators")
        return self.ops[0]

    @property
    def sink(self) -> PipelineOp:
        if not self.ops:
            raise PlanError(f"pipeline {self.pipeline_id} has no operators")
        return self.ops[-1]

    def describe(self) -> str:
        chain = " -> ".join(
            f"{op.node.describe()}[{op.role}]" for op in self.ops
        )
        deps = f" deps={self.blocking_deps}" if self.blocking_deps else ""
        return f"P{self.pipeline_id}: {chain}{deps}"


@dataclass(eq=False)
class PipelineDag:
    """All pipelines of one query plus the root (result-producing) one.

    Hashed by identity (``eq=False``) so per-DAG derived facts (e.g. the
    estimator's scan-request fees) can live in weak caches.
    """

    pipelines: dict[int, Pipeline]
    root_id: int
    _topo: list[Pipeline] = field(default_factory=list, init=False, repr=False)

    def __post_init__(self) -> None:
        """Validate the dependencies and record the topological order in
        one depth-first walk.  A loop over an explicit stack, not a
        recursive closure: a closure that calls itself is a reference
        cycle that captures ``self``, so every DAG would wait for the
        cycle collector instead of dying with its last reference."""
        state: dict[int, int] = {}  # absent=unvisited, 1=on the stack, 2=done
        for start in self.pipelines:
            if start in state:
                continue
            state[start] = 1
            stack = [(start, iter(self.pipelines[start].blocking_deps))]
            while stack:
                pid, deps = stack[-1]
                for dep in deps:
                    if dep not in self.pipelines:
                        raise PlanError(f"pipeline {pid} depends on unknown {dep}")
                    if state.get(dep) == 1:
                        raise PlanError(f"pipeline dependency cycle at {dep}")
                    if dep not in state:
                        state[dep] = 1
                        stack.append((dep, iter(self.pipelines[dep].blocking_deps)))
                        break
                else:
                    stack.pop()
                    state[pid] = 2
                    self._topo.append(self.pipelines[pid])

    @property
    def root(self) -> Pipeline:
        return self.pipelines[self.root_id]

    def pipeline(self, pipeline_id: int) -> Pipeline:
        try:
            return self.pipelines[pipeline_id]
        except KeyError:
            raise PlanError(f"unknown pipeline {pipeline_id}") from None

    def __len__(self) -> int:
        return len(self.pipelines)

    def __iter__(self) -> Iterator[Pipeline]:
        return iter(self.pipelines.values())

    def topological_order(self) -> list[Pipeline]:
        """Pipelines ordered so every blocking dep precedes its consumer.

        Computed at construction — the structure is fixed after
        decomposition and the estimator's scheduler asks once per
        candidate evaluation.  Treat the returned list as read-only.
        """
        return self._topo

    def siblings(self, pipeline_id: int) -> list[Pipeline]:
        """Pipelines sharing a consumer with ``pipeline_id`` (incl. itself).

        These are the "(concurrent) dependent pipelines" the co-finish
        heuristic equalizes.
        """
        me = self.pipeline(pipeline_id)
        if me.consumer_id is None:
            return [me]
        consumer = self.pipeline(me.consumer_id)
        return [self.pipelines[dep] for dep in consumer.blocking_deps]

    def describe(self) -> str:
        return "\n".join(p.describe() for p in self.topological_order())


def decompose_pipelines(root: PhysNode) -> PipelineDag:
    """Split a physical plan into its pipeline DAG."""
    pipelines: dict[int, Pipeline] = {}
    root_pipeline = _stream(root, pipelines)
    return PipelineDag(pipelines=pipelines, root_id=root_pipeline.pipeline_id)


def _new_pipeline(pipelines: dict[int, Pipeline]) -> Pipeline:
    pipeline = Pipeline(pipeline_id=len(pipelines))
    pipelines[pipeline.pipeline_id] = pipeline
    return pipeline


def _stream(node: PhysNode, pipelines: dict[int, Pipeline]) -> Pipeline:
    """Return the open pipeline whose stream ends at ``node``'s output,
    adding every pipeline below it to ``pipelines``.  (A module-level
    function: as a closure it would be a reference cycle per call.)"""
    if isinstance(node, PhysScan):
        pipeline = _new_pipeline(pipelines)
        pipeline.ops.append(PipelineOp(node, ROLE_SOURCE_SCAN))
        return pipeline

    if isinstance(node, (PhysFilter, PhysProject, PhysExchange, PhysLimit)):
        pipeline = _stream(node.child, pipelines)
        pipeline.ops.append(PipelineOp(node, ROLE_STREAM))
        return pipeline

    if isinstance(node, PhysAggregate):
        if node.mode is AggMode.PARTIAL:
            pipeline = _stream(node.child, pipelines)
            pipeline.ops.append(PipelineOp(node, ROLE_STREAM))
            return pipeline
        producer = _stream(node.child, pipelines)
        producer.ops.append(PipelineOp(node, ROLE_SINK_AGG))
        consumer = _new_pipeline(pipelines)
        consumer.ops.append(PipelineOp(node, ROLE_SOURCE_STATE))
        consumer.blocking_deps.append(producer.pipeline_id)
        producer.consumer_id = consumer.pipeline_id
        return consumer

    if isinstance(node, PhysSort):
        producer = _stream(node.child, pipelines)
        producer.ops.append(PipelineOp(node, ROLE_SINK_SORT))
        consumer = _new_pipeline(pipelines)
        consumer.ops.append(PipelineOp(node, ROLE_SOURCE_STATE))
        consumer.blocking_deps.append(producer.pipeline_id)
        producer.consumer_id = consumer.pipeline_id
        return consumer

    if isinstance(node, PhysHashJoin):
        build_pipeline = _stream(node.build, pipelines)
        build_pipeline.ops.append(PipelineOp(node, ROLE_BUILD))
        probe_pipeline = _stream(node.probe, pipelines)
        probe_pipeline.ops.append(PipelineOp(node, ROLE_PROBE))
        probe_pipeline.blocking_deps.append(build_pipeline.pipeline_id)
        build_pipeline.consumer_id = probe_pipeline.pipeline_id
        return probe_pipeline

    raise PlanError(f"cannot decompose operator {type(node).__name__}")
