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

import itertools
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
    _topo: list[Pipeline] | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self._check_acyclic()

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

        Memoized — the structure is fixed after decomposition and the
        estimator's scheduler asks once per candidate evaluation.  Treat
        the returned list as read-only.
        """
        if self._topo is not None:
            return self._topo
        order: list[Pipeline] = []
        visited: set[int] = set()

        def visit(pid: int) -> None:
            if pid in visited:
                return
            visited.add(pid)
            for dep in self.pipelines[pid].blocking_deps:
                visit(dep)
            order.append(self.pipelines[pid])

        for pid in self.pipelines:
            visit(pid)
        self._topo = order
        return order

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

    def _check_acyclic(self) -> None:
        state: dict[int, int] = {}  # 0=unvisited,1=in-stack,2=done

        def visit(pid: int) -> None:
            if state.get(pid) == 1:
                raise PlanError(f"pipeline dependency cycle at {pid}")
            if state.get(pid) == 2:
                return
            state[pid] = 1
            for dep in self.pipelines[pid].blocking_deps:
                if dep not in self.pipelines:
                    raise PlanError(f"pipeline {pid} depends on unknown {dep}")
                visit(dep)
            state[pid] = 2

        for pid in self.pipelines:
            visit(pid)

    def describe(self) -> str:
        return "\n".join(p.describe() for p in self.topological_order())


def decompose_pipelines(root: PhysNode) -> PipelineDag:
    """Split a physical plan into its pipeline DAG."""
    counter = itertools.count(0)
    pipelines: dict[int, Pipeline] = {}

    def new_pipeline() -> Pipeline:
        pipeline = Pipeline(pipeline_id=next(counter))
        pipelines[pipeline.pipeline_id] = pipeline
        return pipeline

    def stream(node: PhysNode) -> Pipeline:
        """Return the open pipeline whose stream ends at ``node``'s output."""
        if isinstance(node, PhysScan):
            pipeline = new_pipeline()
            pipeline.ops.append(PipelineOp(node, ROLE_SOURCE_SCAN))
            return pipeline

        if isinstance(node, (PhysFilter, PhysProject, PhysExchange, PhysLimit)):
            pipeline = stream(node.child)
            pipeline.ops.append(PipelineOp(node, ROLE_STREAM))
            return pipeline

        if isinstance(node, PhysAggregate):
            if node.mode is AggMode.PARTIAL:
                pipeline = stream(node.child)
                pipeline.ops.append(PipelineOp(node, ROLE_STREAM))
                return pipeline
            producer = stream(node.child)
            producer.ops.append(PipelineOp(node, ROLE_SINK_AGG))
            consumer = new_pipeline()
            consumer.ops.append(PipelineOp(node, ROLE_SOURCE_STATE))
            consumer.blocking_deps.append(producer.pipeline_id)
            producer.consumer_id = consumer.pipeline_id
            return consumer

        if isinstance(node, PhysSort):
            producer = stream(node.child)
            producer.ops.append(PipelineOp(node, ROLE_SINK_SORT))
            consumer = new_pipeline()
            consumer.ops.append(PipelineOp(node, ROLE_SOURCE_STATE))
            consumer.blocking_deps.append(producer.pipeline_id)
            producer.consumer_id = consumer.pipeline_id
            return consumer

        if isinstance(node, PhysHashJoin):
            build_pipeline = stream(node.build)
            build_pipeline.ops.append(PipelineOp(node, ROLE_BUILD))
            probe_pipeline = stream(node.probe)
            probe_pipeline.ops.append(PipelineOp(node, ROLE_PROBE))
            probe_pipeline.blocking_deps.append(build_pipeline.pipeline_id)
            build_pipeline.consumer_id = probe_pipeline.pipeline_id
            return probe_pipeline

        raise PlanError(f"cannot decompose operator {type(node).__name__}")

    root_pipeline = stream(root)
    return PipelineDag(pipelines=pipelines, root_id=root_pipeline.pipeline_id)
