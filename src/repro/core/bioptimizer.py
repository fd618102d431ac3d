"""Bi-objective query optimizer (paper §3.2).

Downgrades Pareto search to constrained single-objective optimization:

1. *DAG planning*: classical left-deep join ordering and physical
   planning (:class:`~repro.optimizer.dag_planner.DagPlanner`).
2. *Bushy exploration*: generate increasingly bushy, non-expanding join
   variants of the chosen left-deep order.
3. *DOP planning*: for each variant, search per-pipeline DOPs that
   minimize the constrained objective; pick the best variant.

The search cost stays "comparable to a traditional cost-based optimizer":
one join-ordering DP plus a handful of DOP searches, each linear in the
number of pipelines per evaluation.

Walk-scoped state
-----------------

Stages 1–2 and the physical planning inside stage 3 do not depend on the
user constraint.  Their output — variant join trees, physical plans,
pipeline DAGs — is kept on the planning walk's estimator scratch
(:meth:`~repro.cost.estimator.CostEstimator.scratch`) beside the curves
and DOP plans of its search, read back for the skeleton the walk stores
(:meth:`BiObjectiveOptimizer.variant_trees`), and dropped with it.  What
carries over between walks is the serving layer's *plan skeleton*:
:meth:`BiObjectiveOptimizer.optimize` accepts pre-chosen
``skeleton_trees`` (from :class:`~repro.core.plan_cache.SkeletonCache`)
and then skips join-order DP and bushy generation entirely, re-running
only physical planning with fresh cardinalities plus the DOP search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.catalog.catalog import Catalog
from repro.cost.estimator import CostEstimator
from repro.dop.constraints import Constraint
from repro.dop.planner import DopPlan, DopPlanner
from repro.optimizer.bushy import bushiness, bushy_variants
from repro.optimizer.dag_planner import DagPlanner
from repro.optimizer.join_order import JoinTree, Leaf
from repro.plan.physical import PhysNode
from repro.plan.pipelines import PipelineDag, decompose_pipelines
from repro.sql.binder import BoundQuery


@dataclass
class PlanChoice:
    """The optimizer's selected cost-aware plan."""

    plan: PhysNode
    dag: PipelineDag
    dop_plan: DopPlan
    join_tree: JoinTree | Leaf
    variant_index: int
    bushiness: int
    variants_considered: int

    @property
    def feasible(self) -> bool:
        return self.dop_plan.feasible

    def describe(self) -> str:
        return (
            f"variant {self.variant_index}/{self.variants_considered} "
            f"(bushiness={self.bushiness})\n"
            f"{self.dop_plan.describe()}"
        )


@dataclass(frozen=True)
class PlannedVariant:
    """One join-tree variant carried through physical planning."""

    tree: JoinTree | Leaf
    plan: PhysNode
    dag: PipelineDag


class BiObjectiveOptimizer:
    """Produces cost-aware distributed plans under user constraints."""

    def __init__(
        self,
        catalog: Catalog,
        estimator: CostEstimator | None = None,
        *,
        max_dop: int = 64,
        explore_bushy: bool = True,
        max_variants: int = 4,
    ) -> None:
        self.catalog = catalog
        self.estimator = estimator or CostEstimator()
        #: The configured DOP search; each walk runs it over its scratch.
        self.dop_planner = DopPlanner(self.estimator, max_dop=max_dop)
        self.explore_bushy = explore_bushy
        self.max_variants = max_variants
        self.dag_plans = 0

    def reset_counters(self) -> None:
        """Zero the DAG-planning counter."""
        self.dag_plans = 0

    # ------------------------------------------------------------------ #
    # DAG planning (constraint-independent)
    # ------------------------------------------------------------------ #
    def dag_variants(
        self,
        query: BoundQuery,
        scratch: CostEstimator,
        *,
        skeleton_trees: Sequence[JoinTree | Leaf] | None = None,
    ) -> list[PlannedVariant]:
        """Join-tree variants of ``query``, physically planned.

        Kept on the walk's ``scratch`` (a second call with it returns the
        same list).  With ``skeleton_trees`` (a cached template
        skeleton), join-order DP and bushy generation are skipped and the
        given shapes are re-planned against the query's fresh
        cardinalities — everything a literal change can affect (build
        sides, broadcast decisions, operator estimates) is re-derived,
        exactly as fresh planning with those trees would.
        """
        variants = scratch.planned.get(query)
        if variants is not None:
            return variants
        self.dag_plans += 1
        planner = DagPlanner(self.catalog)
        if skeleton_trees is not None:
            trees: list[JoinTree | Leaf] = list(skeleton_trees)
        else:
            base_tree = planner.choose_join_tree(query)
            trees = [base_tree]
            if self.explore_bushy and len(query.tables) >= 4:
                base_relations = {
                    ref.name: planner.base_relation(query, ref.name)
                    for ref in query.tables
                }
                trees = bushy_variants(
                    base_tree,
                    base_relations,
                    query.join_edges,
                    planner.estimator,
                    max_variants=self.max_variants,
                )

        variants = []
        for tree in trees:
            plan = planner.plan_with_tree(query, tree)
            variants.append(
                PlannedVariant(tree=tree, plan=plan, dag=decompose_pipelines(plan))
            )
        scratch.planned[query] = variants
        return variants

    def variant_trees(
        self, query: BoundQuery, scratch: CostEstimator
    ) -> tuple[JoinTree | Leaf, ...]:
        """The query's variant join-tree shapes (the plan skeleton), as
        the walk that owns ``scratch`` planned them."""
        return tuple(v.tree for v in self.dag_variants(query, scratch))

    # ------------------------------------------------------------------ #
    # Full optimization
    # ------------------------------------------------------------------ #
    def optimize(
        self,
        query: BoundQuery,
        constraint: Constraint,
        *,
        skeleton_trees: Sequence[JoinTree | Leaf] | None = None,
        scratch: CostEstimator | None = None,
    ) -> PlanChoice:
        """Full §3.2 pipeline: DAG plan -> bushy variants -> DOP plans.

        ``skeleton_trees`` short-circuits stages 1–2 with a cached
        template skeleton (see :meth:`dag_variants`).  ``scratch`` is the
        walk's estimator (a fresh one by default); the returned choice's
        estimate is read before returning, so the choice holds nothing
        of it.
        """
        if scratch is None:
            scratch = self.estimator.scratch()
        variants = self.dag_variants(query, scratch, skeleton_trees=skeleton_trees)
        dop_planner = self.dop_planner.with_estimator(scratch)
        best: PlanChoice | None = None
        for index, variant in enumerate(variants):
            dop_plan = dop_planner.plan(variant.dag, constraint)
            choice = PlanChoice(
                plan=variant.plan,
                dag=variant.dag,
                dop_plan=dop_plan,
                join_tree=variant.tree,
                variant_index=index,
                bushiness=bushiness(variant.tree),
                variants_considered=len(variants),
            )
            if best is None or _better(choice, best, constraint):
                best = choice
        assert best is not None
        best.dop_plan.estimate  # drop the thunk over the scratch
        return best

    def optimize_heuristic(
        self,
        query: BoundQuery,
        constraint: Constraint,
        scratch: CostEstimator | None = None,
    ) -> PlanChoice:
        """Degraded-mode default plan: the left-deep DP winner, no bushy
        exploration.

        Bit-identical to what a cold ``explore_bushy=False`` optimizer
        produces for ``query`` — one join-ordering DP, one physical
        plan, one DOP search — which is the contract the serving layer's
        degraded fallback promises (parity-tested).
        """
        tree = DagPlanner(self.catalog).choose_join_tree(query)
        return self.optimize(query, constraint, skeleton_trees=(tree,), scratch=scratch)


def _better(candidate: PlanChoice, incumbent: PlanChoice, constraint: Constraint) -> bool:
    """Prefer feasible plans; among feasible, the lower objective wins."""
    if candidate.feasible != incumbent.feasible:
        return candidate.feasible
    cand_obj = constraint.objective(candidate.dop_plan.estimate)
    inc_obj = constraint.objective(incumbent.dop_plan.estimate)
    if candidate.feasible:
        return cand_obj < inc_obj
    # Both infeasible: minimize constraint violation instead.
    return constraint.bound_value(candidate.dop_plan.estimate) < constraint.bound_value(
        incumbent.dop_plan.estimate
    )
