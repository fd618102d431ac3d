"""The planning pipeline: one walk from SQL text to a chosen plan.

The paper's cost contract ("state an SLA or a budget, get an auditable
bill") only holds if a query's plan does not depend on which code path
planned it, so there is one path: :meth:`PlanningPipeline.plan` walks

    parameterize -> keys -> exact lookup -> bind -> MV rewrite
    -> skeleton lookup -> optimize -> stores

over whichever of the two cache levels (:mod:`repro.core.plan_cache`)
the pipeline was given.  A level that is not there is skipped:
``use_cache=False`` and a pipeline built without levels are the same
walk with nothing to look up or store.  Binding is no level: the binder
binds each SQL template once per catalog version and fills every
instance's literals into it (:mod:`repro.sql.binder`), on every walk
that is not an exact hit.  The coordinator and every planner worker
process instantiate this class, so the module is held to the
worker-isolation contract (``tests/testing/test_production_imports.py``):
planning is a pure function of catalog, hardware, query and constraint.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple

from repro.core.bioptimizer import BiObjectiveOptimizer, PlanChoice
from repro.sql.binder import Binder, BoundQuery
from repro.sql.parameterize import ParameterizedSQL, parameterize_sql
from repro.tuning.mv import MVCandidate, try_rewrite

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.catalog.catalog import Catalog
    from repro.core.plan_cache import PlanCache, SkeletonCache
    from repro.core.resilience import StageGuard
    from repro.cost.estimator import CostEstimator
    from repro.dop.constraints import Constraint


def skeleton_key(template_key: str, constraint: "Constraint", version: int) -> tuple:
    """The skeleton level's key.  The constraint kind is conservative
    key hygiene (DAG planning never reads the constraint); it costs one
    extra DP per template and kind.  Skeleton reuse trusts the
    template's join shapes to be stable under literal changes — enforced
    for the workload suite by the parity tests; a template whose
    literals swing the join-order DP would be re-planned on its cached
    shapes."""
    return (template_key, "sla" if constraint.is_sla else "budget", version)


class PlanKeys(NamedTuple):
    """One query's identity at every level, built once per walk.  Every
    key embeds the catalog stats version: any catalog mutation bumps it,
    so stale entries stop matching instead of being served."""

    parameterized: ParameterizedSQL
    version: int
    exact: tuple  # (normalized SQL, constraint, version)
    skeleton: tuple  # skeleton_key(...)


class Planned(NamedTuple):
    """What one walk produced — everything a worker has to ship back.
    ``level`` is the deepest level that answered: ``"exact"``,
    ``"skeleton"`` (cached join shapes re-planned under the query's
    literals), ``"optimizer"``, or the degraded floor ``"heuristic"``;
    ``new_skeleton_trees`` are shapes this walk computed fresh.
    ``scratch`` is the walk's estimator (``None`` on an exact hit): the
    serving layer simulates through it, then drops it."""

    bound: BoundQuery
    choice: PlanChoice
    level: str = "exact"
    new_skeleton_trees: tuple | None = None
    bind_s: float = 0.0
    optimize_s: float = 0.0
    scratch: "CostEstimator | None" = None


def _staged(guard: "StageGuard | None", stage: str, fn: Callable[[], object]):
    return guard.run(stage, fn) if guard is not None else fn()


class PlanningPipeline:
    """Binder + optimizer + applied-MV rewrite + the cache levels given."""

    def __init__(
        self,
        catalog: "Catalog",
        estimator: "CostEstimator",
        *,
        max_dop: int,
        explore_bushy: bool,
        applied_mvs: Mapping[str, MVCandidate],
        exact: "PlanCache | None" = None,
        skeletons: "SkeletonCache | None" = None,
    ) -> None:
        self.catalog = catalog
        self.binder = Binder(catalog)
        self.optimizer = BiObjectiveOptimizer(
            catalog, estimator, max_dop=max_dop, explore_bushy=explore_bushy
        )
        #: Applied materialized views by name — the owner's *live*
        #: mapping, so an apply or a rollback changes served plans at once.
        self.applied_mvs = applied_mvs
        self.exact = exact
        self.skeletons = skeletons

    def keys(self, sql: str, constraint: "Constraint") -> PlanKeys:
        parameterized = parameterize_sql(sql)
        version = self.catalog.version
        normalized = parameterized.normalized
        return PlanKeys(
            parameterized,
            version,
            (normalized, constraint, version),
            skeleton_key(parameterized.template_key, constraint, version),
        )

    def levels(self) -> list[tuple[str, object]]:
        """The levels present, as ``(metric label, cache)`` pairs."""
        caches = (self.exact, self.skeletons)
        named = zip(("plan", "skeleton"), caches)
        return [(name, cache) for name, cache in named if cache is not None]

    def plan(
        self,
        sql: str,
        constraint: "Constraint",
        *,
        use_cache: bool = True,
        on_bound: Callable[[BoundQuery], None] | None = None,
        guard: "StageGuard | None" = None,
        skeleton_hint: tuple | None = None,
        degraded: bool = False,
    ) -> Planned:
        """Bind + optimize ``sql`` under ``constraint``.

        ``on_bound`` fires as soon as the bound query is available (the
        serving layer stamps the handle's ``BOUND`` transition with it).
        ``guard`` (the serving layer's, per request) wraps the ``bind`` and
        ``optimize`` fault points with retry/deadline/fault-injection
        handling; an exact hit bypasses both — a cached plan needs no
        binding or optimization, so there is nothing to fail.
        ``skeleton_hint`` is another pipeline's cached shapes for the
        template, used (and kept) when this one's skeleton level misses.

        ``degraded`` is the fallback the serving layer takes when the
        ``optimize`` stage blows its deadline: never fails (call it
        unguarded — the degraded path is the floor under the batch),
        never pollutes the levels.  It shares the walk up to the
        skeleton lookup (binding again: the guarded walk's bound query
        is not kept, so physical planning and the DOP search run again
        too), then returns level ``"skeleton"`` — the cached shapes re-planned under the query's
        literals exactly as a skeleton hit would have, bit-identical to
        full optimization by the skeleton parity contract — or
        ``"heuristic"``: the left-deep DP winner with one DOP search,
        bit-identical to a cold ``explore_bushy=False`` optimizer.
        Nothing is stored: a heuristic plan is *not* what full
        optimization would produce, and caching it would serve degraded
        plans to healthy future submissions (the chaos suite's
        cache-consistency invariant).
        """
        keys = self.keys(sql, constraint)
        exact, skeletons = (self.exact, self.skeletons) if use_cache else (None, None)
        if exact is not None and not degraded:
            cached = exact.lookup(keys.exact)
            if cached is not None:
                if on_bound is not None:
                    on_bound(cached[0])
                return Planned(*cached)
        # Reuse the parameterization already lexed for the keys: a
        # recurring template is filled with the fresh constants (no lex,
        # no parse, no bind).
        template_key = keys.parameterized.template_key
        constants = keys.parameterized.constants
        start = time.perf_counter()
        bound = _staged(
            guard,
            "bind",
            lambda: self.binder.bind_parameterized(template_key, constants, sql),
        )
        bind_s = time.perf_counter() - start
        # MV rewriting is deterministic per (template, catalog version),
        # so skeleton reuse stays coherent: every instance of a template
        # either rewrites onto the view or none does.
        bound = self.rewrite_mv(bound)
        if on_bound is not None:
            on_bound(bound)
        trees = skeletons.lookup(keys.skeleton) if skeletons is not None else None
        if trees is None and skeleton_hint is not None:
            trees = tuple(skeleton_hint)
            if skeletons is not None:
                skeletons.store(keys.skeleton, trees)
        scratch = self.optimizer.estimator.scratch()
        if degraded and trees is None:
            choice = self.optimizer.optimize_heuristic(bound, constraint, scratch)
            return Planned(bound, choice, "heuristic", scratch=scratch)
        start = time.perf_counter()
        choice = _staged(
            guard,
            "optimize",
            lambda: self.optimizer.optimize(
                bound, constraint, skeleton_trees=trees, scratch=scratch
            ),
        )
        # The planning seconds this optimize took are what a future hit
        # on the stored entries saves (a proxy for the skeleton level,
        # whose hits still re-run physical planning and the DOP search).
        optimize_s = time.perf_counter() - start
        new_trees = None
        if trees is None and skeletons is not None:
            # The variants this walk just planned, read off its scratch.
            new_trees = self.optimizer.variant_trees(bound, scratch)
        planned = Planned(
            bound,
            choice,
            "optimizer" if trees is None else "skeleton",
            new_trees,
            bind_s,
            optimize_s,
            scratch,
        )
        if use_cache and not degraded:
            self.absorb(keys, planned)
        return planned

    def rewrite_mv(self, bound: BoundQuery) -> BoundQuery:
        """Rewrite a bound query onto an applied materialized view.

        Applied MVs must change served plans — without this hook the
        levels would keep returning (version-keyed but semantically
        pre-tuning) base-table plans forever.  Rewrites only happen for
        views the :class:`~repro.tuning.service.TuningService` has
        applied and that are still present in the catalog, so a rollback
        (or an out-of-band drop) immediately restores base-table plans.
        """
        for candidate in self.applied_mvs.values():
            if not self.catalog.has_table(candidate.name) or not self.catalog.has_view(
                candidate.name
            ):
                continue
            rewritten = try_rewrite(bound, candidate)
            if rewritten is not None:
                return rewritten
        return bound

    def absorb(self, keys: PlanKeys, planned) -> None:
        """Store a finished walk's results — this pipeline's own, or a
        worker's :class:`~repro.core.sharding.StagedPlan` — in the
        skeleton and exact levels."""
        template = keys.parameterized.template_key
        if planned.new_skeleton_trees is not None and self.skeletons is not None:
            self.skeletons.store(
                keys.skeleton,
                planned.new_skeleton_trees,
                template=template,
                cost_s=planned.optimize_s,
            )
        if self.exact is not None:
            self.exact.store(
                keys.exact,
                planned.bound,
                planned.choice,
                template=template,
                cost_s=planned.optimize_s,
            )
