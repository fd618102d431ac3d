"""The cost-intelligent cloud data warehouse facade (paper Figure 3).

One object wiring the whole architecture: SQL frontend -> bi-objective
optimizer (cost estimator inside) -> elastic compute (simulated cluster
with the DOP monitor) -> billing -> Statistics Service logs ->
background auto-tuning.  Users state a latency SLA or a budget per query
— never a T-shirt size — and receive results plus an auditable cost
report, exactly the interaction model §2 calls for.

The public serving API lives in :mod:`repro.core.service`
(:class:`~repro.core.service.QueryRequest` in,
:class:`~repro.core.service.QueryHandle` /
:class:`~repro.core.service.QueryOutcome` out, per-tenant
:class:`~repro.core.service.Session`\\ s, and the concurrent
:class:`~repro.core.service.ServingScheduler`).  The warehouse wires the
shared serving machinery — catalog, the planning pipeline
(:mod:`repro.core.planning`: binder, optimizer, applied-MV rewrite and
the three-level plan-cache stack) and the ledger
(:mod:`repro.core.ledger`: the Statistics Service log, the clock,
per-tenant billing, the journal and every other piece of authoritative
state, mutated by one transition function) — and exposes read views of
them; :meth:`CostIntelligentWarehouse.session` is the way in.

The tuning surface mirrors it in :mod:`repro.tuning.service`:
``warehouse.tuning`` is a persistent
:class:`~repro.tuning.service.TuningService` whose typed
:class:`~repro.tuning.service.Recommendation`\\ s are applied and rolled
back with full serving-cache coherence.
"""

from __future__ import annotations

from dataclasses import replace as dataclasses_replace
from typing import Callable, Iterable, Mapping

from repro.catalog.catalog import Catalog
from repro.core.bioptimizer import PlanChoice
from repro.core.governance import (
    AdmissionController,
    RetentionPolicy,
    TemplateFrequencyProvider,
    TenantBudget,
    make_retention_policy,
    rank_by_forecast,
)
from repro.core.journal import WriteAheadJournal
from repro.core.ledger import Ledger
from repro.core.plan_cache import BindingCache, PlanCache, SkeletonCache
from repro.core.planning import PlanningPipeline
from repro.core.recovery import RecoveryReport, recover_warehouse
from repro.core.resilience import (
    CircuitBreaker,
    FaultPort,
    ResiliencePolicy,
    ResilienceStats,
)
from repro.core.service import Session
from repro.sql.parameterize import parameterize_sql
from repro.cost.estimator import CostEstimator
from repro.cost.hardware import HardwareCalibration
from repro.cost.timing_cache import overrides_key
from repro.dop.constraints import Constraint
from repro.engine.database import Database
from repro.errors import ReproError
from repro.monitor.policies import make_policy
from repro.obsvc import views
from repro.obsvc.collector import CollectionPolicy, SnapshotCollector
from repro.obsvc.metrics import MetricsRegistry
from repro.sim.distsim import DistributedSimulator, ScalingPolicy, SimConfig, SimResult
from repro.sql.binder import BoundQuery
from repro.statsvc.logs import QueryLogStore
from repro.tuning.service import TuningPolicy, TuningService

class CostIntelligentWarehouse:
    """The user-facing cost-intelligent warehouse service."""

    def __init__(
        self,
        database: Database | None = None,
        catalog: Catalog | None = None,
        *,
        hardware: HardwareCalibration | None = None,
        estimator: CostEstimator | None = None,
        sim_config: SimConfig | None = None,
        max_dop: int = 64,
        explore_bushy: bool = True,
        plan_cache_size: int = 256,
        tuning_policy: TuningPolicy | None = None,
        retention_policy: "str | Callable[[], RetentionPolicy]" = "lru",
        tenant_budgets: "Mapping[str, TenantBudget | float] | None" = None,
        resilience: ResiliencePolicy | None = None,
        journal: WriteAheadJournal | None = None,
    ) -> None:
        if database is None and catalog is None:
            raise ReproError("provide a Database (with data) or a Catalog (stats-only)")
        self.database = database
        self.catalog = database.catalog if database is not None else catalog
        assert self.catalog is not None
        self.hw = hardware or HardwareCalibration()
        self.estimator = estimator or CostEstimator(self.hw)
        self.sim_config = sim_config or SimConfig()
        self.max_dop = max_dop
        #: Representative bound query per template family, tagged with
        #: the stats version it was bound under so the tuning advisor
        #: never reasons over bindings from stale statistics.
        self._template_queries: dict[str, tuple[int, BoundQuery]] = {}
        #: The persistent tuning service (lazily created on first use);
        #: ``tuning_policy`` configures cadence / budgets / auto-apply.
        self.tuning_policy = tuning_policy
        self._tuning: TuningService | None = None
        #: Failure-domain hardening (see :mod:`repro.core.resilience`):
        #: the policy configures per-stage retries/deadlines and the
        #: degraded-mode fallback; every fault point draws through the
        #: one port (see :meth:`inject_faults`).
        self.resilience = resilience or ResiliencePolicy()
        self.resilience_stats = ResilienceStats()
        self.fault_port = FaultPort()
        #: Breaker around the Statistics Service forecaster: while OPEN,
        #: forecast refreshes are skipped and cost-aware retention
        #: scores degrade to plain LRU instead of stalling serving.
        self.statsvc_breaker = CircuitBreaker("statsvc")
        self.logs = QueryLogStore()
        #: Resource governance (see :mod:`repro.core.governance`).
        #: ``self.frequency`` bridges the Statistics Service's per-family
        #: arrival forecasts to cache retention and warming;
        #: ``self.admission`` enforces per-tenant dollar budgets at
        #: :meth:`Session._admit` time.  The default ``retention_policy``
        #: ("lru") keeps served plans and cache counters bit-identical to
        #: the pre-governance warehouse; "cost-aware" keeps hot forecast
        #: templates alive under eviction pressure.
        self.frequency = TemplateFrequencyProvider(
            self.logs,
            breaker=self.statsvc_breaker,
            faults=self.fault_port,
        )
        self.admission = AdmissionController(tenant_budgets)
        self.retention_policy_name = (
            retention_policy if isinstance(retention_policy, str) else "custom"
        )
        #: The ledger (see :mod:`repro.core.ledger`): every piece of
        #: authoritative state plus the journal, mutated only through
        #: ``ledger.apply(record)`` — live via ``ledger.commit``, and on
        #: replay when :meth:`recover` rebuilds the warehouse.
        #: ``logs``, ``billing`` and ``cost_history`` are views of
        #: containers the ledger only ever updates in place.
        self.ledger = Ledger(
            self.logs,
            journal=journal,
            admission=self.admission,
            faults=self.fault_port,
            # Only a non-LRU retention policy reads the forecasts
            # this feeds.
            note_template=(
                self.frequency.note_template if retention_policy != "lru" else None
            ),
        )
        self.billing = self.ledger.billing
        self.cost_history = self.ledger.cost_history

        def _policy() -> RetentionPolicy:
            return make_retention_policy(
                retention_policy, frequency=self.frequency.rate_for
            )

        def _level(cache_type):
            if plan_cache_size <= 0:
                return None
            return cache_type(plan_cache_size, policy=_policy())

        #: The planning pipeline (see :mod:`repro.core.planning`): the
        #: binder, the optimizer, the applied-MV rewrite and the
        #: three-level cache stack, walked by one function.
        #: ``plan_cache_size=0`` builds it with no levels.
        self.planning = PlanningPipeline(
            self.catalog,
            self.estimator,
            max_dop=max_dop,
            explore_bushy=explore_bushy,
            applied_mvs=self.ledger.applied_mvs,
            exact=_level(PlanCache),
            bindings=_level(BindingCache),
            skeletons=_level(SkeletonCache),
        )
        self.optimizer = self.planning.optimizer
        self.binder = self.planning.binder
        #: Cost observability (see :mod:`repro.obsvc`): the typed
        #: metrics registry every serving emission and the
        #: ``describe_health`` / ``describe_caches`` views go through,
        #: and the scheduled snapshot collector (configured
        #: post-construction, :meth:`enable_collection`, so the frozen
        #: constructor surface is untouched).
        self.metrics = MetricsRegistry(self)
        self.collector = SnapshotCollector(self)
        #: Process-sharded serving (see :mod:`repro.core.sharding`):
        #: a warm :class:`~repro.core.sharding.PlannerWorkerPool` when
        #: :meth:`enable_sharding` has been called, else ``None`` (the
        #: in-process fast path, byte for byte).  Configured
        #: post-construction like :meth:`enable_collection`, so the
        #: frozen constructor surface is untouched.
        self._worker_pool = None
        #: Bumped by every explicit :meth:`invalidate_plan_cache` —
        #: part of the coherency fingerprint the worker pool broadcasts
        #: on (version-less flushes must still reach the workers).
        self._plan_cache_epoch = 0

    # ------------------------------------------------------------------ #
    # Observability (the views live in :mod:`repro.obsvc.views`)
    # ------------------------------------------------------------------ #
    def observe(self, format: str = "dict"):
        """Health + cache views, the metrics registry and the cost
        history as one ``"dict"``, as ``"json"``, or the registry in the
        ``"prometheus"`` text format (:func:`repro.obsvc.views.observe`)."""
        return views.observe(self, format)

    def describe_health(self) -> dict:
        """Resilience counters, durability, both circuit breakers, the
        tuning service's failure state and the fault plan's tallies
        (:func:`repro.obsvc.views.describe_health`)."""
        return views.describe_health(self)

    def describe_caches(self) -> dict[str, dict]:
        """Hit rates, retention policies and eviction counts per cache
        level, admission verdicts per tenant, and the estimator's memos
        (:func:`repro.obsvc.views.describe_caches`)."""
        return views.describe_caches(self)

    def enable_collection(
        self,
        *,
        cadence_queries: "int | None" = None,
        cadence_seconds: "float | None" = None,
    ) -> None:
        """Install a recurring cost-snapshot schedule (cadence counted
        in logged queries or *virtual* seconds, like ``TuningPolicy``);
        the serving layer collects between batches.
        ``warehouse.collector.configure(None)`` disables."""
        self.collector.configure(
            CollectionPolicy(
                cadence_queries=cadence_queries,
                cadence_seconds=cadence_seconds,
            )
        )

    def enable_sharding(
        self,
        *,
        workers: "int | None" = None,
        liveness_timeout_s: "float | None" = None,
    ) -> None:
        """Serve batches over a warm planner worker-*process* pool.

        Spawns ``workers`` long-lived planner processes (default:
        core-count capped at 4) that execute the CPU-heavy bind ->
        optimize staging out-of-process with template affinity, escaping
        the GIL (see :mod:`repro.core.sharding`).  All journal appends,
        billing, admission, simulation, and statistics-log writes stay
        in this process; sharded batches are bit-identical to threaded
        and sequential submission.  Configured post-construction (like
        :meth:`enable_collection`) so the frozen constructor surface is
        untouched; :meth:`disable_sharding` restores the in-process
        path.
        """
        from repro.core.sharding import PlannerWorkerPool

        self.disable_sharding()
        pool = PlannerWorkerPool(
            self,
            workers=workers,
            liveness_timeout_s=liveness_timeout_s,
        )
        pool.start()
        self._worker_pool = pool

    def disable_sharding(self) -> None:
        """Shut down the planner worker pool (no-op when not sharded)."""
        pool = self._worker_pool
        if pool is not None:
            pool.close()
            self._worker_pool = None

    @property
    def worker_pool(self):
        """The active planner worker pool, or ``None``."""
        return self._worker_pool

    # ------------------------------------------------------------------ #
    # Sessions / query path
    # ------------------------------------------------------------------ #
    def session(
        self,
        *,
        tenant: str = "default",
        constraint: Constraint | None = None,
        policy: str | ScalingPolicy | None = None,
        template_namespace: str | None = None,
    ) -> Session:
        """Open a per-tenant session (the primary serving entry point).

        The session carries the tenant's defaults, sees an isolated view
        of the query log, and bills served queries against the tenant.
        """
        return Session(
            self,
            tenant=tenant,
            constraint=constraint,
            policy=policy,
            template_namespace=template_namespace,
        )

    def plan(
        self, sql: str, constraint: Constraint, *, use_plan_cache: bool = True
    ) -> tuple[BoundQuery, PlanChoice]:
        """Bind + optimize one query without executing or logging it.

        This is the planning walk serving uses (see
        :meth:`repro.core.planning.PlanningPipeline.plan`): exact hit,
        else binding hit or bind, MV rewrite, skeleton hit (re-plan
        cached join shapes under fresh literals) or full optimization.
        """
        planned = self.planning.plan(sql, constraint, use_cache=use_plan_cache)
        return planned.bound, planned.choice

    @property
    def plan_cache(self) -> PlanCache | None:
        """The exact level of the planning pipeline's cache stack."""
        return self.planning.exact

    @property
    def skeleton_cache(self) -> SkeletonCache | None:
        """The template-skeleton level of the cache stack."""
        return self.planning.skeletons

    @property
    def binding_cache(self) -> BindingCache | None:
        """The bound-query level of the cache stack."""
        return self.planning.bindings

    # ------------------------------------------------------------------ #
    # Resilience / fault injection
    # ------------------------------------------------------------------ #
    def inject_faults(self, plan) -> None:
        """Install (or clear, with ``None``) a deterministic
        :class:`~repro.testing.faults.FaultPlan` on the fault port: every
        fault and crash point draws from it live (see
        :class:`~repro.core.resilience.FaultPort`)."""
        self.fault_port.plan = plan

    @property
    def faults(self):
        """The installed fault plan, or ``None``."""
        return self.fault_port.plan

    # ------------------------------------------------------------------ #
    # Ledger views: state, journal, checkpoint / recover
    # ------------------------------------------------------------------ #
    @property
    def clock(self) -> float:
        """The warehouse's virtual clock (seconds)."""
        return self.ledger.clock

    @property
    def journal(self) -> WriteAheadJournal | None:
        """The attached write-ahead journal, or ``None``."""
        return self.ledger.journal

    @property
    def last_recovery(self) -> RecoveryReport | None:
        """The report of the pass that built this warehouse, when it
        came from :meth:`recover`."""
        return self.ledger.last_recovery

    def checkpoint(self) -> None:
        """Journal a checkpoint of the ledger's full state, so recovery
        replays only the records after it."""
        self.ledger.checkpoint()

    def _maybe_checkpoint(self) -> None:
        """Roll a checkpoint when the journal's interval policy says so
        (called by the serving layer after each finalize)."""
        if self.ledger.checkpoint_due():
            self.checkpoint()

    @classmethod
    def recover(
        cls,
        journal: WriteAheadJournal,
        database: Database | None = None,
        catalog: Catalog | None = None,
        **kwargs,
    ) -> "CostIntelligentWarehouse":
        """Rebuild a warehouse from ``journal`` after a crash.

        ``database`` / ``catalog`` must be the *same* durable objects
        the crashed process was serving over (storage survives a
        process crash; only warehouse memory dies).  Construction
        kwargs should match the crashed warehouse's.  Restores the
        latest checkpoint, replays the journal tail, resolves in-doubt
        tuning applies (forward if committed, back via the journaled
        undo snapshot otherwise), then attaches the journal and writes
        a post-recovery checkpoint so a crash during a later replay
        never re-reads this one's work.
        """
        warehouse = cls(database, catalog, **kwargs)
        ledger = warehouse.ledger
        ledger.last_recovery = recover_warehouse(warehouse, journal)
        ledger.journal = journal
        warehouse.checkpoint()
        return warehouse

    def warm_cache(
        self,
        workload: "Mapping[str, str] | Iterable[tuple[str, str]]",
        constraint: Constraint,
        *,
        top: int | None = None,
    ) -> list[str]:
        """Pre-plan the hottest forecast templates through the skeleton path.

        ``workload`` maps template family names to one representative SQL
        text each (a mapping or ``(family, sql)`` pairs).  Families are
        ranked by the Statistics Service's forecast arrival rates (raw
        log counts break ties, input order last, so an empty log warms in
        the given order), the ``top`` hottest are planned under
        ``constraint`` — populating the binding, skeleton, and exact
        caches exactly as serving would — and the warmed family names are
        returned hottest-first.  Nothing is logged, billed, or
        admission-checked: warming is the warehouse spending background
        planning time, not tenant traffic.  No-op when plan caching is
        disabled.
        """
        if self.plan_cache is None:
            return []
        ranked = rank_by_forecast(
            workload, self.frequency.family_rates(), self.logs.template_counts()
        )
        if top is not None:
            ranked = ranked[: max(top, 0)]
        warmed: list[str] = []
        for family, sql in ranked:
            self.planning.plan(sql, constraint)
            if self.ledger.note_template is not None:
                self.ledger.note_template(
                    family, parameterize_sql(sql).template_key
                )
            warmed.append(family)
        return warmed

    def invalidate_plan_cache(self) -> None:
        """Explicitly flush cached plans, skeletons, and template
        bindings (catalog mutations invalidate automatically via the
        stats version; use this after out-of-band changes such as
        hardware recalibration)."""
        self._plan_cache_epoch += 1
        for _, cache in self.planning.levels():
            cache.invalidate()
        # The representative template bindings embed the same statistics
        # the plan caches do; a flush that leaves them behind would hand
        # the tuning advisor bound queries from a world that no longer
        # exists.
        self._template_queries.clear()

    @property
    def template_queries(self) -> dict[str, BoundQuery]:
        """Representative bound query per template family, restricted to
        bindings made under the *current* stats version (stale ones are
        invisible until the template is served again)."""
        version = self.catalog.version
        return {
            template: bound
            for template, (bound_version, bound) in self._template_queries.items()
            if bound_version == version
        }

    def _remember_template(self, template: str, bound: BoundQuery) -> None:
        self._template_queries[template] = (self.catalog.version, bound)

    @property
    def billed_dollars(self) -> float:
        """Total serving dollars billed across all tenants."""
        return self.ledger.billed_dollars

    @property
    def background_dollars(self) -> float:
        """Total background-tuning dollars metered across all tenants."""
        return self.ledger.background_dollars

    def describe_billing(self) -> str:
        """Per-tenant spend roll-up, one line per tenant plus the total."""
        return self.ledger.describe_billing()

    def reset_cache_stats(self) -> None:
        """Zero all cache, optimizer, retention-policy, admission, and
        resilience counters without dropping entries or budgets
        (benchmark warmup: report steady-state rates only)."""
        for _, cache in self.planning.levels():
            cache.reset_stats()
        self.estimator.models.cache.stats.reset()
        self.optimizer.reset_counters()
        with self.ledger.lock:
            # Verdict counters are journaled state: checkpoint the zeroed
            # counters, or recovery would replay the decisions the reset
            # forgot.
            self.admission.reset_stats()
            if self.journal is not None:
                self.checkpoint()
        # Retry / deadline / degraded tallies are warmup noise too: a
        # benchmark that resets cache counters but keeps phantom retries
        # reports steady-state hit rates against warmup failures.
        self.resilience_stats.reset()
        # Owned registry metrics (served/failed/denied counters, latency
        # histograms, snapshot tallies) are warmup noise by the same
        # argument; sourced metrics re-read the subsystems just reset.
        self.metrics.reset()

    def _simulate(
        self,
        choice: PlanChoice,
        constraint: Constraint,
        policy: str | ScalingPolicy,
        truth: dict[int, float] | None,
    ) -> SimResult:
        """Simulate one execution of ``choice``.

        Under a policy *name* this is a pure function of its arguments,
        ``sim_config``, ``max_dop`` and the estimator's calibration —
        the policy object, the warm pool and the simulator are built
        fresh from them, and no clock or carried state is read — so the
        result is kept in the estimator's per-DAG simulation memo and
        every later arrival of the plan gets the same (shared,
        read-only) :class:`SimResult`.  One DAG can sit behind an SLA
        and a budget ``PlanChoice``, hence the constraint and the DOP
        assignment in the key.  A :class:`ScalingPolicy` *instance* is
        the caller's, possibly stateful: it bypasses the memo.
        """
        if isinstance(policy, ScalingPolicy):
            key, policy_obj = None, policy
        else:
            key = (
                policy,
                constraint,
                tuple(sorted(choice.dop_plan.dops.items())),
                overrides_key(truth),
                self.sim_config,
                self.max_dop,
            )
            found = self.estimator.recall_simulation(choice.dag, key)
            if found is not None:
                return found
            policy_obj = make_policy(
                policy, choice, constraint, self.estimator, max_dop=self.max_dop
            )
        config = self.sim_config
        if getattr(policy_obj, "name", "") == "stage-scaler":
            config = dataclasses_replace(config, materialize_exchanges=True)
        simulator = DistributedSimulator(
            choice.dag,
            choice.dop_plan.dops,
            self.estimator.models,
            truth=truth,
            planned=choice.dop_plan.estimate,
            policy=policy_obj,
            config=config,
        )
        result = simulator.run()
        if key is not None:
            self.estimator.remember_simulation(choice.dag, key, result)
        return result

    # ------------------------------------------------------------------ #
    # Background auto-tuning
    # ------------------------------------------------------------------ #
    @property
    def tuning(self) -> TuningService:
        """The warehouse's persistent tuning service (lazily created).

        Holds one What-If Service / advisor / background-compute
        executor for the warehouse's lifetime and exposes the typed
        ``propose() / apply() / apply_all() / rollback()`` lifecycle —
        see :mod:`repro.tuning.service`.
        """
        if self._tuning is None:
            self._tuning = TuningService(self, self.tuning_policy)
        return self._tuning

    def _between_batches(self) -> None:
        """Serving-layer hook, run by :class:`~repro.core.service.Session`
        after every submission: a tuning cycle when a recurring
        :class:`~repro.tuning.service.TuningPolicy` is due, then a cost
        snapshot when a recurring collection policy is due."""
        policy = self._tuning.policy if self._tuning is not None else self.tuning_policy
        if policy is not None and policy.recurring:
            self.tuning.maybe_run_cycle()
        collection = self.collector.policy
        if collection is not None and collection.recurring:
            self.collector.maybe_collect()
