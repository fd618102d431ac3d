"""Cost intelligence core: the bi-objective optimizer and the warehouse.

This package wires the paper's architecture (Figure 3) together: the
bi-objective optimizer turns a bound query plus a user constraint into a
cost-aware distributed plan (DAG planning -> bushy variants -> DOP
planning), and :class:`CostIntelligentWarehouse` is the user-facing
service that optimizes, provisions, executes (simulated and/or local),
meters cost, logs to the Statistics Service, and hosts background
auto-tuning.

The serving surface is the request/lifecycle API in
:mod:`repro.core.service`: a frozen :class:`QueryRequest` goes in, a
:class:`QueryHandle` tracks ``QUEUED -> BOUND -> PLANNED -> SIMULATED ->
DONE/FAILED`` (or ``DENIED``, when admission control refuses the
tenant), per-tenant :class:`Session`\\ s carry defaults and isolated
log/billing views, and the :class:`ServingScheduler` is the one ordered
*dispatch ahead -> collect or stage -> finalize* loop, staging inline,
on threads or on planner worker processes.  Planning itself is one walk
(:class:`~repro.core.planning.PlanningPipeline`: binder, optimizer,
applied-MV rewrite, and the cache levels it was given)
that the warehouse and every worker process both instantiate.

Resource decisions live in :mod:`repro.core.governance`, not in the
caches or sessions they govern.  Cache *retention* is a pluggable
:class:`RetentionPolicy` threaded through all three plan-cache levels:
:class:`LruPolicy` (default) evicts by recency, bit-identical to the
pre-governance warehouse; :class:`CostAwarePolicy` scores entries by the
Statistics Service's forecast template frequency times the measured
re-optimization seconds an entry saves, so hot recurring reports survive
eviction pressure (``warehouse.warm_cache`` pre-plans the hottest
forecast templates the same way).  Tenant *admission* is an
:class:`AdmissionController` consulted at ``Session._admit`` time: per
:class:`TenantBudget` dollar ceilings over the tenant's full
:class:`TenantBill` (serving + background tuning) escalate ``ADMIT ->
THROTTLE -> DEFER -> DENY``, with denials surfaced as typed
:class:`~repro.errors.AdmissionDeniedError`\\ s on the handle — one
tenant running dry never fails another tenant's in-flight batch.

Failure domains are hardened in :mod:`repro.core.resilience`.  The
serving stages (``bind`` / ``optimize`` / ``simulate``), the Statistics
Service forecaster, and background tuning applies are named *fault
points*; a :class:`~repro.core.resilience.ResiliencePolicy` on the
warehouse wraps the serving stages in a per-request
:class:`~repro.core.resilience.StageGuard` that (a) retries transient
failures under a :class:`~repro.core.resilience.RetryPolicy` — bounded
attempts, exponential backoff with deterministic seeded jitter, retry
dollars metered into the tenant's :class:`TenantBill` and *budget-aware*
(a tenant near ``DENY`` gets fewer attempts); (b) enforces per-request
and per-stage :class:`~repro.core.resilience.Deadline`\\ s, where an
``optimize`` timeout falls back to *degraded-mode serving* (cached
skeleton shapes, else the heuristic left-deep default plan — bit-
identical to a cold ``explore_bushy=False`` optimizer; the outcome is
marked ``degraded=True`` and the batch never fails); and (c) guards the
forecaster and the tuner with
:class:`~repro.core.resilience.CircuitBreaker`\\ s — an open statsvc
breaker degrades cost-aware retention to plain LRU, an open tuning
breaker stops a failing tuner from burning background dollars.
Failures are a deterministic, testable input: ``warehouse.inject_faults``
installs a seeded :class:`~repro.testing.faults.FaultPlan` on the
warehouse's one :class:`~repro.core.resilience.FaultPort`, which every
fault point draws through — the guard's stages, the ledger's crash
probes, the forecaster, background tuning and the worker pool's
``worker_crash`` — and drives the chaos suite;
``warehouse.describe_health()`` reports breaker states, retry/degraded
counters, and the tuning service's last swallowed error.

Crash consistency lives in :mod:`repro.core.ledger`,
:mod:`repro.core.journal` and :mod:`repro.core.recovery`.  One
:class:`~repro.core.ledger.Ledger` owns every piece of authoritative
state (statistics log, clock, per-tenant bills, verdict counters,
applied MVs, tuning bookkeeping, cost history), and every transition is
a journal record folded in by one function, ``Ledger.apply``: live code
calls ``Ledger.commit`` — journal the record first when a
:class:`WriteAheadJournal` is attached
(``CostIntelligentWarehouse(journal=...)``), the same call minus the
append when not — and recovery applies each replayed record, with
periodic inline checkpoints bounding replay.  Billing accumulates in
integral dyadic ledger units
(:data:`~repro.core.journal.LEDGER_SCALE` per dollar), so a replay
reproduces live totals to the last bit.  Tuning applies are a
two-record protocol: a ``TuningIntent`` carrying a declarative,
picklable :class:`~repro.core.journal.UndoSnapshot` (captured before
the catalog mutates; live rollbacks and recovery execute the same one)
and a ``TuningCommit`` after; a crash
between the two leaves the apply *in doubt*, and
``CostIntelligentWarehouse.recover(journal, database=...)`` — which
restores the latest checkpoint, replays the tail in LSN order, and
resolves in-doubt records (forward if the commit landed, back via the
journaled snapshot otherwise) — guarantees no recommendation is ever
left ``APPLYING``.  The catalog/database is durable storage shared
with the crashed process; recovery rebuilds warehouse memory over the
*same* objects and never redoes storage mutations.  The kill-point
harness (:func:`~repro.testing.faults.kill` at the
:data:`~repro.testing.faults.CRASH_POINTS` record boundaries) drives
the crash-recovery chaos suite; ``describe_health()`` carries a
``durability`` block (journal length, last checkpoint, records
replayed, in-doubt resolutions).

Cost observability lives in :mod:`repro.obsvc`.  The warehouse owns a
typed :class:`~repro.obsvc.metrics.MetricsRegistry` (every metric
declared up front; dollar metrics carried in integral ledger units) that
``describe_health()``/``describe_caches()`` are read-only views over,
and a :class:`~repro.obsvc.collector.SnapshotCollector`
(``warehouse.enable_collection``, off by default) that folds the
statistics log into per-tenant :class:`~repro.obsvc.history.CostSnapshot`\\ s
on a virtual-time or query-count cadence — each committed through the
ledger inside a ``CostSnapshotTaken`` record, which carries the
snapshot object itself as checkpoints do, so the
:class:`~repro.obsvc.history.CostHistoryStore` participates in
checkpoint/recovery like every other authoritative state.  The
:class:`~repro.obsvc.drilldown.DrillDownNavigator` decomposes spend
tenant → template family → pipeline → operator with each level an exact
integral partition of the one above, and ``warehouse.observe()``
exports the whole picture as a dict, JSON, or Prometheus text.

Process-sharded serving lives in :mod:`repro.core.sharding` (the
coordinator-side :class:`~repro.core.sharding.PlannerWorkerPool`) and
:mod:`repro.core.sharding_worker` (the worker entrypoint).  Threaded
batch serving interleaves CPU-bound planning under the GIL; with
``warehouse.enable_sharding(workers=N)`` the scheduler instead stages
``bind -> optimize`` in warm, long-lived worker *processes*, keyed by
literal-free template so each worker's private (bounded)
binding/skeleton caches serve every instantiation of its templates.  Workers exchange only
picklable wire records (:class:`~repro.core.sharding.StageTask` out,
:class:`~repro.core.sharding.StagedPlan` back); every authoritative
effect — admission, billing, statistics logs, journal appends,
simulation — happens at the coordinator's ordered finalize, so sharded
output is bit-identical to the threaded and sequential paths (plans,
logs, ledger bills, admission verdicts — enforced by the sharded
parity matrix).  Crashed workers (including the seeded
``worker_crash`` fault point) restart warm with their in-flight tasks
re-staged exactly-once; an unresponsive worker surfaces as an
``optimize`` deadline and takes the degraded fallback above.  An
import-graph assertion (``tests/testing/test_production_imports.py``)
checks that the worker module never imports the coordinator's
journal/billing/logging surfaces.

The contracts above are *machine-enforced*: ``python -m repro.analysis
--strict src tests`` (the CI ``lint`` gate — see
:mod:`repro.analysis`) lints ledger-unit billing, StageGuard-only fault
handling, virtual-time discipline and lock hygiene;
``tests/testing/test_production_imports.py`` asserts that only the
ledger module appends to the journal, that only the fault port draws
from a fault plan, worker isolation, and the frozen warehouse
constructor surface; the lock-order sanitizer
(:mod:`repro.testing.locks`) checks the runtime complement, a
cycle-free lock acquisition order, across the chaos matrix.
"""

from repro.core.bioptimizer import BiObjectiveOptimizer, PlanChoice
from repro.core.journal import (
    LEDGER_SCALE,
    Checkpoint,
    CheckpointState,
    DurableRecommendation,
    JournalEntry,
    UndoSnapshot,
    WriteAheadJournal,
    from_ledger_units,
    to_ledger_units,
)
from repro.core.ledger import TenantBill
from repro.core.recovery import RecoveryReport, recover_warehouse
from repro.core.governance import (
    AdmissionController,
    AdmissionVerdict,
    CostAwarePolicy,
    LruPolicy,
    RetentionPolicy,
    TemplateFrequencyProvider,
    TenantBudget,
    make_retention_policy,
)
from repro.core.resilience import (
    BreakerState,
    CircuitBreaker,
    Deadline,
    ResiliencePolicy,
    ResilienceStats,
    RetryPolicy,
    StageGuard,
)
from repro.core.service import (
    QueryHandle,
    QueryOutcome,
    QueryRequest,
    QueryState,
    ServingScheduler,
    Session,
)
from repro.core.sharding import PlannerWorkerPool
from repro.core.warehouse import CostIntelligentWarehouse

__all__ = [
    "BiObjectiveOptimizer",
    "PlanChoice",
    "CostIntelligentWarehouse",
    "AdmissionController",
    "AdmissionVerdict",
    "CostAwarePolicy",
    "LruPolicy",
    "RetentionPolicy",
    "TemplateFrequencyProvider",
    "TenantBudget",
    "make_retention_policy",
    "LEDGER_SCALE",
    "Checkpoint",
    "CheckpointState",
    "DurableRecommendation",
    "JournalEntry",
    "UndoSnapshot",
    "WriteAheadJournal",
    "from_ledger_units",
    "to_ledger_units",
    "RecoveryReport",
    "recover_warehouse",
    "BreakerState",
    "CircuitBreaker",
    "Deadline",
    "ResiliencePolicy",
    "ResilienceStats",
    "RetryPolicy",
    "StageGuard",
    "QueryHandle",
    "QueryOutcome",
    "QueryRequest",
    "QueryState",
    "ServingScheduler",
    "Session",
    "TenantBill",
    "PlannerWorkerPool",
]
