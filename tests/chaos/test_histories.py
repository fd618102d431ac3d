"""Generated histories: one state machine over the warehouse's real verbs.

A ``hypothesis`` :class:`~hypothesis.stateful.RuleBasedStateMachine`
drives a journaled, lock-instrumented warehouse through batches from
three tenants (one budgeted) on the inline and thread executors, seeded
serving faults, checkpoints, kills at every journal crash point followed
by recovery and resumption, tuning applies and rollbacks (some failed
by a one-shot ``tuning_apply`` fault), snapshot
collection, forecast refreshes and cache invalidation.  After every step
it is held to two references that share no code with the ledger:

- **the fold** (:func:`fold`) recomputes every tenant's ledger units
  and admission decisions, the logged query ids and each
  recommendation's durable state from
  every record the journal was given since LSN 1 (a
  :class:`~repro.testing.RecordingJournal`'s ``recorded()``: the
  journal itself seals at each checkpoint, and its retained entries
  must be the recording's tail from the newest checkpoint's log window);
- **the twin** is a journal-free, uninstrumented, collection-off
  warehouse fed the same requests inline under the same fault plan; the
  journaled warehouse's handles, log and bills' spend must equal its
  bit for bit (not the bills' verdict counts: a request resumed after
  a kill is admission-checked again; nor their unfolded units: the
  twin does not collect).  Fault draws follow each point's invocation count, so once
  serving faults meet a threaded or sharded batch they depend on the
  executor, and the twin is dropped for the rest of that example.

:class:`ShardedHistories` plans on a planner worker process that a
seeded ``worker_crash`` schedule kills.  Tier-1's hypothesis profile is
derandomized (``tests/conftest.py``): each test replays the same
programs and ends by asserting that they reached every rule, crash
point and failure mode.  ``--hypothesis-profile=explore`` draws fresh
programs, ten times as many.
"""

from __future__ import annotations

import functools
import inspect
import pickle
from collections import Counter, defaultdict
from dataclasses import replace

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core.journal import (
    AdmissionDecision,
    Checkpoint,
    QueryServed,
    RetryCharge,
    RollbackCommit,
    RollbackIntent,
    TuningCommit,
    TuningFailed,
    TuningIntent,
)
from repro.core.resilience import ResiliencePolicy, RetryPolicy
from repro.core.service import QueryRequest, QueryState
from repro.core.warehouse import CostIntelligentWarehouse
from repro.dop.constraints import sla_constraint
from repro.errors import AdmissionDeniedError, QueryFailedError, ReproError
from repro.obsvc.drilldown import DrillDownNavigator
from repro.obsvc.history import RETRY_LEAF
from repro.statsvc.logs import WINDOW_RECORDS
from repro.testing import (
    CRASH_POINTS,
    FaultPlan,
    FaultSpec,
    RecordingJournal,
    SimulatedCrashError,
    instrument_warehouse,
    kill,
    outage,
)
from repro.tuning.service import Recommendation
from repro.util.units import from_ledger_units, to_ledger_units
from repro.workloads.tpch_stats import synthetic_tpch_catalog

SLA = sla_constraint(20.0)

#: Template family -> (SQL, its literals).  Over these literals every
#: family's cold plan is among the join shapes its skeleton caches, so a
#: plan never depends on which literal warmed the cache.
TEMPLATES = {
    "orders": (
        "SELECT count(*) AS c FROM orders WHERE o_totalprice > {v}",
        (0, 80_000, 160_000, 240_000, 320_000, 400_000),
    ),
    "lineitem": (
        "SELECT count(*) AS c FROM lineitem WHERE l_quantity > {v}",
        (0, 10, 20, 30, 40, 50),
    ),
    "region": (
        "SELECT n_name, sum(c_acctbal) AS bal, count(*) AS cnt "
        "FROM customer, nation WHERE c_nationkey = n_nationkey "
        "AND n_regionkey = {v} GROUP BY n_name",
        (0, 1, 2, 3, 4, 5),
    ),
    # Four tables: the degraded heuristic plan differs from the full one,
    # so a cached degraded plan is visible.
    "four_way": (
        "SELECT n_name, count(*) AS cnt "
        "FROM customer, orders, lineitem, nation "
        "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey "
        "AND c_nationkey = n_nationkey AND o_totalprice > {v} "
        "GROUP BY n_name",
        (0, 80_000, 160_000, 240_000, 320_000, 400_000),
    ),
}
TENANTS = ("acme", "bolt", "capped")
#: ``capped`` walks ADMIT -> THROTTLE -> DEFER -> DENY within an example.
WAREHOUSE = {
    "retention_policy": "cost-aware",
    "tenant_budgets": {"capped": 0.004},
    "resilience": ResiliencePolicy(
        retry=RetryPolicy(max_attempts=3), stage_deadline_s={"optimize": 1.0}
    ),
}
CADENCE = 2

BATCHES = st.lists(
    st.tuples(st.sampled_from(sorted(TEMPLATES)), st.integers(0, 5)),
    min_size=1,
    max_size=4,
)
#: One ``serve`` step, as one argument: hypothesis favours the rules
#: that take the fewest, and serving is what most steps should do.
ORDERS = st.fixed_dictionaries(
    {
        "tenant": st.sampled_from(TENANTS),
        "batch": BATCHES,
        "workers": st.sampled_from((1, 4)),
        # No kill, or one at an invocation of a journal write probe.
        "kill_at": st.none()
        | st.tuples(st.sampled_from(("crash_pre_write", "crash_post_write")), st.integers(0, 7)),
    }
)
#: No kill, or a kill a tuning apply or rollback reaches: the in-doubt
#: window before its commit (listed first, so the search favours it), or
#: a write probe around its intent (0) or its commit (1).
TUNING_KILLS = st.none() | st.sampled_from(
    [("crash_pre_commit", 0)]
    + [(point, at) for point in ("crash_pre_write", "crash_post_write") for at in (0, 1)]
)

#: A recommendation's durable state, read off the last record the journal
#: holds for it.  An intent is last only when a crash cut its operation
#: short, and recovery resolved it: an apply voided, a rollback completed.
#: Commits meter what the apply intent carries: an apply its report's
#: ``one_time_dollars``, a rollback (completed or in doubt) its
#: ``undo.dollars``, into its ``tenant_shares``.
#: A ``TuningFailed`` that follows a ``RollbackIntent`` leaves the action
#: applied.
RESOLVED = {
    TuningIntent: "failed",
    TuningCommit: "applied",
    TuningFailed: "failed",
    RollbackIntent: "rolled_back",
    RollbackCommit: "rolled_back",
}


def fold(entries) -> tuple[dict, list, dict]:
    """What the journal says the ledger holds, between steps: per-tenant
    ``[queries, serving, background, retry]`` ledger units and
    admission decisions, the logged query ids, and each
    recommendation's durable state."""
    units: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0, 0, 0])
    query_ids: list[int] = []
    last: dict[int, object] = {}
    intents: dict[int, TuningIntent] = {}
    rollback_failed: set[int] = set()

    def spend(rec_id, dollars) -> None:
        if dollars > 0.0:
            for tenant, share in intents[rec_id].tenant_shares or (("default", 1.0),):
                units[tenant][2] += to_ledger_units(dollars * share)

    for entry in entries:
        record = entry.record
        if isinstance(record, QueryServed):
            served = record.record
            query_ids.append(served.query_id)
            units[served.tenant][0] += 1
            units[served.tenant][1] += to_ledger_units(served.dollars)
        elif isinstance(record, RetryCharge):
            units[record.tenant][3] += to_ledger_units(record.dollars)
        elif isinstance(record, AdmissionDecision):
            units[record.tenant][4] += 1
        elif type(record) in RESOLVED:
            if isinstance(record, TuningFailed) and isinstance(last.get(record.rec_id), RollbackIntent):
                rollback_failed.add(record.rec_id)
            else:
                rollback_failed.discard(record.rec_id)
            last[record.rec_id] = record
            if isinstance(record, TuningIntent):
                intents[record.rec_id] = record
            elif isinstance(record, TuningCommit):
                spend(record.rec_id, intents[record.rec_id].report.one_time_dollars)
            elif isinstance(record, RollbackCommit):
                spend(record.rec_id, intents[record.rec_id].undo.dollars)
    for rec_id, record in last.items():
        if isinstance(record, RollbackIntent):
            spend(rec_id, intents[rec_id].undo.dollars)
    states = {
        rec_id: "applied" if rec_id in rollback_failed else RESOLVED[type(record)]
        for rec_id, record in last.items()
    }
    return dict(units), query_ids, states


def plan_snapshot(choice) -> tuple:
    estimate = choice.dop_plan.estimate
    return (
        choice.join_tree.describe(),
        tuple(sorted(choice.dop_plan.dops.items())),
        estimate.latency,
        estimate.total_dollars,
        estimate.machine_seconds,
        choice.variants_considered,
    )


def handle_row(handle) -> tuple:
    """What a tenant sees of one handle."""
    head = (handle.state.name, handle.admission)
    if handle.state is QueryState.DONE:
        outcome = handle.result()
        return head + (handle.degraded, plan_snapshot(outcome.choice), outcome.record)
    return head + (type(handle.error).__name__, handle.error.cause_type)


def spend_of(bill) -> tuple:
    """A bill's ledger snapshot with its verdict counts and unfolded
    units zeroed: what the twin must reproduce (see the module
    docstring)."""
    return replace(
        bill, admits=0, throttles=0, defers=0, denies=0, unfolded_units=0
    ).ledger_snapshot()


def pool_stats(warehouse) -> "tuple[int, int, int] | None":
    pool = warehouse.worker_pool
    if pool is None:
        return None
    return (pool.injected_kills, pool.restarts, pool.restaged_tasks)


def assert_same_state(actual, expected, context: str = "") -> None:
    """``actual == expected`` over (handle rows, log rows, bills),
    reporting the first handle, log row or bill that differs, so an
    intermittent failure reads from the ``-q`` output of the run that
    hit it."""
    for part, got, want in zip(("handle", "log row", "bill"), actual, expected):
        if part == "bill":
            got, want = sorted(got.items()), sorted(want.items())
        assert len(got) == len(want), (
            f"{context}: {len(got)} {part}s, expected {len(want)}"
        )
        for index, (got_row, want_row) in enumerate(zip(got, want)):
            assert got_row == want_row, (
                f"{context}: first differing {part} is #{index}:\n"
                f"  got      {got_row}\n  expected {want_row}"
            )
    assert actual == expected, context


def cold_start(warehouse) -> None:
    """Empty every cache level and memo, as a recovered warehouse starts:
    which stages a request runs, and so which fault points it draws,
    depends on what its caches hold."""
    warehouse.invalidate_plan_cache()
    warehouse.estimator.invalidate_caches()


def counted(step):
    """Count each firing of a rule into the run's coverage."""

    @functools.wraps(step)
    def fire(self, **kwargs):
        self.coverage[step.__name__] += 1
        return step(self, **kwargs)

    fire.counted = True
    return fire


class Histories(RuleBasedStateMachine):
    """One generated history against the fold and the twin."""

    #: Fault specs every installed plan carries (the sharded machine's
    #: worker-crash schedule).
    base_specs: tuple = ()
    steps = 25

    def __init__(self, coverage: Counter) -> None:
        super().__init__()
        self.coverage = coverage
        self.seed = 0
        #: Durable storage: survives every crash, as a database would.
        self.catalog = synthetic_tpch_catalog(1.0)
        self.wh = CostIntelligentWarehouse(
            catalog=self.catalog, journal=RecordingJournal(checkpoint_every=8), **WAREHOUSE
        )
        self.sanitizer = instrument_warehouse(self.wh)
        self.twin = CostIntelligentWarehouse(catalog=synthetic_tpch_catalog(1.0), **WAREHOUSE)
        self.clock = 0.0
        self.sqls: set[str] = set()
        self.faults_active = False
        self.collecting = False
        #: The DONE handles the current warehouse served degraded (its
        #: degraded count restarts at zero after a recovery; the retry
        #: dollars are read off the bills, so they never do).
        self.degraded = 0
        #: The twin's copies of the applies it mirrored, by name.
        self.twin_applied: dict[str, Recommendation] = {}

    # -- helpers ------------------------------------------------------- #
    def _install(self, specs, seed: "int | None" = None) -> None:
        """The same fault plan on both warehouses (a fresh one each)."""
        specs = [*self.base_specs, *specs]
        seed = self.seed if seed is None else seed
        for warehouse in (self.wh, self.twin):
            if warehouse is not None:
                warehouse.inject_faults(FaultPlan(specs, seed=seed) if specs else None)

    def _submit(self, warehouse, tenant, requests, workers):
        session = warehouse.session(tenant=tenant, constraint=SLA)
        return session.submit_many(requests, max_workers=workers)

    def _check_handles(self, handles) -> None:
        for handle in handles:
            self.coverage[handle.state.name] += 1
            error = handle.error
            if handle.state is QueryState.DONE and handle.degraded:
                self.degraded += 1
                self.coverage["degraded"] += 1
                assert handle.result().degraded_mode in ("heuristic", "skeleton")
            elif handle.state is QueryState.DONE:
                # Whichever level answered, a healthy plan is the cold
                # optimizer's: no degraded plan was cached.
                _, cold = self.wh.plan(handle.request.sql, SLA, use_plan_cache=False)
                assert plan_snapshot(handle.result().choice) == plan_snapshot(cold)
            elif handle.state is QueryState.DENIED:
                assert isinstance(error, AdmissionDeniedError), error
            else:
                assert handle.state is QueryState.FAILED, handle.state
                assert isinstance(error, QueryFailedError), error
                assert error.stage in ("bind", "optimize", "simulate"), error.stage
            if error is not None:
                clone = pickle.loads(pickle.dumps(error))  # crosses processes
                assert (type(clone), clone.cause_type, clone.stage) == (
                    type(error), error.cause_type, error.stage
                )

    def _recover(self, crash: SimulatedCrashError) -> None:
        """Rebuild the warehouse from its journal over the surviving
        catalog, as a restarted process would."""
        self.coverage[crash.point] += 1
        dead = self.wh
        self._note_pool(dead)
        dead.disable_sharding()
        self.wh = CostIntelligentWarehouse.recover(dead.journal, catalog=self.catalog, **WAREHOUSE)
        report = self.wh.last_recovery
        self.coverage["in_doubt_back"] += report.in_doubt_back
        self.coverage["in_doubt_forward"] += report.in_doubt_forward
        # The cost history survives intact: every snapshot the dead
        # process held, plus at most the one it journaled but never
        # applied, each still reconciling.
        held = dead.cost_history.snapshots()
        history = self.wh.cost_history.snapshots()
        assert history[: len(held)] == held and len(history) <= len(held) + 1
        for snapshot in history:
            DrillDownNavigator(snapshot).reconcile()
        self.degraded = 0
        if self.collecting:
            self.wh.enable_collection(cadence_queries=CADENCE)
        self._restart_planners()

    def _restart_planners(self) -> None:
        """Sharded subclasses start the recovered warehouse's pool."""

    def _note_pool(self, warehouse) -> None:
        stats = pool_stats(warehouse)
        if stats is not None:
            self.coverage["worker_kills"] += stats[0]
            self.coverage["restaged_tasks"] += stats[2]

    def _tune(self, op: str, rec: Recommendation, crash, fault: bool = False) -> None:
        """Apply or roll back ``rec`` (under a kill, then recover; or a
        one-shot ``tuning_apply`` fault), and mirror on the twin whatever
        the journaled warehouse ended with."""
        name = rec.action.name
        specs = [kill(crash[0], at=crash[1])] if crash is not None else []
        if fault:
            specs.append(outage("tuning_apply", limit=1))
        if specs:
            self._install(specs)
        recovered = False
        try:
            if op == "apply":
                self.wh.tuning.apply(rec)
            else:
                self.wh.tuning.rollback(rec)
        except ReproError:
            # Failed in-process (the MV exists, or the fault fired):
            # TuningFailed, nothing mutated.
            if op == "rollback":
                self.coverage["rollback_failed"] += 1
                assert rec.applied and self.catalog.has_view(name)
        except SimulatedCrashError as error:
            self._recover(error)
            recovered = True
        if specs:
            self._install([])
        held = self.wh.ledger.recommendations.get(rec.rec_id)
        state = held.state.value if held is not None else None
        twin = self.twin
        if op == "apply" and state == "applied":
            self.coverage["applied"] += 1
            if twin is not None:
                clone = Recommendation(
                    rec_id=twin.ledger.issue_rec_id(),
                    report=rec.report,
                    tenant_shares=rec.tenant_shares,
                )
                twin.tuning.accept(clone)
                self.twin_applied[name] = twin.tuning.apply(clone)
        if op == "rollback" and state == "rolled_back":
            self.coverage["rolled_back"] += 1
            if twin is not None:
                twin.tuning.rollback(self.twin_applied.pop(name))
        if recovered and twin is not None:
            cold_start(twin)

    # -- rules --------------------------------------------------------- #
    @rule(order=ORDERS)
    @counted
    def serve(self, order):
        """Serve a batch, or, given ``kill_at`` and an unbudgeted tenant,
        kill it at a journal write, recover and resume what never
        finalized.  The kill plan replaces any serving faults (a
        re-served request would draw new ones), and an unbudgeted
        tenant's requests are all admitted, so they finalize in order and
        the recovered log says how far the dead process got."""
        tenant, batch, workers, kill_at = (
            order[key] for key in ("tenant", "batch", "workers", "kill_at")
        )
        requests = []
        for name, index in batch:
            sql = TEMPLATES[name][0].format(v=TEMPLATES[name][1][index])
            self.sqls.add(sql)
            self.clock += 30.0
            requests.append(QueryRequest(sql=sql, template=name, at_time=self.clock))
        killing = kill_at is not None and tenant != "capped"
        if killing:
            self._install([kill(kill_at[0], at=kill_at[1])])
            self.faults_active = False
        logged = len(self.wh.logs)
        done = 0  # requests finalized before a crash
        try:
            handles = self._submit(self.wh, tenant, requests, workers)
        except SimulatedCrashError as crash:
            self._recover(crash)
            done = len(self.wh.logs) - logged
            handles = self._submit(self.wh, tenant, requests[done:], workers)
            if self.twin is not None:
                # The twin serves what finalized before the crash, then
                # restarts its caches as the recovered warehouse did.
                self._submit(self.twin, tenant, requests[:done], 1)
                cold_start(self.twin)
        if killing:
            self._install([])
        self._check_handles(handles)
        # Exactly one log record per DONE handle, none for the others.
        assert len(self.wh.logs) - logged == done + sum(h.state is QueryState.DONE for h in handles)
        if self.faults_active and (workers > 1 or self.wh.worker_pool is not None):
            self.twin = None
            self.coverage["twin_dropped"] += 1
        if self.twin is not None:
            twin_handles = self._submit(self.twin, tenant, requests[done:], 1)
            assert_same_state(
                ([handle_row(h) for h in handles], (), {}),
                ([handle_row(h) for h in twin_handles], (), {}),
                f"pool (kills, restarts, restaged) {pool_stats(self.wh)}",
            )

    @rule(seed=st.integers(0, 2**16), rate=st.sampled_from((0.15, 0.4)))
    @counted
    def inject_faults(self, seed, rate):
        self._install(
            [
                FaultSpec(point="bind", error_rate=rate),
                # 2 s spikes against the 1 s optimize deadline: some
                # submissions take the degraded fallback.
                FaultSpec(point="optimize", error_rate=rate, latency_rate=0.3, latency_s=2.0),
                FaultSpec(point="simulate", error_rate=rate),
                FaultSpec(point="statsvc", error_rate=0.6),
            ],
            seed,
        )
        self.faults_active = True

    @precondition(lambda self: self.faults_active)
    @rule()
    @counted
    def clear_faults(self):
        """Clear the faults; whatever the caches absorbed meanwhile, no
        degraded plan is among it.  (The twin plans the same statements,
        to keep its caches equal.)"""
        self._install([])
        self.faults_active = False
        for warehouse in (self.wh, self.twin):
            for sql in sorted(self.sqls) if warehouse is not None else ():
                _, cached = warehouse.plan(sql, SLA)
                _, cold = warehouse.plan(sql, SLA, use_plan_cache=False)
                assert plan_snapshot(cached) == plan_snapshot(cold), sql

    @rule(chore=st.sampled_from(("checkpoint", "forecast", "plans", "estimator")))
    @counted
    def upkeep(self, chore):
        """A chore beside serving: a checkpoint, a forecast refresh (the
        ``statsvc`` fault point), or a flush of the plan-cache levels or
        of the estimator's memos."""
        self.coverage[chore] += 1
        if chore == "checkpoint":
            return self.wh.checkpoint()
        for warehouse in (self.wh, self.twin) if self.twin is not None else (self.wh,):
            if chore == "forecast":
                warehouse.frequency.invalidate()
                warehouse.frequency.family_rates()
            elif chore == "plans":
                warehouse.invalidate_plan_cache()
            else:
                warehouse.estimator.invalidate_caches()

    @precondition(lambda self: len(self.wh.logs))
    @rule(pick=st.integers(0, 3), crash=TUNING_KILLS)
    @counted
    def tune(self, pick, crash):
        """Propose, then apply one materialized view."""
        views = [r for r in self.wh.tuning.propose() if r.action.kind == "materialized-view"]
        if views:
            rec = views[pick % len(views)]
            if not rec.accepted:
                self.wh.tuning.accept(rec)
            self._tune("apply", rec, crash)

    @precondition(lambda self: any(rec.applied for rec in self.wh.ledger.recommendations.values()))
    @rule(pick=st.integers(0, 3), crash=TUNING_KILLS, fault=st.sampled_from((True, False)))
    @counted
    def rollback(self, pick, crash, fault):
        """Roll back one applied recommendation, as the current (perhaps
        recovered) warehouse lists them."""
        applied = self.wh.tuning.applied_recommendations
        self._tune("rollback", applied[pick % len(applied)], crash, fault)

    @precondition(lambda self: not self.collecting)
    @rule()
    @counted
    def enable_collection(self):
        self.wh.enable_collection(cadence_queries=CADENCE)
        self.collecting = True

    # -- the contract -------------------------------------------------- #
    @invariant()
    def agrees_with_the_fold_and_the_twin(self):
        wh = self.wh
        # Locks the warehouse grew since the last step (a fault plan, the
        # tuning breaker, a recovered warehouse) join the sanitizer.
        instrument_warehouse(wh, self.sanitizer)
        # The seal keeps the recording's tail from the newest
        # checkpoint's window start (the checkpoint itself when the log
        # was empty), and the records served before that checkpoint are
        # the live window at it.
        recorded, retained = wh.journal.recorded(), wh.journal.entries()
        checkpoints = [i for i, entry in enumerate(recorded) if isinstance(entry.record, Checkpoint)]
        start = 0
        if checkpoints:
            newest = recorded[checkpoints[-1]].record
            served = [
                (i, entry.record.record)
                for i, entry in enumerate(recorded[: checkpoints[-1]])
                if isinstance(entry.record, QueryServed)
            ][-WINDOW_RECORDS:]
            start = served[0][0] if served else checkpoints[-1]
            window = [record for _, record in served]
            assert newest.window_start == (window[0].query_id if window else 0)
            assert wh.journal.checkpoint_window() == window
            tail = recorded[checkpoints[-1] :]
            if not any(isinstance(entry.record, QueryServed) for entry in tail):
                assert list(wh.logs) == window
        assert retained == recorded[start:]
        units, query_ids, states = fold(recorded)
        bills = wh.billing.values()
        assert {
            b.tenant: [
                b.queries,
                b.serving_units,
                b.background_units,
                b.retry_units,
                sum(b.verdicts().values()),
            ]
            for b in bills
        } == units
        if any(bill.retry_units for bill in bills):
            self.coverage["billed_retry"] += 1

        records = list(wh.logs)
        assert [r.query_id for r in records] == list(range(1, len(records) + 1)) == query_ids
        stamps = [record.timestamp for record in records]
        assert stamps == sorted(stamps)

        journaled = [rec for rec in wh.ledger.recommendations.values() if rec.undo is not None]
        assert {rec.rec_id: rec.state.value for rec in journaled} == states

        health = wh.describe_health()["resilience"]
        assert (health["degraded_queries"], health["retries"], health["retry_dollars"]) == (
            self.degraded,
            sum(bill.retries for bill in bills),
            from_ledger_units(sum(bill.retry_units for bill in bills)),
        )

        if self.collecting:
            snapshot = wh.collector.collect_now()
            totals = DrillDownNavigator(snapshot).reconcile()
            assert totals == {bill.tenant: bill.total_units for bill in bills}
            for entry in snapshot.tenants:
                if entry.retry_units:
                    leaves = [leaf.units for leaf in entry.leaves if leaf.template == RETRY_LEAF]
                    assert leaves == [entry.retry_units]
                    self.coverage["retry_leaf"] += 1

        if self.twin is not None:
            assert_same_state(
                *(
                    ((), tuple(w.logs), {t: spend_of(b) for t, b in w.billing.items()})
                    for w in (wh, self.twin)
                ),
                f"pool (kills, restarts, restaged) {pool_stats(wh)}",
            )

    def teardown(self):
        try:
            self._note_pool(self.wh)
            self.wh.disable_sharding()
        finally:
            self.coverage["lock_edges"] += len(self.sanitizer.describe()["edges"])
            self.sanitizer.assert_clean()


class ShardedHistories(Histories):
    """The same machine planning on one planner worker process, killed by
    a seeded ``worker_crash`` schedule.  Every kill and every recovery
    spawns a process (~0.4 s), so its histories are shorter."""

    steps = 12

    @initialize(seed=st.integers(0, 2**16))
    def shard(self, seed):
        self.seed = seed
        self.base_specs = (FaultSpec(point="worker_crash", error_rate=0.3),)
        self._restart_planners()
        self._install([])

    def _restart_planners(self) -> None:
        # A liveness timeout far above any planning time: a worker is
        # declared hung only when it is.
        self.wh.enable_sharding(workers=1, liveness_timeout_s=5.0)


def run(machine: type, fraction: int = 1) -> Counter:
    """Run ``machine`` for the active profile's ``max_examples`` (divided
    by ``fraction``) generated histories and return what they covered."""
    coverage: Counter = Counter()
    run_state_machine_as_test(
        lambda: machine(coverage),
        settings=settings(
            max_examples=settings.default.max_examples // fraction,
            stateful_step_count=machine.steps,
        ),
    )
    return coverage


def test_generated_histories_keep_every_contract():
    coverage = run(Histories)
    rules = {name for name, step in inspect.getmembers(Histories) if hasattr(step, "counted")}
    assert not rules - set(coverage), f"rules never fired: {rules - set(coverage)}"
    for reached in (
        *CRASH_POINTS, "forecast", "plans", "estimator", "in_doubt_back", "applied",
        "rolled_back", "rollback_failed", "FAILED", "DENIED", "degraded", "billed_retry", "retry_leaf",
        "twin_dropped", "lock_edges",
    ):
        assert coverage[reached], f"no history reached {reached!r}: {coverage}"


def test_sharded_histories_keep_every_contract():
    coverage = run(ShardedHistories, fraction=10)
    assert coverage["worker_kills"] and coverage["restaged_tasks"], coverage
