"""Workload declarations, seeded input generators and warehouse set-up.

Everything the benchmark feeds the program is made here from ``--seed``
before any timer starts; the program only ever sees SQL strings wrapped
in :class:`~repro.core.service.QueryRequest`\\ s.  Counts are constants
of the declaration (fixed work, never a time box): per-query wall drifts
upward with served history, so two runs are only comparable when they
serve the same number of queries.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, replace

import numpy as np

from repro import (
    CostIntelligentWarehouse,
    QueryRequest,
    TenantBudget,
    budget_constraint,
    sla_constraint,
    synthetic_tpch_catalog,
)
from repro.core.journal import WriteAheadJournal
from repro.util.rng import derive_rng
from repro.workloads.adhoc import AdhocQueryGenerator
from repro.workloads.tpch_queries import instantiate, template_names

SCALE_FACTOR = 100.0
SLA = sla_constraint(12.0)
BUDGET = budget_constraint(0.05)
#: Virtual seconds between consecutive queries (``at_time``).
ARRIVAL_GAP_S = 60.0
BATCH = 32
#: Size of the fixed SQL pool dashboards draw from, and the Zipf
#: exponent of the draw (rank r is drawn with weight r**-ZIPF_S).
DASHBOARD_POOL = 40
ZIPF_S = 1.1
TENANTS = ("acme", "bolt", "cleo", "dune")
#: Per-tenant dollar ceiling per query served: 4x what the mixed
#: workload spends (~$0.006/query), so admission control runs on every
#: query and never escalates past ADMIT (checked after the run).
BUDGET_DOLLARS_PER_QUERY = 0.024
#: The declared counts give a ``run_seconds`` measured window on the
#: sizing box; ``--seconds`` scales them linearly (fixed work per value).
REFERENCE_SECONDS = 20


@dataclass(frozen=True)
class Workload:
    """One traffic mix.  ``count`` queries are measured after a warm-up
    pass of ``warmup`` more from the same generator."""

    name: str
    count: int
    warmup: int
    #: Queries per call: 1 = ``Session.submit``, else ``submit_many``.
    batch: int
    #: (reports, dashboard, adhoc) shares of the query mix.
    mix: tuple[float, float, float]
    tenants: tuple[str, ...] = ("default",)
    #: Journal + snapshot collection + admission budgets + worker pool.
    durable: bool = False
    #: Whether the traced run also replays a slice on all three executors.
    executor_triple: bool = False


#: Why each workload exists, in full: ``README.md``.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Every literal new: exact misses, skeleton hits, so binding,
        # physical planning and the DOP search do the work.
        Workload(
            name="reports_batch",
            count=6400,
            warmup=256,
            batch=BATCH,
            mix=(1.0, 0.0, 0.0),
            executor_triple=True,
        ),
        # Exact hits, one submit per call: the per-call fixed cost.
        # Planning-layer changes predict no change here.
        Workload(
            name="dashboard_single",
            count=16384,
            warmup=256,
            batch=1,
            mix=(0.0, 1.0, 0.0),
        ),
        # Distinct shapes far beyond 256 cache entries: the cold path
        # (parse, bind, join order, bushy variants, DAG planning).
        Workload(
            name="adhoc_cold",
            count=6400,
            warmup=256,
            batch=BATCH,
            mix=(0.0, 0.0, 1.0),
        ),
        # The write side and the IPC boundary: journal, checkpoints,
        # collection, admission, planner worker processes.
        Workload(
            name="mixed_durable_processes",
            count=6400,
            warmup=256,
            batch=BATCH,
            mix=(0.5, 0.3, 0.2),
            tenants=TENANTS,
            durable=True,
            executor_triple=True,
        ),
    )
}


@dataclass(frozen=True)
class Call:
    """One closed-loop call: a tenant's batch of resolved requests."""

    tenant: str
    requests: tuple[QueryRequest, ...]


def scaled(workload: Workload, seconds: float) -> Workload:
    """The workload with its measured count scaled for ``--seconds``
    (whole batches, never below 200 calls' worth of the declared size
    unless the declaration itself is smaller)."""
    calls = max(1, round(workload.count / workload.batch * seconds / REFERENCE_SECONDS))
    floor = min(200, workload.count // workload.batch)
    return with_count(workload, max(calls, floor) * workload.batch)


def with_count(workload: Workload, count: int, warmup: int | None = None) -> Workload:
    return replace(
        workload, count=count, warmup=workload.warmup if warmup is None else warmup
    )


def stratified(rng: np.random.Generator, weights, size: int) -> list[int]:
    """``size`` draws from ``weights`` by systematic sampling, in a seeded
    random order: every value's count is within one of its expectation,
    so seeds change which queries arrive when, not how many of each kind
    a run serves (the run-to-run spread should be the box's, not the
    sampler's)."""
    cdf = np.cumsum(weights) / np.sum(weights)
    points = (np.arange(size) + rng.random()) / size
    draws = np.minimum(np.searchsorted(cdf, points, side="right"), len(cdf) - 1)
    return rng.permutation(draws).tolist()


def generate_sql(workload: Workload, seed: int, total: int) -> list[str]:
    """``total`` SQL strings for ``workload``; a pure function of the
    arguments (same seed, same strings; another seed, other literals,
    pool, shapes and order)."""
    names = template_names()
    rng = derive_rng(seed, "e2e", workload.name)
    kinds = stratified(rng, workload.mix, total)
    # numpy ints -> python ints: instantiate() hashes str(int(seed)).
    instance_seeds = iter(rng.integers(0, 2**31, size=total).tolist())
    pool = [
        instantiate(names[i % len(names)], seed=s)
        for i, s in enumerate(rng.integers(0, 2**31, size=DASHBOARD_POOL).tolist())
    ]
    zipf = 1.0 / np.arange(1, DASHBOARD_POOL + 1) ** ZIPF_S
    ranks = iter(stratified(rng, zipf, kinds.count(1)))
    adhoc = AdhocQueryGenerator(seed=int(rng.integers(0, 2**31)))
    sqls: list[str] = []
    reports = 0
    for kind in kinds:
        if kind == 0:
            # Round-robin over the templates keeps the template mix exact.
            sqls.append(instantiate(names[reports % len(names)], seed=next(instance_seeds)))
            reports += 1
        elif kind == 1:
            sqls.append(pool[next(ranks)])
        else:
            sqls.append(adhoc.next_query())
    return sqls


def generate_calls(workload: Workload, seed: int) -> tuple[list[Call], list[Call]]:
    """(warm-up calls, measured calls).  Even-index queries carry the
    latency SLA, odd ones the dollar budget; virtual time advances
    :data:`ARRIVAL_GAP_S` per query; batches go to tenants round-robin."""
    total = workload.warmup + workload.count
    sqls = generate_sql(workload, seed, total)
    requests = [
        QueryRequest(
            sql=sql,
            constraint=SLA if i % 2 == 0 else BUDGET,
            at_time=ARRIVAL_GAP_S * i,
        )
        for i, sql in enumerate(sqls)
    ]
    calls = [
        Call(
            tenant=workload.tenants[(start // workload.batch) % len(workload.tenants)],
            requests=tuple(requests[start : start + workload.batch]),
        )
        for start in range(0, total, workload.batch)
    ]
    split = -(-workload.warmup // workload.batch)
    return calls[:split], calls[split:]


#: The cores this process may run on, as found at import: pinning (see
#: :func:`pin_apart`) narrows the live set.
ALLOWED_CPUS = tuple(sorted(os.sched_getaffinity(0)))


def cores() -> int:
    """Cores this process may run on."""
    return len(ALLOWED_CPUS)


def planner_workers() -> int:
    """Worker processes for the durable workload: every core but the
    one the coordinator (the benchmark process) runs on."""
    return max(1, cores() - 1)


def pin_apart() -> None:
    """Pin this process (the coordinator) to the first allowed core and
    the live worker processes to the others.

    Left alone, the kernel runs a coordinator and a worker that wake
    each other over a pipe on one core for minutes, then on two, then
    on one again: on one core the calls take ~15 % longer and ~7 % less
    CPU, and a run's numbers depend on which state it met.  Apart is the
    state the workload exists to measure (coordinator finalize beside
    worker planning).  With a single core there is nothing to pin.
    """
    if len(ALLOWED_CPUS) < 2:
        return
    os.sched_setaffinity(0, {ALLOWED_CPUS[0]})
    others = ALLOWED_CPUS[1:]
    for index, worker in enumerate(multiprocessing.active_children()):
        os.sched_setaffinity(worker.pid, {others[index % len(others)]})


@dataclass
class Deployment:
    """One freshly built warehouse with its sessions."""

    workload: Workload
    warehouse: CostIntelligentWarehouse
    sessions: dict
    journal: WriteAheadJournal | None
    budgets: dict | None

    def serve(self, call: Call, *, max_workers: int = 1) -> list:
        """One closed-loop call through the public serving API."""
        session = self.sessions[call.tenant]
        if self.workload.batch == 1:
            return [session.submit(call.requests[0])]
        return session.submit_many(call.requests, max_workers=max_workers)

    def close(self) -> None:
        self.warehouse.disable_sharding()
        os.sched_setaffinity(0, ALLOWED_CPUS)  # undo pin_apart()


def deploy(workload: Workload, *, workers: int | None = None) -> Deployment:
    """Catalog -> warehouse (-> journal, collection, admission budgets
    for a durable workload) -> planner worker pool -> one session per
    tenant.  ``workers=None`` means the workload's own executor: the
    worker pool for a durable workload, inline otherwise."""
    catalog = synthetic_tpch_catalog(SCALE_FACTOR)
    journal = None
    budgets = None
    if workload.durable:
        journal = WriteAheadJournal(checkpoint_every=512)
        per_tenant = -(-(workload.warmup + workload.count) // len(workload.tenants))
        budgets = {
            tenant: TenantBudget(BUDGET_DOLLARS_PER_QUERY * per_tenant)
            for tenant in workload.tenants
        }
    warehouse = CostIntelligentWarehouse(
        catalog=catalog, journal=journal, tenant_budgets=budgets
    )
    if workload.durable:
        warehouse.enable_collection(cadence_queries=256)
    if workers is None:
        workers = planner_workers() if workload.durable else 0
    if workers:
        warehouse.enable_sharding(workers=workers)
        pin_apart()
    sessions = {tenant: warehouse.session(tenant=tenant) for tenant in workload.tenants}
    return Deployment(workload, warehouse, sessions, journal, budgets)
