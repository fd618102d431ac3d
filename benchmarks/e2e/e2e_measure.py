"""The measured passes: set-up, end-to-end window, traced pass, checks.

One closed-loop client (one call outstanding) drives the public serving
API.  Inputs exist before any timer starts; every pass folds each
handle's output into a digest so two passes over one seed can be
compared bit for bit.

The end-to-end timings are reported *at reference speed*.  This box is
a few cores of a shared host and runs 10-25 % slower for minutes at a
time, wall and CPU alike, so whole runs land in a fast or a slow
period and no amount of work inside one run averages that out.  A
fixed slice of pure-python arithmetic that allocates nothing
(:func:`calibration_slice`) is therefore timed between the calls of the
measured window and around every set-up, outside their timers, and each
timing is divided by how much slower than :data:`REFERENCE_SLICE_S` the
slices around it ran.  The slice is part of the benchmark, not of the
program: a change to the program moves the timings and not the slices.
"""

from __future__ import annotations

import gc
import hashlib
import multiprocessing
import os
import pickle
import resource
import statistics
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from time import perf_counter, process_time

from repro import CostIntelligentWarehouse, QueryState
from repro.core.journal import WriteAheadJournal
from repro.obsvc.drilldown import DrillDownNavigator
from repro.util.units import LEDGER_SCALE, to_ledger_units

import e2e_trace
from e2e_workloads import (
    Call,
    Deployment,
    Workload,
    cores,
    deploy,
    pin_apart,
    planner_workers,
)

SETUPS = 5
#: Iterations of the calibration slice, and what one slice takes on the
#: reference machine (this box in a quiet period).
SLICE_ITERATIONS = 40_000
REFERENCE_SLICE_S = 0.0012
#: One slice per this many measured queries (100-256 per window).
QUERIES_PER_SLICE = 64
#: Slices on either side of one set-up.
SETUP_SLICES = 8
#: Queries each executor of the triple serves after its warm-up.
TRIPLE_QUERIES = 1024
OUT_DIR = Path(__file__).resolve().parent / "out"
_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


class CheckFailed(Exception):
    """An output check failed; the command exits non-zero."""


# --------------------------------------------------------------------- #
# Serving passes
# --------------------------------------------------------------------- #
@dataclass
class Pass:
    """What one pass over a list of calls produced."""

    walls: list[float] = field(default_factory=list)
    sizes: list[int] = field(default_factory=list)
    #: (wall, cpu) seconds of the calibration slices run between calls.
    slices: list[tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    met: int = 0
    _digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    @property
    def wall_s(self) -> float:
        return sum(self.walls)

    @property
    def per_query_ms(self) -> list[float]:
        """Per call: its wall over the queries in it."""
        return [1e3 * wall / size for wall, size in zip(self.walls, self.sizes)]

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def fold(self, handles: list) -> None:
        """Count outcomes and fold (plan DOPs, ledger-unit bill,
        constraint verdict) of every handle into the digest."""
        for handle in handles:
            self.attempted += 1
            if handle.state is not QueryState.DONE:
                self.failed += 1
                self._digest.update(b"!")
                continue
            outcome = handle.result()
            met = outcome.constraint_met
            self.met += met
            self._digest.update(
                repr(
                    (
                        sorted(outcome.choice.dop_plan.dops.items()),
                        to_ledger_units(outcome.record.dollars),
                        met,
                    )
                ).encode()
            )


def calibration_slice() -> tuple[float, float]:
    """(wall, cpu) seconds of a fixed piece of interpreter work: how fast
    the box is at this moment.  Every value stays a cached small int, so
    nothing is allocated and the heap's state cannot move the time (a
    slice that allocated ints read 1.25 or 2.1 ms depending on it)."""
    wall, cpu = perf_counter(), process_time()
    x = 1
    for _ in repeat(None, SLICE_ITERATIONS):
        x = (x * 3 + 1) & 63
    return perf_counter() - wall, process_time() - cpu


@dataclass(frozen=True)
class Speed:
    """How much slower than the reference machine some slices ran, by
    their wall and by their CPU time."""

    wall: float
    cpu: float

    @classmethod
    def of(cls, slices: list[tuple[float, float]]) -> "Speed":
        reference = len(slices) * REFERENCE_SLICE_S
        return cls(
            wall=sum(wall for wall, _ in slices) / reference,
            cpu=sum(cpu for _, cpu in slices) / reference,
        )


def serve_pass(
    dep: Deployment, calls: list[Call], *, max_workers: int = 1, calibrated: bool = False
) -> Pass:
    """Serve ``calls`` one at a time, timing each call alone; when
    ``calibrated``, a calibration slice runs before the first call and
    then between calls, outside their timers, once per
    :data:`QUERIES_PER_SLICE` queries."""
    result = Pass()
    if calibrated:
        result.slices.append(calibration_slice())
    since_slice = 0
    for call in calls:
        start = perf_counter()
        handles = dep.serve(call, max_workers=max_workers)
        result.walls.append(perf_counter() - start)
        result.sizes.append(len(handles))
        result.fold(handles)
        since_slice += len(handles)
        if calibrated and since_slice >= QUERIES_PER_SLICE:
            result.slices.append(calibration_slice())
            since_slice = 0
    return result


def billed_units(warehouse: CostIntelligentWarehouse) -> int:
    return sum(bill.total_units for bill in warehouse.billing.values())


def own_cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    return own.ru_utime + own.ru_stime


def children_cpu_seconds() -> float:
    """User+sys CPU of the reaped children plus the live ones (read from
    /proc, so a worker's start-up before a window can be subtracted)."""
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = reaped.ru_utime + reaped.ru_stime
    for child in multiprocessing.active_children():
        try:
            stat = Path(f"/proc/{child.pid}/stat").read_text()
        except OSError:
            continue
        fields = stat.rpartition(")")[2].split()
        total += (int(fields[11]) + int(fields[12])) * _TICK_S
    return total


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def set_up(workload: Workload, warmup: list[Call]) -> tuple[Deployment, float, Pass]:
    """One fresh set-up: deploy, then the warm-up pass.  Timed whole."""
    start = perf_counter()
    dep = deploy(workload)
    warm = serve_pass(dep, warmup)
    return dep, perf_counter() - start, warm


def calibrated_set_up(
    workload: Workload, warmup: list[Call]
) -> tuple[Deployment, float, float, Pass]:
    """:func:`set_up` with slices before and after it; also returns the
    set-up's seconds at reference speed."""
    slices = [calibration_slice() for _ in range(SETUP_SLICES)]
    dep, seconds, warm = set_up(workload, warmup)
    slices += [calibration_slice() for _ in range(SETUP_SLICES)]
    return dep, seconds, seconds / Speed.of(slices).wall, warm


# --------------------------------------------------------------------- #
# Checks
# --------------------------------------------------------------------- #
def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_pass(name: str, result: Pass) -> None:
    require(result.failed == 0, f"{name}: {result.failed} of {result.attempted} handles not DONE")


def check_durable(dep: Deployment) -> dict:
    """Durable-side output checks; returns what it timed and counted.

    Every admission verdict ADMIT, no worker restarted, the drill-down
    reconciles exactly, and ``journal.save -> load -> recover`` rebuilds
    the bills bit for bit.
    """
    warehouse = dep.warehouse
    verdicts = warehouse.describe_caches()["admission"]
    escalated = {
        tenant: counts for tenant, counts in verdicts.items() if set(counts) - {"admit"}
    }
    require(bool(verdicts) and not escalated, f"admission escalated past ADMIT: {escalated}")
    pool = warehouse.worker_pool
    require(pool is None or pool.restarts == 0, "a planner worker restarted")
    DrillDownNavigator(warehouse.collector.collect_now()).reconcile()

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"journal_{dep.workload.name}_{os.getpid()}.pkl"
    try:
        start = perf_counter()
        dep.journal.save(str(path))
        save_s = perf_counter() - start
        saved_bytes = path.stat().st_size
        start = perf_counter()
        loaded = WriteAheadJournal.load(str(path))
        load_s = perf_counter() - start
    finally:
        path.unlink(missing_ok=True)
    start = perf_counter()
    recovered = CostIntelligentWarehouse.recover(
        loaded, catalog=warehouse.catalog, tenant_budgets=dep.budgets
    )
    recover_s = perf_counter() - start
    live = {t: b.ledger_snapshot() for t, b in warehouse.billing.items()}
    replayed = {t: b.ledger_snapshot() for t, b in recovered.billing.items()}
    require(live == replayed, "recovered bills differ from the live bills")
    require(len(recovered.logs) == len(warehouse.logs), "recovered log length differs")
    return {
        "save_s": save_s,
        "load_s": load_s,
        "recover_s": recover_s,
        "saved_bytes": saved_bytes,
        "journal_records": len(dep.journal),
    }


# --------------------------------------------------------------------- #
# End to end
# --------------------------------------------------------------------- #
def measure(workload: Workload, warmup: list[Call], calls: list[Call]) -> dict:
    """The untraced end-to-end run: ``SETUPS`` fresh set-ups (the last
    one is measured), then the fixed-work window.  ``metrics`` are at
    reference speed; ``as_timed`` has the same timings unadjusted."""
    setup_times: list[float] = []
    setup_times_ref: list[float] = []
    warm_digests: set[str] = set()
    dep = None
    try:
        for _ in range(SETUPS):
            if dep is not None:
                dep.close()
                dep = None
                gc.collect()
            dep, seconds, seconds_ref, warm = calibrated_set_up(workload, warmup)
            check_pass("warm-up", warm)
            setup_times.append(seconds)
            setup_times_ref.append(seconds_ref)
            warm_digests.add(warm.digest)
        require(
            len(warm_digests) == 1,
            f"{SETUPS} set-ups of one seed gave {len(warm_digests)} different outputs",
        )
        gc.collect()
        units_before = billed_units(dep.warehouse)
        cpu_before = own_cpu_seconds() + children_cpu_seconds()
        window = serve_pass(dep, calls, calibrated=True)
        cpu_s = own_cpu_seconds() + children_cpu_seconds() - cpu_before
        units = billed_units(dep.warehouse) - units_before
        # Before the checks: recovery builds a second warehouse here.
        own_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if workload.durable:
            check_durable(dep)
    finally:
        if dep is not None:
            dep.close()
    # After close(): a worker's peak is only readable once it is reaped.
    children_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    served = window.attempted - window.failed
    speed = Speed.of(window.slices)
    # The slices ran in this process, inside the CPU window.
    cpu_s -= sum(cpu for _, cpu in window.slices)
    qps = window.attempted / window.wall_s
    p50 = statistics.median(window.per_query_ms)
    cpu_ms = 1e3 * cpu_s / window.attempted
    return {
        "attempted": window.attempted,
        "failed": window.failed,
        "calls": len(calls),
        "digest": window.digest,
        "warmup_digest": warm.digest,
        "setup_times_s": setup_times,
        "window_wall_s": window.wall_s,
        "slices": len(window.slices),
        "speed": {"wall": speed.wall, "cpu": speed.cpu},
        "as_timed": {
            "setup_s": statistics.median(setup_times),
            "serve_qps": qps,
            "query_ms_p50": p50,
            "cpu_ms_per_query": cpu_ms,
        },
        "metrics": {
            "setup_s": statistics.median(setup_times_ref),
            "serve_qps": qps * speed.wall,
            "query_ms_p50": p50 / speed.wall,
            "cpu_ms_per_query": cpu_ms / speed.cpu,
            "peak_rss_mb": (own_rss_kb + children_rss_kb) / 1024.0,
            "modeled_dollars_per_query": units / LEDGER_SCALE / max(served, 1),
            "constraint_met_share": window.met / window.attempted,
        },
    }


# --------------------------------------------------------------------- #
# Traced run
# --------------------------------------------------------------------- #
def _counters(dep: Deployment) -> dict:
    """The program's own counters, flat: caches, admission verdicts,
    journal, cost history, worker pool."""
    warehouse = dep.warehouse
    report = warehouse.describe_caches()
    counts: dict[str, float] = {}
    for label in ("plan_cache", "skeleton_cache", "binding_cache"):
        for key in ("hits", "misses", "evictions"):
            counts[f"{label}.{key}"] = report.get(label, {}).get(key, 0)
    timing = report.get("timing_cache", {})
    counts["timing.hits"] = timing.get("timing_hits", 0)
    counts["timing.computations"] = timing.get("timing_computations", 0)
    verdicts = report.get("admission", {})
    counts["admission.total"] = sum(sum(c.values()) for c in verdicts.values())
    counts["admission.admit"] = sum(c.get("admit", 0) for c in verdicts.values())
    counts["journal.records"] = len(dep.journal) if dep.journal is not None else 0
    counts["snapshots"] = len(warehouse.cost_history)
    pool = warehouse.worker_pool
    counts["pool.dispatched"] = pool.tasks_dispatched if pool is not None else 0
    counts["pool.warm"] = pool.warm_hits[("skeleton",)] if pool is not None else 0
    counts["pool.restarts"] = pool.restarts if pool is not None else 0
    return counts


def _task_bytes(dispatched: list[dict]):
    """Pickled size of the wire records ``dispatch()`` was asked to send,
    without the skeleton hint: the pool ships a hint once per worker and
    key, so the steady-state task is the hint-free one.  ``None`` when
    the record type is gone or has other fields."""
    try:
        from repro.core.sharding import StageTask

        return sum(
            len(
                pickle.dumps(
                    StageTask(
                        **{k: v for k, v in kwargs.items() if k != "skeleton_key"}
                        | {"task_id": task_id, "skeleton_trees": None}
                    )
                )
            )
            for task_id, kwargs in enumerate(dispatched)
        )
    except (ImportError, TypeError):
        return None


def _clear_sql_string_cache() -> None:
    """Empty the one process-wide cache keyed on whole SQL strings."""
    try:
        from repro.sql.parameterize import parameterize_sql
    except ImportError:
        return
    getattr(parameterize_sql, "cache_clear", lambda: None)()


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def traced_pass(workload: Workload, warmup: list[Call], calls: list[Call]) -> dict:
    """Fresh set-up under the probes, warm-up, then the traced calls;
    the durable checks and the export run after the probes are gone.
    Returns the raw observations."""
    tracer = e2e_trace.Tracer()
    dep = None
    try:
        with tracer:
            dep = deploy(workload, workers=0)
            pool_start_s = None
            if workload.durable:
                start = perf_counter()
                dep.warehouse.enable_sharding(workers=planner_workers())
                pool_start_s = perf_counter() - start
                pin_apart()
            check_pass("warm-up", serve_pass(dep, warmup))
            gc.collect()
            tracer.reset()
            before = _counters(dep)
            children_before = children_cpu_seconds()
            traced = serve_pass(dep, calls)
            children_cpu_s = children_cpu_seconds() - children_before
            after = _counters(dep)
            spans = list(tracer.spans)
        check_pass("traced pass", traced)
        start = perf_counter()
        require(bool(dep.warehouse.observe("prometheus")), "empty prometheus exposition")
        prometheus_ms = 1e3 * (perf_counter() - start)
        durable = check_durable(dep) if workload.durable else None
        served_total = len(dep.warehouse.logs)
    finally:
        if dep is not None:
            dep.close()
    return {
        "pass": traced,
        "spans": spans,
        "missing": tracer.missing,
        "wire": tracer.wire,
        "counts": {key: after[key] - before[key] for key in after},
        "children_cpu_s": children_cpu_s,
        "pool_start_s": pool_start_s,
        "prometheus_ms": prometheus_ms,
        "durable": durable,
        "served_total": served_total,
    }


def layer_metrics(workload: Workload, seen: dict, accounts: dict, plain: Pass) -> dict:
    """The per-layer table from one traced pass (``seen``), its span
    accounts, and the untraced pass over the same calls.  ``None`` marks
    a metric whose layer is missing or that this workload's
    configuration does not exercise."""
    queries = seen["pass"].attempted
    counts = seen["counts"]
    durable = seen["durable"]
    missing = seen["missing"]

    def busy(layer: str):
        if layer in missing:
            return None
        return 1e3 * accounts["layers"].get(layer, {"self_s": 0.0})["self_s"] / queries

    def calls_of(layer: str):
        if layer in missing:
            return None
        return accounts["layers"].get(layer, {"calls": 0})["calls"] / queries

    def when_durable(value):
        return value if durable else None

    checkpoint = "repro.core.warehouse.CostIntelligentWarehouse.checkpoint"
    checkpoint_s = [e - s for _, entry, s, e, _, _ in seen["spans"] if entry == checkpoint]
    task_bytes = _task_bytes(seen["wire"]["task"])
    reply_bytes = sum(len(pickle.dumps(reply)) for reply in seen["wire"]["reply"])
    per_query_ms = plain.per_query_ms
    tails = workload.batch == 1

    return {
        "sql.parameterize.busy_ms_per_query": busy("sql.parameterize"),
        "sql.parser.busy_ms_per_query": busy("sql.parser"),
        "sql.binder.busy_ms_per_query": busy("sql.binder"),
        "sql.binder.calls_per_query": calls_of("sql.binder"),
        "core.plan_cache.exact_hit_ratio": _ratio(
            counts["plan_cache.hits"], counts["plan_cache.misses"]
        ),
        "core.plan_cache.skeleton_hit_ratio": _ratio(
            counts["skeleton_cache.hits"], counts["skeleton_cache.misses"]
        ),
        "core.plan_cache.binding_hit_ratio": _ratio(
            counts["binding_cache.hits"], counts["binding_cache.misses"]
        ),
        "core.plan_cache.evictions_per_query": sum(
            counts[f"{label}.evictions"]
            for label in ("plan_cache", "skeleton_cache", "binding_cache")
        )
        / queries,
        "core.plan_cache.busy_ms_per_query": busy("core.plan_cache"),
        "optimizer.join_order.busy_ms_per_query": busy("optimizer.join_order"),
        "optimizer.bushy.busy_ms_per_query": busy("optimizer.bushy"),
        "optimizer.dag_planner.busy_ms_per_query": busy("optimizer.dag_planner"),
        "dop.planner.busy_ms_per_query": busy("dop.planner"),
        "dop.planner.calls_per_query": calls_of("dop.planner"),
        "cost.estimator.timing_evals_per_query": counts["timing.computations"] / queries,
        "cost.estimator.timing_hit_ratio": _ratio(
            counts["timing.hits"], counts["timing.computations"]
        ),
        "core.bioptimizer.busy_ms_per_query": busy("core.bioptimizer"),
        "core.bioptimizer.optimize_calls_per_query": calls_of("core.bioptimizer"),
        "sim.distsim.busy_ms_per_query": busy("sim.distsim"),
        "core.governance.busy_ms_per_query": busy("core.governance"),
        "core.governance.throttled_share": (
            1.0 - counts["admission.admit"] / counts["admission.total"]
            if counts["admission.total"]
            else None
        ),
        "statsvc.logs.busy_ms_per_query": busy("statsvc.logs"),
        "core.journal.busy_ms_per_query": busy("core.journal"),
        "core.journal.records_per_query": when_durable(counts["journal.records"] / queries),
        "core.journal.checkpoint_ms_per_query": (
            None if "core.journal" in missing else 1e3 * sum(checkpoint_s) / queries
        ),
        "core.journal.checkpoints": when_durable(len(checkpoint_s)),
        "core.journal.saved_bytes_per_query": (
            durable["saved_bytes"] / seen["served_total"] if durable else None
        ),
        "core.recovery.recover_s": durable["recover_s"] if durable else None,
        "obsvc.collector.busy_ms_per_query": busy("obsvc.collector"),
        "obsvc.collector.snapshots": when_durable(counts["snapshots"]),
        "obsvc.export.prometheus_ms": seen["prometheus_ms"],
        "core.sharding.wait_ms_per_query": busy("core.sharding"),
        "core.sharding.task_bytes_per_query": (
            task_bytes / queries if durable and task_bytes is not None else None
        ),
        "core.sharding.reply_bytes_per_query": when_durable(reply_bytes / queries),
        "core.sharding.worker_cpu_ms_per_query": when_durable(
            1e3 * seen["children_cpu_s"] / queries
        ),
        "core.sharding.warm_hit_ratio": (
            counts["pool.warm"] / counts["pool.dispatched"] if counts["pool.dispatched"] else None
        ),
        "core.sharding.restarts": when_durable(counts["pool.restarts"]),
        "core.sharding.pool_start_s": seen["pool_start_s"],
        "core.service.self_ms_per_query": busy(e2e_trace.ROOT_LAYER),
        "core.service.query_ms_p95": percentile(per_query_ms, 0.95) if tails else None,
        "core.service.query_ms_p99": percentile(per_query_ms, 0.99) if tails else None,
        "core.service.inline_ms_per_query": None,
        "core.service.threads_ms_per_query": None,
        "core.service.processes_ms_per_query": None,
        "trace.overhead_ratio": seen["pass"].wall_s / plain.wall_s,
    }


def trace(workload: Workload, warmup: list[Call], calls: list[Call]) -> dict:
    """The per-layer run over the first quarter of the measured calls.

    The traced pass goes first, so the layer table sees each SQL string
    for the first time, as the end-to-end window does.  The untraced
    pass over the same calls on a fresh identical set-up must reproduce
    its outputs; the ratio of their walls is the tracing overhead.
    Then the executor triple, for the workloads that declare it.
    """
    calls = calls[: max(1, len(calls) // 4)]
    seen = traced_pass(workload, warmup, calls)
    gc.collect()
    # Otherwise the second pass is served parameterizations the first
    # one paid for, and the overhead ratio reads low.
    _clear_sql_string_cache()

    dep, _, warm = set_up(workload, warmup)
    try:
        check_pass("warm-up", warm)
        gc.collect()
        plain = serve_pass(dep, calls)
    finally:
        dep.close()
    del dep
    gc.collect()
    check_pass("untraced pass", plain)
    traced = seen["pass"]
    require(
        traced.digest == plain.digest,
        "two passes over one seed (traced, untraced) gave different outputs",
    )

    queries = traced.attempted
    accounts = e2e_trace.account(seen["spans"])
    metrics = layer_metrics(workload, seen, accounts, plain)
    if workload.executor_triple:
        metrics.update(executor_triple(workload, warmup, calls))

    # The wall is timed around the calls, outside the probes: the check
    # fails if spans stop covering the serving calls.
    traced_wall_ms = 1e3 * traced.wall_s / queries
    layer_sum_ms = sum(1e3 * row["self_s"] for row in accounts["layers"].values()) / queries
    require(
        abs(layer_sum_ms - traced_wall_ms) <= 0.02 * traced_wall_ms,
        f"layer self times sum to {layer_sum_ms:.4f} ms/query, traced wall is {traced_wall_ms:.4f}",
    )
    return {
        "attempted": traced.attempted,
        "failed": traced.failed,
        "calls": len(calls),
        "digest": traced.digest,
        "metrics": metrics,
        "missing_layers": seen["missing"],
        "traced_wall_ms_per_query": traced_wall_ms,
        "layer_sum_ms_per_query": layer_sum_ms,
        "untraced_wall_ms_per_query": 1e3 * plain.wall_s / queries,
        "durable": seen["durable"],
        "entries": {
            entry: {"self_ms_per_query": 1e3 * row["self_s"] / queries, "calls": row["calls"]}
            for entry, row in sorted(accounts["entries"].items())
        },
        "spans": seen["spans"],
    }


def executor_triple(workload: Workload, warmup: list[Call], calls: list[Call]) -> dict:
    """Replay one slice on three fresh warehouses — inline, threads,
    worker processes — and require identical outputs."""
    slice_calls = calls[: max(1, TRIPLE_QUERIES // workload.batch)]
    metrics: dict[str, float] = {}
    digests: dict[str, str] = {}
    for name, workers, threads in (
        ("inline", 0, 1),
        ("threads", 0, cores()),
        ("processes", planner_workers(), 1),
    ):
        dep = deploy(workload, workers=workers)
        try:
            warm = serve_pass(dep, warmup, max_workers=threads)
            check_pass(f"{name} warm-up", warm)
            gc.collect()
            served = serve_pass(dep, slice_calls, max_workers=threads)
            check_pass(f"{name} executor", served)
            pool = dep.warehouse.worker_pool
            require(pool is None or pool.restarts == 0, "a planner worker restarted")
        finally:
            dep.close()
        del dep
        gc.collect()
        digests[name] = warm.digest + served.digest
        metrics[f"core.service.{name}_ms_per_query"] = 1e3 * served.wall_s / served.attempted
    require(
        len(set(digests.values())) == 1,
        f"executors disagree on plans or bills: {digests}",
    )
    return metrics
