"""Process-sharded planner serving: warm worker pools that scale with cores.

The threaded :class:`~repro.core.service.ServingScheduler` fans staging
out over threads, but CPU-heavy planning (bind -> join-order DP -> bushy
generation -> DOP search) is GIL-bound: past one core, threads only
interleave.  This module moves that work into warm, long-lived worker
*processes* — the keyed worker-pool pattern of SNIPPETS' ModelOps
exemplar — while keeping every authoritative effect in the coordinator:

- **Workers plan, the coordinator serves.**  A worker receives a
  picklable :class:`StageTask` (SQL, constraint, stats version, a
  skeleton hint) and returns a picklable :class:`StagedPlan` (the bound
  query + :class:`~repro.core.bioptimizer.PlanChoice`, newly computed
  skeleton shapes, per-stage timings, a warm-hit flag).  All journal
  appends, billing, admission, statistics-log writes, and simulation
  stay in the coordinator process — an import-graph assertion
  (``tests/testing/test_production_imports.py``) checks that the worker
  entrypoint module (:mod:`repro.core.sharding_worker`) never imports
  them.
- **Template affinity keeps workers warm.**  Tasks are keyed to workers
  by a stable hash of the literal-free template key, so one worker's
  bound templates and private skeleton cache serve every instantiation
  of a recurring template — warm-task hits skip join-order DP and bushy
  generation exactly like the coordinator's own skeleton cache.
- **Coherency is broadcast, versions are checked.**  The coordinator
  fingerprints its planning state (catalog stats version, applied MVs,
  explicit cache-flush epoch) and broadcasts a :class:`RefreshState`
  to every worker when it changes (:meth:`PlannerWorkerPool.sync`, run
  before each sharded batch); each task also carries the stats version
  it was planned against, which the worker re-checks as a protocol
  guard.
- **Crashes restart warm; tasks re-stage exactly-once.**  A dead pipe
  (real crash, injected ``worker_crash`` fault, or
  :meth:`PlannerWorkerPool.kill_worker` in tests) restarts the worker
  from a fresh :class:`WorkerSpec` — re-warmed from the coordinator's
  exported skeleton cache — and re-sends its in-flight tasks in order.
  Billing happens only at the
  coordinator's ordered finalize behind the handle's exactly-once
  latch, so a re-staged task can never double-bill.  An *unresponsive*
  worker surfaces as a
  :class:`~repro.errors.DeadlineExceededError` on the ``optimize``
  stage, which the serving layer's existing degraded-mode fallback
  absorbs (PR 6 semantics), while the hung worker is restarted and its
  remaining tasks re-staged.

Determinism: the ``worker_crash`` fault point is drawn by the
*coordinator*, once per task send, in submission order — never by the
workers — so a seeded :class:`~repro.testing.faults.FaultPlan` kills the
same worker at the same dispatch boundary in every run, regardless of
worker timing.  Planning itself is a pure function of (catalog,
hardware, query, constraint), so sharded output is bit-identical to the
threaded and sequential paths — enforced by the sharded chaos histories.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import zlib
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable

from repro.core.planning import skeleton_key
from repro.errors import DeadlineExceededError, ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.warehouse import CostIntelligentWarehouse
    from repro.dop.constraints import Constraint


# --------------------------------------------------------------------- #
# Wire records (all picklable; round-tripped in tests/core/test_pickling)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class StageTask:
    """One unit of remote planning work (coordinator -> worker)."""

    task_id: int
    sql: str
    constraint: "Constraint"
    #: Literal-free template key (worker affinity + warm-cache key).
    template_key: str
    #: Catalog stats version the coordinator planned this dispatch
    #: against; the worker re-checks it against its own catalog copy.
    stats_version: int
    #: Coordinator-side skeleton shapes for this template, when cached —
    #: lets a cold (or freshly restarted) worker skip join-order DP.
    skeleton_trees: tuple | None = None


@dataclass(frozen=True)
class StagedPlan:
    """One finished remote planning result (worker -> coordinator)."""

    task_id: int
    bound: Any  # BoundQuery, post-MV-rewrite
    choice: Any  # PlanChoice
    #: Skeleton shapes the worker computed fresh for this task (``None``
    #: on a warm hit) — the coordinator absorbs them into its own
    #: skeleton cache so later batches and degraded fallbacks share them.
    new_skeleton_trees: tuple | None
    bind_s: float
    optimize_s: float
    warm_skeleton: bool


@dataclass(frozen=True)
class WorkerFailure:
    """A typed staging failure (worker -> coordinator).

    ``error`` is the original exception when it pickles (ReproErrors
    do, by contract), else a :class:`~repro.errors.ReproError` carrying
    its type and message.  The coordinator re-raises it at the failed
    handle's collect position, so failure handling is shared with the
    threaded path (:func:`repro.core.service._wrap_failure`).
    """

    task_id: int
    error: Exception
    stage: str  # "bind" | "optimize" | "protocol"


@dataclass(frozen=True)
class RefreshState:
    """A cache-coherency broadcast (coordinator -> every worker)."""

    catalog: Any
    applied_mvs: tuple
    fingerprint: tuple


@dataclass(frozen=True)
class WorkerSpec:
    """Everything needed to (re)start one warm planner worker.

    Specs are rebuilt from live coordinator state at every (re)spawn,
    so a worker restarted after a crash comes back *warm*: current
    catalog, currently applied MVs, and the coordinator's exported
    skeleton-cache entries.
    """

    worker_index: int
    catalog: Any
    hardware: Any
    max_dop: int
    explore_bushy: bool
    applied_mvs: tuple
    skeleton_seed: tuple
    fingerprint: tuple
    #: Capacity of the worker's private skeleton cache: the
    #: coordinator's own plan-cache capacity (a warm process that never
    #: forgets is a leak).
    cache_capacity: int = 256


# --------------------------------------------------------------------- #
# The pool
# --------------------------------------------------------------------- #
#: How long collect waits on a worker pipe before declaring the worker
#: unresponsive, when no optimize stage deadline is configured.
_DEFAULT_LIVENESS_TIMEOUT_S = 30.0

#: How long to wait for a freshly spawned worker's ready handshake.
_STARTUP_TIMEOUT_S = 60.0

#: Per-worker in-flight cap.  OS pipe buffers are finite (~64 KiB): a
#: batch deep enough to fill a worker's *reply* pipe would block the
#: worker mid-send, stop it draining its task pipe, and eventually
#: block the coordinator's own dispatch send — a deadlock.  Capping
#: in-flight tasks (and draining replies at the cap) keeps both pipe
#: directions bounded while still giving every worker a deep enough
#: queue to stay busy.
_MAX_INFLIGHT = 8


def _worker_index_for(template_key: str, workers: int) -> int:
    """Stable template -> worker assignment (crc32, not ``hash()``:
    string hashing is randomized per process, and a run-stable
    assignment keeps chaos schedules meaningful across reruns)."""
    return zlib.crc32(template_key.encode("utf-8")) % workers


class PlannerWorkerPool:
    """A pool of warm planner worker processes with template affinity.

    The pool is coordinator-side machinery: it owns the worker
    processes, their duplex pipes, the per-worker FIFO of in-flight
    tasks, and the crash/hang recovery story.  The serving layer
    dispatches a batch's tasks in submission order (:meth:`dispatch`,
    running ahead of collection only while :meth:`has_room` says the
    target worker is below the in-flight cap) and collects results in
    submission order (:meth:`result_for`), so per-worker pipe FIFO
    ordering is all the multiplexing needed.
    """

    def __init__(
        self,
        warehouse: "CostIntelligentWarehouse",
        *,
        workers: int | None = None,
        liveness_timeout_s: float | None = None,
    ) -> None:
        if workers is None:
            workers = max(1, min(4, os.cpu_count() or 1))
        if workers < 1:
            raise ReproError(f"worker pool needs >= 1 workers, got {workers}")
        self.warehouse = warehouse
        self.size = workers
        self.liveness_timeout_s = liveness_timeout_s
        self._ctx = multiprocessing.get_context("spawn")
        self._procs: list[Any] = [None] * workers
        self._conns: list[Any] = [None] * workers
        #: Per-worker FIFO of in-flight tasks (sent, not yet replied).
        self._outstanding: list[deque[StageTask]] = [
            deque() for _ in range(workers)
        ]
        self._owner: dict[int, int] = {}
        self._results: dict[int, StagedPlan | WorkerFailure] = {}
        self._abandoned: set[int] = set()
        #: Tasks dropped by hang recovery; their collect raises the
        #: deadline error that triggers the degraded fallback.
        self._hung: set[int] = set()
        #: Per-worker skeleton keys the worker is known to hold (seeded
        #: at spawn, grown per reply) — redundant hints are stripped
        #: from dispatches instead of re-pickled every send.
        self._warmed: list[set] = [set() for _ in range(workers)]
        self._send_marks: dict[int, float] = {}
        self._next_task_id = 0
        self._synced_fingerprint: tuple | None = None
        self._started = False
        # Observability counters (read-through metric sources).
        self.restarts = 0
        self.restaged_tasks = 0
        self.warm_skeleton_hits = 0
        self.tasks_dispatched = 0
        self.injected_kills = 0

    # -- lifecycle ------------------------------------------------------ #
    def start(self) -> None:
        """Spawn every worker and wait for its ready handshake."""
        if self._started:
            return
        self._synced_fingerprint = self._current_fingerprint()
        for index in range(self.size):
            self._spawn(index)
        self._started = True

    def close(self) -> None:
        """Shut the pool down (best-effort graceful, then terminate)."""
        for index in range(self.size):
            conn = self._conns[index]
            if conn is not None:
                try:
                    conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
                conn.close()
            self._conns[index] = None
            proc = self._procs[index]
            if proc is not None:
                proc.join(timeout=5.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=5.0)
            self._procs[index] = None
        self._outstanding = [deque() for _ in range(self.size)]
        self._owner.clear()
        self._results.clear()
        self._hung.clear()
        self._warmed = [set() for _ in range(self.size)]
        self._send_marks.clear()
        self._started = False

    @property
    def alive(self) -> bool:
        return self._started

    def _spec(self, index: int) -> WorkerSpec:
        warehouse = self.warehouse
        skeleton_seed: tuple = ()
        if warehouse.skeleton_cache is not None:
            skeleton_seed = warehouse.skeleton_cache.export_state()
        exact = warehouse.plan_cache
        return WorkerSpec(
            worker_index=index,
            catalog=warehouse.catalog,
            hardware=warehouse.hw,
            max_dop=warehouse.max_dop,
            explore_bushy=warehouse.optimizer.explore_bushy,
            applied_mvs=tuple(warehouse.ledger.applied_mvs.values()),
            skeleton_seed=skeleton_seed,
            fingerprint=self._current_fingerprint(),
            # Without an exact level nothing is ever dispatched.
            cache_capacity=exact.capacity if exact is not None else 1,
        )

    def _spawn(self, index: int) -> None:
        from repro.core.sharding_worker import worker_main

        spec = self._spec(index)
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=worker_main,
            args=(child_conn, spec),
            name=f"planner-worker-{index}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        if not parent_conn.poll(_STARTUP_TIMEOUT_S):
            proc.terminate()
            raise ReproError(f"planner worker {index} never came up")
        ready = parent_conn.recv()
        if ready != ("ready", index):
            proc.terminate()
            raise ReproError(
                f"planner worker {index} sent a bad handshake: {ready!r}"
            )
        self._procs[index] = proc
        self._conns[index] = parent_conn
        # The spec seeded the worker with these skeleton entries; hints
        # for them need not cross the pipe again.
        self._warmed[index] = {key for key, _ in spec.skeleton_seed}

    def _restart(self, index: int) -> None:
        """Restart one worker warm and re-send its in-flight tasks."""
        proc = self._procs[index]
        conn = self._conns[index]
        if conn is not None:
            conn.close()
        if proc is not None:
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5.0)
        self._spawn(index)
        self.restarts += 1
        pending = list(self._outstanding[index])
        self.restaged_tasks += len(pending)
        for task in pending:
            # Direct sends (not _send): a send failure here means the
            # *fresh* worker died instantly — that is not recoverable by
            # another restart, so let the error surface to the batch.
            self._send_marks[task.task_id] = time.perf_counter()
            self._conns[index].send(("task", task))

    # -- coherency ------------------------------------------------------ #
    def _current_fingerprint(self) -> tuple:
        warehouse = self.warehouse
        return (
            warehouse.catalog.version,
            tuple(sorted(warehouse.ledger.applied_mvs)),
            warehouse._plan_cache_epoch,
        )

    def sync(self) -> bool:
        """Broadcast planning state to every worker if it changed.

        Called at the top of every sharded batch (and after tuning
        applies between batches have mutated the catalog).  Returns
        whether a refresh was broadcast.
        """
        fingerprint = self._current_fingerprint()
        if fingerprint == self._synced_fingerprint:
            return False
        warehouse = self.warehouse
        refresh = RefreshState(
            catalog=warehouse.catalog,
            applied_mvs=tuple(warehouse.ledger.applied_mvs.values()),
            fingerprint=fingerprint,
        )
        for index in range(self.size):
            try:
                self._conns[index].send(("refresh", refresh))
            except (BrokenPipeError, OSError):
                self._restart(index)
                # _spawn builds the spec from live state, so the
                # restarted worker is already at this fingerprint.
        self._synced_fingerprint = fingerprint
        return True

    # -- dispatch ------------------------------------------------------- #
    def dispatch(
        self,
        *,
        sql: str,
        constraint: "Constraint",
        template_key: str,
        stats_version: int,
        skeleton_trees: tuple | None,
        skeleton_key: tuple | None = None,
    ) -> int:
        """Send one task to its template's worker; returns the task id.

        The ``worker_crash`` fault point is drawn here — once per send,
        in submission order — so seeded chaos schedules are independent
        of worker timing.  A firing draw terminates the target worker
        *after* the send: the hardest window, the task is in flight and
        lost with the process.
        """
        task_id = self._next_task_id
        self._next_task_id += 1
        index = _worker_index_for(template_key, self.size)
        # Backpressure: drain replies once this worker's queue is at the
        # in-flight cap, so neither pipe direction can fill and deadlock.
        while len(self._outstanding[index]) >= _MAX_INFLIGHT:
            self._drain(index)
        if skeleton_trees is not None and skeleton_key is not None:
            if skeleton_key in self._warmed[index]:
                # The worker already holds these shapes; re-pickling the
                # hint on every literal variation would dominate IPC.
                skeleton_trees = None
            else:
                self._warmed[index].add(skeleton_key)
        task = StageTask(
            task_id=task_id,
            sql=sql,
            constraint=constraint,
            template_key=template_key,
            stats_version=stats_version,
            skeleton_trees=skeleton_trees,
        )
        self._owner[task_id] = index
        self._outstanding[index].append(task)
        self._send(index, task)
        self.tasks_dispatched += 1
        decision = self.warehouse.fault_port.decide("worker_crash")
        if decision is not None and decision.error is not None:
            self.injected_kills += 1
            self.kill_worker(index)
        return task_id

    def has_room(self, template_key: str) -> bool:
        """Whether a :meth:`dispatch` for this template would send at
        once instead of first draining its worker down to the cap."""
        index = _worker_index_for(template_key, self.size)
        return len(self._outstanding[index]) < _MAX_INFLIGHT

    def _drain(self, index: int) -> None:
        """Consume one pending event from a worker pipe (blocking), with
        the same crash/hang recovery as :meth:`result_for`."""
        conn = self._conns[index]
        if not conn.poll(self._liveness_timeout()):
            self._handle_hang(index)
            return
        try:
            message = conn.recv()
        except (EOFError, ConnectionResetError, BrokenPipeError, OSError):
            self._restart(index)
            return
        self._consume(index, message)

    def _send(self, index: int, task: StageTask) -> None:
        self._send_marks[task.task_id] = time.perf_counter()
        try:
            self._conns[index].send(("task", task))
        except (BrokenPipeError, OSError):
            # The worker died between batches (or an injected kill
            # landed before this send): restart warm — _restart re-sends
            # the whole outstanding FIFO, this task included.
            self._restart(index)

    def kill_worker(self, index: int) -> None:
        """Terminate one worker process (chaos/kill-point hook).

        Detection and warm restart happen lazily at the next pipe
        interaction, exactly as for a real crash.
        """
        proc = self._procs[index]
        if proc is not None and proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)

    def hang_worker(self, index: int) -> None:
        """Make one worker silently swallow every task from now on
        (test hook for the unresponsive-worker path: the coordinator's
        liveness timeout fires for the head task, recovery restarts the
        process — clearing the hang — and re-stages the rest)."""
        try:
            self._conns[index].send(("drop",))
        except (BrokenPipeError, OSError):
            self._restart(index)

    def abandon(self, task_ids: Iterable[int]) -> None:
        """Mark in-flight tasks as never-to-be-collected (fail-fast
        abort): their replies are discarded when they drain."""
        for task_id in task_ids:
            self._hung.discard(task_id)
            if task_id in self._results:
                del self._results[task_id]
            elif task_id in self._owner:
                self._abandoned.add(task_id)

    # -- collect -------------------------------------------------------- #
    def _liveness_timeout(self) -> float:
        if self.liveness_timeout_s is not None:
            return self.liveness_timeout_s
        stage_deadline = self.warehouse.resilience.stage_deadline_s.get("optimize")
        if stage_deadline is not None:
            return stage_deadline
        return _DEFAULT_LIVENESS_TIMEOUT_S

    def result_for(self, task_id: int) -> StagedPlan:
        """Block until ``task_id``'s result is in; recover as needed.

        - A worker whose pipe reports EOF crashed: restart it warm,
          re-send its in-flight tasks (this one included), keep waiting.
        - A worker that stays silent past the liveness timeout (the
          configured ``optimize`` stage deadline, else a generous
          default) is unresponsive: restart it, re-stage its *other*
          in-flight tasks, and raise
          :class:`~repro.errors.DeadlineExceededError` for this one —
          the serving layer's degraded fallback takes over.
        - A :class:`WorkerFailure` re-raises the worker's typed staging
          error here, at the failed handle's collect position.
        """
        timeout = self._liveness_timeout()
        waited_from = time.perf_counter()
        while True:
            if task_id in self._hung:
                # Dropped by hang recovery (here or during dispatch
                # backpressure): surface the deadline that triggers the
                # serving layer's degraded fallback.
                self._hung.discard(task_id)
                self.warehouse.resilience_stats.note_deadline()
                raise DeadlineExceededError(
                    f"planner worker unresponsive after {timeout:.1f}s",
                    stage="optimize",
                    deadline_s=timeout,
                    elapsed_s=time.perf_counter() - waited_from,
                )
            found = self._results.pop(task_id, None)
            if found is not None:
                if isinstance(found, WorkerFailure):
                    # Name the stage that broke, as StageGuard does inline.
                    if getattr(found.error, "stage", None) is None:
                        found.error.stage = found.stage
                    raise found.error
                return found
            index = self._owner.get(task_id)
            if index is None:
                raise ReproError(f"unknown or already-collected task {task_id}")
            conn = self._conns[index]
            remaining = timeout - (time.perf_counter() - waited_from)
            if remaining <= 0 or not conn.poll(max(remaining, 0.0)):
                # The FIFO head (this task or one ahead of it) hung; if
                # it was another task, ours was just re-staged on the
                # fresh worker — wait on with a fresh liveness budget.
                self._handle_hang(index)
                waited_from = time.perf_counter()
                continue
            try:
                message = conn.recv()
            except (EOFError, ConnectionResetError, BrokenPipeError, OSError):
                self._restart(index)
                # Re-staged work gets a fresh liveness budget.
                waited_from = time.perf_counter()
                continue
            self._consume(index, message)

    def _consume(self, index: int, message: tuple) -> None:
        kind = message[0]
        if kind not in ("done", "fail"):
            raise ReproError(
                f"planner worker {index} sent unknown message {kind!r}"
            )
        payload = message[1]
        fifo = self._outstanding[index]
        if not fifo or fifo[0].task_id != payload.task_id:
            # Workers are strictly FIFO and every restart swaps in a
            # fresh pipe, so a reply that skips past live in-flight work
            # is a protocol bug, not a stale leftover — losing those
            # tasks silently would strand their handles.
            if any(task.task_id == payload.task_id for task in fifo):
                raise ReproError(
                    f"planner worker {index} replied to task "
                    f"{payload.task_id} out of FIFO order"
                )
            # Not in the FIFO at all: a reply for a task this pool no
            # longer tracks (defensive; drained pipes die with restarts).
            return
        task = fifo.popleft()
        self._owner.pop(payload.task_id, None)
        sent_at = self._send_marks.pop(payload.task_id, None)
        if sent_at is not None:
            self.warehouse.metrics.histogram(
                "repro_worker_ipc_roundtrip_seconds",
                time.perf_counter() - sent_at,
            )
        if isinstance(payload, StagedPlan):
            if payload.warm_skeleton:
                self.warm_skeleton_hits += 1
            # Whether warm or freshly computed, the worker now holds
            # this template's skeleton: stop shipping hints for it.
            self._warmed[index].add(
                skeleton_key(task.template_key, task.constraint, task.stats_version)
            )
        if payload.task_id in self._abandoned:
            self._abandoned.discard(payload.task_id)
            return
        self._results[payload.task_id] = payload

    def _handle_hang(self, index: int) -> None:
        """Recover from an unresponsive worker: drop the hung FIFO head
        (its handle takes the degraded fallback when collected), restart
        the worker, and re-stage the rest of its in-flight work."""
        fifo = self._outstanding[index]
        if fifo:
            head = fifo.popleft()
            self._hung.add(head.task_id)
            self._owner.pop(head.task_id, None)
            self._send_marks.pop(head.task_id, None)
        self._restart(index)

    # -- observability -------------------------------------------------- #
    @property
    def warm_hits(self) -> dict:
        """Warm-task hits by cache level (metric-source shape)."""
        return {("skeleton",): self.warm_skeleton_hits}

    def describe(self) -> str:
        return (
            f"planner pool: {self.size} worker(s), "
            f"{self.tasks_dispatched} task(s) dispatched, "
            f"{self.warm_skeleton_hits} warm skeleton hit(s), "
            f"{self.restarts} restart(s), "
            f"{self.restaged_tasks} re-staged, "
            f"{self.injected_kills} injected kill(s)"
        )
