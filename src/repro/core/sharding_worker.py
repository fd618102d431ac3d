"""Planner worker process entrypoint (the isolated side of sharding).

This module is everything a planner worker process runs: a
:class:`PlannerShard` running the coordinator's bind -> optimize
pipeline over *private* warm caches, and the
:func:`worker_main` message loop.  It is deliberately minimal and
machine-isolated: ``tests/testing/test_production_imports.py``
forbids this module from importing anything that could append to the
write-ahead journal, mutate a :class:`~repro.core.ledger.TenantBill`,
or write the statistics log — those are authoritative, ordered,
exactly-once effects that belong to the coordinator's finalize phase
alone.  A worker computes pure planning functions of (catalog,
hardware, query, constraint) and nothing else, which is exactly why a
crashed worker can be restarted and its tasks re-staged without any
risk of double-billing or double-logging.

Staging is :meth:`repro.core.planning.PlanningPipeline.plan` — the
same class the coordinator instantiates, here unguarded (fault points
and retries are coordinator-side machinery), with no exact level (the
coordinator answers exact hits without dispatching) and private
binding/skeleton caches bounded at the coordinator's capacity, seeded
warm from the :class:`~repro.core.sharding.WorkerSpec` at (re)start.
"""

from __future__ import annotations

import pickle
from typing import Any

from repro.core.plan_cache import BindingCache, SkeletonCache
from repro.core.planning import PlanningPipeline
from repro.core.sharding import RefreshState, StagedPlan, StageTask, WorkerFailure, WorkerSpec
from repro.cost.estimator import CostEstimator
from repro.errors import ReproError


def _picklable(error: Exception) -> Exception:
    """The error itself when it survives pickle, else a plain stand-in
    (the reply must cross the pipe whatever the binder/optimizer threw)."""
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:  # noqa: BLE001 - any pickle failure takes the fallback
        return ReproError(f"{type(error).__name__}: {error}")


class PlannerShard:
    """One worker's warm planning state: a planning pipeline over the
    worker's catalog copy and private binding/skeleton caches."""

    def __init__(self, spec: WorkerSpec) -> None:
        self.worker_index = spec.worker_index
        self.hardware = spec.hardware
        self.max_dop = spec.max_dop
        self.explore_bushy = spec.explore_bushy
        self.cache_capacity = spec.cache_capacity
        self._install(spec.catalog, spec.applied_mvs, spec.fingerprint)
        self.pipeline.skeletons.import_state(spec.skeleton_seed)

    def _install(
        self, catalog: Any, applied_mvs: tuple, fingerprint: tuple
    ) -> None:
        self.catalog = catalog
        self.fingerprint = fingerprint
        self.pipeline = PlanningPipeline(
            catalog,
            CostEstimator(self.hardware),
            max_dop=self.max_dop,
            explore_bushy=self.explore_bushy,
            applied_mvs={candidate.name: candidate for candidate in applied_mvs},
            bindings=BindingCache(self.cache_capacity),
            skeletons=SkeletonCache(self.cache_capacity),
        )

    def refresh(self, state: RefreshState) -> None:
        """Apply a coherency broadcast: rebuild planning state over the
        new catalog and drop every warm entry (their keys embed the old
        stats version; a flush-epoch bump has no version change, so the
        caches must be dropped explicitly)."""
        self._install(state.catalog, state.applied_mvs, state.fingerprint)

    def _enter_optimize(self, _bound: Any) -> None:
        self.current_stage = "optimize"

    def stage(self, task: StageTask) -> StagedPlan:
        """Bind + optimize one task (the remote half of staging)."""
        self.current_stage = "protocol"
        if task.stats_version != self.catalog.version:
            raise ReproError(
                f"stale dispatch: task planned against stats version "
                f"{task.stats_version}, worker {self.worker_index} is at "
                f"{self.catalog.version} (missed RefreshState broadcast?)"
            )
        self.current_stage = "bind"
        planned = self.pipeline.plan(
            task.sql,
            task.constraint,
            on_bound=self._enter_optimize,
            # The coordinator's hint warms a cold (or restarted) worker.
            skeleton_hint=task.skeleton_trees,
        )
        return StagedPlan(
            task_id=task.task_id,
            bound=planned.bound,
            choice=planned.choice,
            new_skeleton_trees=planned.new_skeleton_trees,
            bind_s=planned.bind_s,
            optimize_s=planned.optimize_s,
            warm_bind=planned.warm_bind,
            warm_skeleton=planned.level == "skeleton",
        )

    def serve(self, task: StageTask) -> tuple:
        """One task to one picklable reply, failures included."""
        try:
            return ("done", self.stage(task))
        except Exception as exc:  # noqa: BLE001 - shipped to the coordinator
            return (
                "fail",
                WorkerFailure(
                    task_id=task.task_id,
                    error=_picklable(exc),
                    stage=getattr(self, "current_stage", "protocol"),
                ),
            )


def worker_main(conn: Any, spec: WorkerSpec) -> None:
    """The worker process loop: recv task/refresh messages, send replies.

    Exits cleanly on a ``("stop",)`` message or pipe EOF (the
    coordinator went away).  The ``("drop",)`` control message makes the
    worker silently swallow every task from then on — the chaos suite's
    hook for an unresponsive-but-alive worker: the coordinator's
    liveness timeout must fire and recovery restarts the process (which
    clears the flag, the replacement is a fresh worker).
    """
    shard = PlannerShard(spec)
    conn.send(("ready", spec.worker_index))
    drop_tasks = False
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        kind = message[0]
        if kind == "stop":
            return
        if kind == "refresh":
            shard.refresh(message[1])
            continue
        if kind == "drop":
            drop_tasks = True
            continue
        if kind == "task":
            if drop_tasks:
                continue
            conn.send(shard.serve(message[1]))
