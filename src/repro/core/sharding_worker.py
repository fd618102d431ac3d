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
calibration, query, constraint) and nothing else, which is exactly why a
crashed worker can be restarted and its tasks re-staged without any
risk of double-billing or double-logging.

A worker process boots with the planning code only.  ``repro`` and its
sub-packages import nothing eagerly, and the planning modules import
numpy only inside the builders and evaluators the planner never calls,
so a worker loads the 49 ``repro`` modules this module reaches and no
numpy; ``test_a_planner_worker_loads_only_the_planning_modules`` pins
that set by serving real tasks in a fresh interpreter.

Staging is :meth:`repro.core.planning.PlanningPipeline.plan` — the
same class the coordinator instantiates, here unguarded (fault points
and retries are coordinator-side machinery), with no exact level (the
coordinator answers exact hits without dispatching), a private
skeleton cache bounded at the coordinator's capacity and seeded warm
from the :class:`~repro.core.sharding.WorkerSpec` it was last sent, and
the pipeline binder's own bound templates.  Each task is one walk over its
own estimator scratch, so nothing of a task's search stays in the worker
once its plan is shipped.
"""

from __future__ import annotations

import pickle
from typing import Any

from repro.core.plan_cache import SkeletonCache
from repro.core.planning import Planned, PlanningPipeline
from repro.core.sharding import StageTask, WorkerFailure, WorkerSpec
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
    """One worker's warm planning state, built from one spec: a planning
    pipeline over the spec's catalog and calibration and a private
    skeleton cache seeded from it.  A newer spec builds a new shard."""

    def __init__(self, spec: WorkerSpec) -> None:
        self.worker_index = spec.worker_index
        self.pipeline = PlanningPipeline(
            spec.catalog,
            CostEstimator(spec.hardware, spec.exchange),
            max_dop=spec.max_dop,
            explore_bushy=spec.explore_bushy,
            applied_mvs={candidate.name: candidate for candidate in spec.applied_mvs},
            skeletons=SkeletonCache(spec.cache_capacity),
        )
        self.pipeline.skeletons.import_state(spec.skeleton_seed)

    def _enter_optimize(self, _bound: Any) -> None:
        self.current_stage = "optimize"

    def stage(self, task: StageTask) -> Planned:
        """Bind + optimize one task (the remote half of staging); the
        walk's scratch stays here."""
        self.current_stage = "protocol"
        version = self.pipeline.catalog.version
        if task.stats_version != version:
            raise ReproError(
                f"stale dispatch: task planned against stats version "
                f"{task.stats_version}, worker {self.worker_index} is at "
                f"{version} (missed WorkerSpec broadcast?)"
            )
        self.current_stage = "bind"
        planned = self.pipeline.plan(
            task.sql,
            task.constraint,
            on_bound=self._enter_optimize,
            # The coordinator's hint warms a cold (or restarted) worker.
            skeleton_hint=task.skeleton_trees,
        )
        return planned._replace(scratch=None)

    def serve(self, task: StageTask) -> tuple:
        """One task to one picklable reply, failures included."""
        try:
            return ("done", task.task_id, self.stage(task))
        except Exception as exc:  # noqa: BLE001 - shipped to the coordinator
            stage = getattr(self, "current_stage", "protocol")
            return ("fail", task.task_id, WorkerFailure(_picklable(exc), stage))


def worker_main(conn: Any, spec: WorkerSpec) -> None:
    """The worker process loop: recv task/spec messages, send replies.

    Exits cleanly on a ``("stop",)`` message or pipe EOF (the
    coordinator went away).  A ``("spec", spec)`` message replaces the
    shard with one built from the newer spec.  The ``("drop",)`` control
    message makes the worker silently swallow every task from then on —
    the chaos suite's hook for an unresponsive-but-alive worker: the
    coordinator's liveness timeout must fire and recovery restarts the
    process (which clears the flag, the replacement is a fresh worker).
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
        if kind == "spec":
            shard = PlannerShard(message[1])
            continue
        if kind == "drop":
            drop_tasks = True
            continue
        if kind == "task":
            if drop_tasks:
                continue
            conn.send(shard.serve(message[1]))
