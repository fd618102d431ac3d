"""Deterministic fault injection: named fault points + seeded schedules.

The resilience layer (:mod:`repro.core.resilience`) is only testable if
failure is a *reproducible input*: the chaos suite must be able to
replay "statsvc dies on its 3rd call, optimize sees a 2s latency spike
on invocation 7" byte-for-byte.  A :class:`FaultPlan` provides that: for
each named fault point, whether invocation *n* fails (and/or suffers a
virtual latency spike) is a pure function of ``(seed, point, n)``, drawn
from a per-point :func:`~repro.util.rng.derive_rng` stream.  Per-point
invocation counters are atomic, so the *schedule at each point* is
deterministic even when serving threads interleave arbitrarily — the
chaos invariants (ordered finalize, exactly-once billing, typed-error-
or-degraded outcomes) must hold for every interleaving anyway.

Fault points (:data:`FAULT_POINTS`):

- ``bind`` / ``optimize`` / ``simulate`` — the serving stages, guarded
  by :class:`~repro.core.resilience.StageGuard`.
- ``statsvc`` — the Statistics Service forecast refresh feeding
  cost-aware retention (guarded by the statsvc circuit breaker).
- ``tuning_apply`` — background-compute action execution (guarded by
  the tuning circuit breaker).
- ``worker_crash`` — a planner worker *process* dies at a dispatch
  boundary.  Drawn by the coordinator's
  :class:`~repro.core.sharding.PlannerWorkerPool` once per task send,
  in submission order, so the schedule is deterministic regardless of
  worker timing; the pool restarts the worker warm and re-stages its
  in-flight tasks (exactly-once billing is the coordinator's job, so a
  re-stage never double-bills).

Crash points (:data:`CRASH_POINTS`) model *process death* at the
write-ahead-journal record boundaries (see :mod:`repro.core.journal`):

- ``crash_pre_write`` — before a journal record is appended (nothing
  durable, nothing applied);
- ``crash_post_write`` — after the append but before the in-memory
  state mutation it describes (durable, not applied — redo replays it);
- ``crash_pre_commit`` — a tuning apply/rollback died after mutating
  the catalog but before its commit record landed (the in-doubt window
  recovery must resolve via the journaled undo snapshot).

A firing crash point raises :class:`SimulatedCrashError`, which derives
from ``BaseException`` so no serving-layer ``except Exception`` handler
can swallow it — exactly like ``SIGKILL``, it unwinds straight out to
the test driver.  Use :func:`kill` to build a one-shot crash spec.

Latency is *virtual*: a spike charges the request/stage deadlines
without sleeping, so chaos runs are fast and host-speed independent.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.errors import ReproError, TransientError
from repro.util.rng import derive_rng

#: Every named fault point the serving/tuning/statsvc paths expose.
FAULT_POINTS = (
    "bind",
    "optimize",
    "simulate",
    "statsvc",
    "tuning_apply",
    "worker_crash",
)

#: Kill points at write-ahead-journal record boundaries (only drawn
#: when a journal is attached to the warehouse).  Kept separate from
#: :data:`FAULT_POINTS`: crash faults are not retryable stage failures,
#: they are process death.
CRASH_POINTS = ("crash_pre_write", "crash_post_write", "crash_pre_commit")


class SimulatedCrashError(BaseException):
    """Deterministic stand-in for process death (kill -9 at a journal
    boundary).

    Deliberately a ``BaseException``: every ``except Exception`` handler
    on the serving/tuning paths (retry loops, handle-failure carriers,
    the scheduler) must let it through, because a real crash gives no
    handler a chance to run.  The chaos driver catches it, then recovers
    a fresh warehouse from the journal.
    """

    def __init__(self, message: str, *, point: str, invocation: int) -> None:
        super().__init__(message)
        self.point = point
        self.invocation = invocation


class InjectedFault(TransientError):
    """The default injected failure — transient, so retry policies see it.

    Carries the fault point and the invocation index that fired, so
    chaos assertions can trace every surfaced error back to the
    schedule entry that caused it.
    """

    def __init__(self, message: str, *, point: str, invocation: int) -> None:
        super().__init__(message)
        self.point = point
        self.invocation = invocation


@dataclass(frozen=True)
class FaultSpec:
    """Fault behavior at one point: error and/or latency, windowed.

    ``error_rate`` / ``latency_rate`` are per-invocation firing
    probabilities drawn from the plan's seeded stream (1.0 = always).
    ``after`` skips the first *n* invocations (outage starts mid-
    workload); ``limit`` caps how many times this spec fires (outage
    ends).  ``error`` builds the injected exception from a message —
    :class:`InjectedFault` by default (transient, retryable); pass e.g.
    a ``BindError`` factory to model deterministic failures.
    """

    point: str
    error_rate: float = 0.0
    latency_rate: float = 0.0
    latency_s: float = 0.0
    error: Callable[[str], Exception] | None = None
    after: int = 0
    limit: int | None = None

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS + CRASH_POINTS:
            raise ReproError(
                f"unknown fault point {self.point!r}; "
                f"known: {FAULT_POINTS + CRASH_POINTS}"
            )
        for name, rate in (
            ("error_rate", self.error_rate),
            ("latency_rate", self.latency_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ReproError(f"{name} must be in [0, 1], got {rate}")
        if self.latency_s < 0 or self.after < 0:
            raise ReproError("latency_s and after must be non-negative")
        if self.limit is not None and self.limit < 0:
            raise ReproError(f"limit must be non-negative, got {self.limit}")


@dataclass
class FaultDecision:
    """What the plan decided for one invocation of one point."""

    point: str
    invocation: int
    #: ``BaseException`` because crash points raise
    #: :class:`SimulatedCrashError`, which is deliberately uncatchable
    #: by ``except Exception`` handlers.
    error: BaseException | None = None
    latency_s: float = 0.0


@dataclass
class _PointState:
    """Mutable per-point schedule state (counter + fired tallies)."""

    invocations: int = 0
    fired: dict[int, int] = field(default_factory=dict)  # spec index -> fires


class FaultPlan:
    """A seeded, deterministic fault schedule over the named points.

    Whether invocation *n* of point *p* fires is decided by uniform
    draws from ``derive_rng(seed, "faults", p, str(n), str(spec_index))``
    — a pure function of the plan parameters, independent of thread
    interleaving and of how many *other* points were exercised.
    """

    def __init__(self, specs: Iterable[FaultSpec], *, seed: int = 0) -> None:
        self.specs = tuple(specs)
        self.seed = seed
        self._lock = threading.Lock()
        self._by_point: dict[str, list[tuple[int, FaultSpec]]] = {}
        for index, spec in enumerate(self.specs):
            self._by_point.setdefault(spec.point, []).append((index, spec))
        self._states: dict[str, _PointState] = {
            point: _PointState() for point in self._by_point
        }

    # ------------------------------------------------------------------ #
    def draw(self, point: str) -> FaultDecision | None:
        """The decision for the next invocation of ``point`` (or None).

        Atomically advances the point's invocation counter; the decision
        for invocation *n* is the same in every run with this seed.
        """
        specs = self._by_point.get(point)
        if specs is None:
            return None
        with self._lock:
            state = self._states[point]
            invocation = state.invocations
            state.invocations += 1
            error: BaseException | None = None
            latency = 0.0
            for index, spec in specs:
                if invocation < spec.after:
                    continue
                fired = state.fired.get(index, 0)
                if spec.limit is not None and fired >= spec.limit:
                    continue
                rng = derive_rng(
                    self.seed, "faults", point, str(invocation), str(index)
                )
                fires = False
                if spec.error_rate and float(rng.random()) < spec.error_rate:
                    fires = True
                    if error is None:
                        error = self._build_error(spec, point, invocation)
                if spec.latency_rate and float(rng.random()) < spec.latency_rate:
                    fires = True
                    latency += spec.latency_s
                if fires:
                    state.fired[index] = fired + 1
            if error is None and latency == 0.0:
                return None
            return FaultDecision(
                point=point, invocation=invocation, error=error, latency_s=latency
            )

    @staticmethod
    def _build_error(
        spec: FaultSpec, point: str, invocation: int
    ) -> BaseException:
        message = f"injected fault at {point!r} (invocation {invocation})"
        if spec.error is not None:
            return spec.error(message)
        if point in CRASH_POINTS:
            return SimulatedCrashError(
                f"simulated crash at {point!r} (invocation {invocation})",
                point=point,
                invocation=invocation,
            )
        return InjectedFault(message, point=point, invocation=invocation)

    # ------------------------------------------------------------------ #
    @property
    def fired(self) -> dict[str, int]:
        """Total fired decisions per point (observability)."""
        with self._lock:
            return {
                point: sum(state.fired.values())
                for point, state in self._states.items()
            }

    @property
    def invocations(self) -> dict[str, int]:
        """Total invocations drawn per point."""
        with self._lock:
            return {
                point: state.invocations for point, state in self._states.items()
            }

    def describe(self) -> str:
        fired = self.fired
        parts = [
            f"{spec.point}(err={spec.error_rate}, lat={spec.latency_rate}"
            f"x{spec.latency_s}s)"
            for spec in self.specs
        ]
        summary = ", ".join(
            f"{point}={count}" for point, count in sorted(fired.items())
        )
        return f"fault plan seed={self.seed}: {'; '.join(parts)} [fired: {summary}]"


def outage(
    point: str, *, after: int = 0, limit: int | None = None
) -> FaultSpec:
    """A hard outage spec: every invocation in the window fails."""
    return FaultSpec(point=point, error_rate=1.0, after=after, limit=limit)


def kill(point: str, *, at: int = 0) -> FaultSpec:
    """A one-shot crash spec: invocation ``at`` of ``point`` dies.

    ``point`` must be one of :data:`CRASH_POINTS`; the fired error is a
    :class:`SimulatedCrashError`.  The chaos histories draw ``point``
    and ``at`` for every kill they make.
    """
    if point not in CRASH_POINTS:
        raise ReproError(
            f"kill() needs a crash point, got {point!r}; known: {CRASH_POINTS}"
        )
    return FaultSpec(point=point, error_rate=1.0, after=at, limit=1)


def crash_probes() -> list[FaultSpec]:
    """Zero-rate specs for every crash point: never fire, but make the
    plan *count invocations*, so a fault-free run enumerates every
    reachable kill point (``plan.invocations``)."""
    return [FaultSpec(point=point) for point in CRASH_POINTS]
