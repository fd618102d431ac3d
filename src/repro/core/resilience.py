"""Failure-domain hardening for the serving stack: retries, deadlines,
circuit breakers, and degraded-mode fallbacks.

The paper's premise is a *production* cloud warehouse: cost intelligence
has to keep working when a component misbehaves, and — following the
"Saving Money for Analytical Workloads in the Cloud" framing — failure
handling itself costs dollars, so it must be metered and budget-aware
like everything else.  This module holds the three mechanisms, the
per-request guard that applies them, and the port every fault point
draws through:

- :class:`RetryPolicy` — bounded retries with exponential backoff and
  *deterministic* seeded jitter (:func:`repro.util.rng.derive_rng`, so a
  replayed fault schedule produces byte-identical backoff sequences).
  Only :class:`~repro.errors.TransientError` subclasses retry:
  deterministic user errors (bind/parse failures, infeasible
  constraints) re-fail identically on every attempt and propagate
  immediately, keeping fault-free behavior bit-identical to the
  pre-resilience serving path.  Retries are *budget-aware*: the serving
  layer passes the position of the tenant's admission verdict in
  :class:`~repro.core.governance.AdmissionVerdict` to
  :meth:`RetryPolicy.attempts_for`, so a tenant near ``DENY`` gets
  fewer attempts, and every backoff's modeled compute is committed to
  the tenant's :class:`~repro.core.ledger.TenantBill` as a
  :class:`~repro.core.journal.RetryCharge` (visible to admission on the
  next check).
- :class:`Deadline` — per-request and per-stage timeout enforcement.
  Wall time plus *virtual* charged seconds (injected latency spikes,
  retry backoffs) count against the deadline; expiry raises a typed
  :class:`~repro.errors.DeadlineExceededError` naming the stage.  An
  ``optimize`` deadline never fails the query: the serving layer falls
  back to degraded-mode planning (skeleton-cache shapes, else the
  heuristic left-deep default plan — bit-identical to a cold
  ``explore_bushy=False`` optimizer) and marks the outcome
  ``degraded=True``.
- :class:`CircuitBreaker` — a CLOSED -> OPEN -> HALF_OPEN state machine
  guarding the Statistics Service forecaster (an open breaker degrades
  cost-aware retention scoring to plain LRU) and background tuning (an
  open breaker stops a failing tuner from burning background dollars).
  Cooldown is measured in *denied calls*, not wall-clock seconds, so
  breaker transitions are deterministic under test fault schedules.
- :class:`FaultPort` — the one holder of the installed
  :class:`~repro.testing.faults.FaultPlan`.  The warehouse builds one
  and hands it to every fault point: the stage guard (``bind`` /
  ``optimize`` / ``simulate``), the ledger's crash probes, the statsvc
  forecast refresh, background compute (``tuning_apply``) and the
  planner worker pool (``worker_crash``).  No other module draws from a
  plan.

Layering: this module imports only :mod:`repro.errors` and
:mod:`repro.util` — governance, serving, and tuning all sit above it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping

from repro.errors import (
    DeadlineExceededError,
    ReproError,
    RetryExhaustedError,
    TransientError,
)
from repro.util.rng import derive_rng


# --------------------------------------------------------------------- #
# Retry
# --------------------------------------------------------------------- #
#: The price of the modeled compute a retry burns (the backoff window
#: spent holding serving resources), metered into the tenant's bill.
DOLLARS_PER_RETRY_S = 0.01


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, budget-aware retries with deterministic seeded jitter.

    ``backoff_s(stage, attempt)`` is a pure function of the policy seed,
    the stage name, and the attempt number — two runs of the same fault
    schedule back off (and bill, at :data:`DOLLARS_PER_RETRY_S`)
    identically.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_multiplier: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ReproError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base_s < 0 or self.backoff_multiplier < 1.0:
            raise ReproError(
                "backoff must satisfy base >= 0 and multiplier >= 1, got "
                f"base={self.backoff_base_s}, multiplier={self.backoff_multiplier}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ReproError(f"jitter must be in [0, 1], got {self.jitter}")

    def backoff_s(self, stage: str, attempt: int) -> float:
        """Deterministic backoff before retry ``attempt`` (1-based)."""
        base = self.backoff_base_s * self.backoff_multiplier ** (attempt - 1)
        if self.jitter == 0.0:
            return base
        rng = derive_rng(self.seed, "retry-backoff", stage, str(attempt))
        # Jitter within [1 - jitter, 1 + jitter], seeded per (stage,
        # attempt) so adding a retry elsewhere never perturbs this one.
        return base * (1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0))

    def attempts_for(self, pressure: int) -> int:
        """Allowed attempts under admission ``pressure``.

        ``pressure`` is the position of the tenant's admission verdict
        in :class:`~repro.core.governance.AdmissionVerdict` (0=admit,
        1=throttle, 2=defer, 3=deny): each escalation step costs one
        attempt, floored at a single try — a tenant out of budget still
        gets its query served once, but pays for no retries.
        """
        return max(1, self.max_attempts - max(0, int(pressure)))


# --------------------------------------------------------------------- #
# Deadlines
# --------------------------------------------------------------------- #
class Deadline:
    """A budget of seconds: wall time plus virtually charged seconds.

    ``charge()`` adds virtual time (injected latency spikes, retry
    backoffs — modeled, never slept) so fault schedules trip deadlines
    deterministically regardless of host speed.  ``None`` seconds means
    no deadline (every check passes).
    """

    def __init__(self, seconds: float | None) -> None:
        if seconds is not None and seconds <= 0:
            raise ReproError(f"deadline seconds must be positive, got {seconds}")
        self.seconds = seconds
        self._started = time.perf_counter()
        self._charged = 0.0

    def charge(self, seconds: float) -> None:
        """Count ``seconds`` of virtual time against this deadline."""
        self._charged += max(0.0, seconds)

    @property
    def elapsed_s(self) -> float:
        return (time.perf_counter() - self._started) + self._charged

    @property
    def expired(self) -> bool:
        return self.seconds is not None and self.elapsed_s >= self.seconds

    def check(self, stage: str) -> None:
        """Raise :class:`~repro.errors.DeadlineExceededError` if expired."""
        if self.expired:
            assert self.seconds is not None
            raise DeadlineExceededError(
                f"stage {stage!r} exceeded deadline "
                f"({self.elapsed_s:.3f}s elapsed of {self.seconds:.3f}s)",
                stage=stage,
                deadline_s=self.seconds,
                elapsed_s=self.elapsed_s,
            )


# --------------------------------------------------------------------- #
# Circuit breaker
# --------------------------------------------------------------------- #
class BreakerState(Enum):
    """Classic circuit-breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """CLOSED -> OPEN -> HALF_OPEN guard around one failing dependency.

    ``failure_threshold`` consecutive failures open the breaker; while
    OPEN, :meth:`allow` denies calls (callers skip the dependency and
    use their degraded path).  After ``cooldown_calls`` denials the
    breaker moves to HALF_OPEN and allows one probe: a recorded success
    closes it, a failure re-opens it.  Cooldown counts *denied calls*
    rather than wall-clock time so state transitions are deterministic
    under seeded fault schedules.
    """

    def __init__(
        self,
        name: str,
        *,
        failure_threshold: int = 3,
        cooldown_calls: int = 8,
    ) -> None:
        if failure_threshold < 1:
            raise ReproError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown_calls < 1:
            raise ReproError(f"cooldown_calls must be >= 1, got {cooldown_calls}")
        self.name = name
        self.failure_threshold = failure_threshold
        self.cooldown_calls = cooldown_calls
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opens = 0
        self._denied_since_open = 0
        self._lock = threading.Lock()

    def allow(self) -> bool:
        """Whether the caller should attempt the guarded dependency."""
        with self._lock:
            if self.state is BreakerState.CLOSED:
                return True
            if self.state is BreakerState.HALF_OPEN:
                return True
            self._denied_since_open += 1
            if self._denied_since_open >= self.cooldown_calls:
                self.state = BreakerState.HALF_OPEN
                return True  # the probe call
            return False

    def record_success(self) -> None:
        with self._lock:
            self.consecutive_failures = 0
            self.state = BreakerState.CLOSED

    def record_failure(self) -> None:
        with self._lock:
            self.consecutive_failures += 1
            if self.state is BreakerState.HALF_OPEN or (
                self.state is BreakerState.CLOSED
                and self.consecutive_failures >= self.failure_threshold
            ):
                self.state = BreakerState.OPEN
                self.opens += 1
                self._denied_since_open = 0

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "state": self.state.value,
                "consecutive_failures": self.consecutive_failures,
                "opens": self.opens,
            }


# --------------------------------------------------------------------- #
# Fault port
# --------------------------------------------------------------------- #
class FaultPort:
    """The installed fault plan (``None`` outside chaos testing) and the
    two things a fault point does with it.

    :meth:`decide` draws the plan's decision for the next invocation of
    a point — the stage guard charges its latency, the worker pool kills
    a worker on it — and :meth:`fire` raises that decision's error, if
    one fires.  ``plan`` is read on every draw, so a plan swapped in
    mid-workload models an outage starting or ending.
    """

    def __init__(self) -> None:
        self.plan = None

    def decide(self, point: str):
        """The plan's :class:`~repro.testing.faults.FaultDecision` for
        the next invocation of ``point``, or ``None``."""
        plan = self.plan
        return None if plan is None else plan.draw(point)

    def fire(self, point: str) -> None:
        """Raise the injected error for ``point``, if one fires."""
        decision = self.decide(point)
        if decision is not None and decision.error is not None:
            raise decision.error


# --------------------------------------------------------------------- #
# Policy + per-request guard
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ResiliencePolicy:
    """Warehouse-level resilience configuration.

    Stage deadlines are keyed by fault-point name (``bind`` /
    ``optimize`` / ``simulate``); the request deadline spans all of one
    submission's stages.  An ``optimize`` deadline never fails a
    request: it falls back to degraded-mode planning.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    request_deadline_s: float | None = None
    stage_deadline_s: Mapping[str, float] = field(default_factory=dict)


class ResilienceStats:
    """Thread-safe counters of the two resilience events no journal
    record carries — deadline hits and degraded outcomes — for
    ``warehouse.describe_health()`` and the metrics registry.  They
    count this process: a recovered warehouse starts them at zero.
    Retries are not counted here: each one is a
    :class:`~repro.core.journal.RetryCharge` on the tenant's bill,
    which the registry reads.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.deadline_hits = 0
        self.degraded_queries = 0

    def note_deadline(self) -> None:
        with self._lock:
            self.deadline_hits += 1

    def note_degraded(self) -> None:
        with self._lock:
            self.degraded_queries += 1


class StageGuard:
    """Applies faults, deadlines, and retries around one request's stages.

    Built per admitted request by ``Session._stage``
    (``repro.core.service._request_guard``) and threaded into the
    planning path.
    ``run(stage, fn)`` is the only entry point: it draws the stage's
    fault decision from the :class:`FaultPort`, charges injected
    latency against the deadlines, retries
    transient failures within the budget-aware attempt allowance, and
    surfaces terminal failures as typed errors
    (:class:`~repro.errors.DeadlineExceededError`,
    :class:`~repro.errors.RetryExhaustedError`, or the original
    non-transient exception).
    Each retry's modeled backoff dollars go to ``charge_retry`` (the
    serving layer commits them to the tenant's bill, which counts the
    retry); ``stats`` counts the deadline hits.
    """

    def __init__(
        self,
        policy: ResiliencePolicy,
        *,
        attempts: int,
        faults: FaultPort | None = None,
        charge_retry: Callable[[float], None] | None = None,
        stats: ResilienceStats | None = None,
    ) -> None:
        self.policy = policy
        self.attempts = max(1, attempts)
        self._faults = faults or FaultPort()
        self._charge_retry = charge_retry
        self._stats = stats
        self.deadline = Deadline(policy.request_deadline_s)
        self.retries = 0

    def run(self, stage: str, fn: Callable[[], object]) -> object:
        """Execute ``fn`` under this guard's fault/deadline/retry rules."""
        stage_limit = self.policy.stage_deadline_s.get(stage)
        stage_deadline = Deadline(stage_limit) if stage_limit is not None else None
        attempt = 0
        while True:
            attempt += 1
            decision = self._faults.decide(stage)
            try:
                if decision is not None:
                    latency = decision.latency_s
                    if latency:
                        self.deadline.charge(latency)
                        if stage_deadline is not None:
                            stage_deadline.charge(latency)
                    self._check(stage, stage_deadline)
                    if decision.error is not None:
                        raise decision.error
                else:
                    self._check(stage, stage_deadline)
                return fn()
            except TransientError as exc:
                if attempt >= self.attempts:
                    if attempt == 1:
                        # No retry budget was available (tenant out of
                        # headroom, or max_attempts=1): surface the
                        # failure as-is rather than claiming exhaustion.
                        self._name_stage(exc, stage)
                        raise
                    raise RetryExhaustedError(
                        f"stage {stage!r} failed {attempt} times "
                        f"(last: {type(exc).__name__}: {exc})",
                        stage=stage,
                        attempts=attempt,
                        cause_type=type(exc).__name__,
                        cause_message=str(exc),
                    ) from exc
                backoff = self.policy.retry.backoff_s(stage, attempt)
                # Backoff is modeled, not slept: it charges the
                # deadlines and bills the tenant's retry dollars.
                self.deadline.charge(backoff)
                if stage_deadline is not None:
                    stage_deadline.charge(backoff)
                if self._charge_retry is not None:
                    self._charge_retry(backoff * DOLLARS_PER_RETRY_S)
                self.retries += 1
                self._check(stage, stage_deadline)
            except ReproError as exc:
                # Deterministic (non-transient) failures propagate on
                # the first attempt — but still leave the guard knowing
                # which stage broke, for the picklable cause chain.
                self._name_stage(exc, stage)
                raise

    @staticmethod
    def _name_stage(exc: BaseException, stage: str) -> None:
        if getattr(exc, "stage", None) is None:
            exc.stage = stage

    def _check(self, stage: str, stage_deadline: Deadline | None) -> None:
        try:
            self.deadline.check(stage)
            if stage_deadline is not None:
                stage_deadline.check(stage)
        except DeadlineExceededError:
            if self._stats is not None:
                self._stats.note_deadline()
            raise
