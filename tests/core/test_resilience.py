"""Unit tests for the resilience primitives (PR 6).

RetryPolicy (deterministic seeded backoff, budget-aware attempts),
Deadline (virtual time), CircuitBreaker (call-counted cooldown),
StageGuard (retry/deadline/fault orchestration), the FaultPort every
fault point draws through, and the picklable cause-chain contract on
the serving errors.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.resilience import (
    BreakerState,
    CircuitBreaker,
    Deadline,
    FaultPort,
    ResiliencePolicy,
    ResilienceStats,
    RetryPolicy,
    StageGuard,
)
from repro.errors import (
    AdmissionDeniedError,
    BindError,
    DeadlineExceededError,
    QueryFailedError,
    ReproError,
    RetryExhaustedError,
    TransientError,
)
from repro.testing import FaultPlan, FaultSpec, InjectedFault


# --------------------------------------------------------------------- #
# RetryPolicy
# --------------------------------------------------------------------- #
def test_backoff_is_deterministic_and_bounded():
    policy = RetryPolicy(backoff_base_s=0.1, backoff_multiplier=2.0, jitter=0.25)
    first = policy.backoff_s("optimize", 1)
    assert first == policy.backoff_s("optimize", 1)  # pure function
    assert RetryPolicy(seed=0).backoff_s("bind", 2) == RetryPolicy(
        seed=0
    ).backoff_s("bind", 2)
    # Jitter stays within [base*(1-j), base*(1+j)], growing exponentially.
    for attempt, base in ((1, 0.1), (2, 0.2), (3, 0.4)):
        value = policy.backoff_s("optimize", attempt)
        assert base * 0.75 <= value <= base * 1.25


def test_backoff_seed_and_stage_change_the_draw():
    a = RetryPolicy(seed=1, jitter=0.25)
    b = RetryPolicy(seed=2, jitter=0.25)
    assert a.backoff_s("bind", 1) != b.backoff_s("bind", 1)
    assert a.backoff_s("bind", 1) != a.backoff_s("optimize", 1)


def test_backoff_without_jitter_is_exact():
    policy = RetryPolicy(backoff_base_s=0.05, backoff_multiplier=3.0, jitter=0.0)
    assert policy.backoff_s("simulate", 1) == 0.05
    assert policy.backoff_s("simulate", 2) == pytest.approx(0.15)


def test_attempts_for_shrinks_with_admission_pressure():
    policy = RetryPolicy(max_attempts=3)
    assert policy.attempts_for(0) == 3  # ADMIT
    assert policy.attempts_for(1) == 2  # THROTTLE
    assert policy.attempts_for(2) == 1  # DEFER
    assert policy.attempts_for(3) == 1  # DENY: still served once, no retries
    assert policy.attempts_for(-5) == 3  # garbage pressure is clamped


def test_retry_policy_validation():
    with pytest.raises(ReproError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ReproError):
        RetryPolicy(backoff_multiplier=0.5)
    with pytest.raises(ReproError):
        RetryPolicy(jitter=1.5)


# --------------------------------------------------------------------- #
# Deadline
# --------------------------------------------------------------------- #
def test_deadline_none_never_expires():
    deadline = Deadline(None)
    deadline.charge(1e9)
    assert not deadline.expired
    deadline.check("optimize")  # no raise


def test_deadline_virtual_charge_trips_expiry():
    deadline = Deadline(1.0)
    assert not deadline.expired
    deadline.charge(0.4)
    assert not deadline.expired
    deadline.charge(0.7)
    assert deadline.expired
    with pytest.raises(DeadlineExceededError) as excinfo:
        deadline.check("optimize")
    assert excinfo.value.stage == "optimize"
    assert excinfo.value.deadline_s == 1.0
    assert excinfo.value.elapsed_s >= 1.0


def test_deadline_rejects_nonpositive_budget():
    with pytest.raises(ReproError):
        Deadline(0.0)


# --------------------------------------------------------------------- #
# CircuitBreaker
# --------------------------------------------------------------------- #
def test_breaker_opens_after_threshold_and_cools_down_by_calls():
    breaker = CircuitBreaker("dep", failure_threshold=3, cooldown_calls=2)
    for _ in range(2):
        breaker.record_failure()
    assert breaker.state is BreakerState.CLOSED
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    assert breaker.opens == 1
    # Cooldown counts *denied calls*: first denial, then the probe.
    assert not breaker.allow()
    assert breaker.allow()  # second call flips to HALF_OPEN: the probe
    assert breaker.state is BreakerState.HALF_OPEN


def test_breaker_probe_success_closes_probe_failure_reopens():
    breaker = CircuitBreaker("dep", failure_threshold=1, cooldown_calls=1)
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    assert breaker.allow()  # probe
    breaker.record_failure()  # probe failed: reopen immediately
    assert breaker.state is BreakerState.OPEN
    assert breaker.opens == 2
    assert breaker.allow()  # cooldown_calls=1: straight back to probe
    breaker.record_success()
    assert breaker.state is BreakerState.CLOSED
    assert breaker.consecutive_failures == 0
    assert breaker.allow()


def test_breaker_success_resets_failure_streak():
    breaker = CircuitBreaker("dep", failure_threshold=2)
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    assert breaker.state is BreakerState.CLOSED  # streak broken, never 2 in a row


def test_breaker_snapshot_shape():
    breaker = CircuitBreaker("dep")
    assert breaker.snapshot() == {
        "state": "closed",
        "consecutive_failures": 0,
        "opens": 0,
    }


# --------------------------------------------------------------------- #
# StageGuard
# --------------------------------------------------------------------- #
class Flaky:
    """Fails with ``error`` the first ``failures`` calls, then succeeds."""

    def __init__(self, failures: int, error: Exception | None = None):
        self.failures = failures
        self.calls = 0
        self.error = error or TransientError("blip")

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error
        return "ok"


def test_guard_passthrough_without_faults():
    guard = StageGuard(ResiliencePolicy(), attempts=3)
    assert guard.run("bind", lambda: 42) == 42
    assert guard.retries == 0


def test_guard_retries_transient_then_succeeds_and_meters_dollars():
    charged = []
    policy = ResiliencePolicy(retry=RetryPolicy(jitter=0.0, backoff_base_s=0.5))
    guard = StageGuard(policy, attempts=3, charge_retry=charged.append)
    flaky = Flaky(2)
    assert guard.run("optimize", flaky) == "ok"
    assert flaky.calls == 3
    assert guard.retries == 2
    # jitter=0: backoffs are exactly 0.5s and 1.0s at $0.01/s.
    assert charged == pytest.approx([0.005, 0.01])
    # Modeled backoff charged the request deadline as virtual time.
    assert guard.deadline.elapsed_s >= 1.5


def test_guard_exhaustion_raises_typed_error_with_cause_summary():
    guard = StageGuard(ResiliencePolicy(), attempts=2)
    with pytest.raises(RetryExhaustedError) as excinfo:
        guard.run("simulate", Flaky(99))
    error = excinfo.value
    assert error.stage == "simulate"
    assert error.attempts == 2
    assert error.cause_type == "TransientError"
    assert error.cause_message == "blip"
    assert isinstance(error.__cause__, TransientError)


def test_guard_single_attempt_surfaces_original_error():
    """attempts=1 (tenant out of retry budget) must not claim exhaustion."""
    guard = StageGuard(ResiliencePolicy(), attempts=1)
    with pytest.raises(TransientError):
        guard.run("bind", Flaky(99))


def test_guard_never_retries_deterministic_errors():
    flaky = Flaky(99, error=BindError("no such column"))
    guard = StageGuard(ResiliencePolicy(), attempts=3)
    with pytest.raises(BindError):
        guard.run("bind", flaky)
    assert flaky.calls == 1
    assert guard.retries == 0


def test_fault_port_draws_from_the_installed_plan_only():
    port = FaultPort()
    port.fire("statsvc")  # no plan: nothing fires, nothing is drawn
    assert port.decide("statsvc") is None
    plan = FaultPlan([FaultSpec(point="statsvc", error_rate=1.0, limit=1)])
    port.plan = plan
    with pytest.raises(InjectedFault):
        port.fire("statsvc")
    assert port.decide("statsvc") is None  # the limit is spent
    assert plan.invocations == {"statsvc": 2}
    port.plan = None  # swapped out mid-workload: the outage ends
    port.fire("statsvc")
    assert plan.invocations == {"statsvc": 2}


def test_guard_injected_latency_charges_deadline():
    port = FaultPort()
    port.plan = FaultPlan(
        [FaultSpec(point="optimize", latency_rate=1.0, latency_s=5.0)]
    )
    policy = ResiliencePolicy(request_deadline_s=1.0)
    guard = StageGuard(policy, attempts=3, faults=port)
    with pytest.raises(DeadlineExceededError) as excinfo:
        guard.run("optimize", lambda: "never reached")
    assert excinfo.value.stage == "optimize"


def test_guard_stage_deadline_applies_to_named_stage_only():
    policy = ResiliencePolicy(
        retry=RetryPolicy(jitter=0.0, backoff_base_s=2.0),
        stage_deadline_s={"simulate": 1.0},
    )
    # A retry backoff of 2s blows the 1s simulate stage deadline...
    guard = StageGuard(policy, attempts=3)
    with pytest.raises(DeadlineExceededError):
        guard.run("simulate", Flaky(99))
    # ...but the same failure pattern on an unbounded stage just retries.
    guard = StageGuard(policy, attempts=3)
    assert guard.run("optimize", Flaky(2)) == "ok"


def test_guard_deadline_hits_counted_in_stats():
    stats = ResilienceStats()
    policy = ResiliencePolicy(request_deadline_s=0.5)
    guard = StageGuard(policy, attempts=1, stats=stats)
    guard.deadline.charge(1.0)
    with pytest.raises(DeadlineExceededError):
        guard.run("bind", lambda: "x")
    assert stats.deadline_hits == 1


# --------------------------------------------------------------------- #
# Picklable cause chains (satellite: errors cross process boundaries)
# --------------------------------------------------------------------- #
def test_query_failed_error_pickles_with_cause_summary():
    cause = BindError("unknown column 'x'")
    error = QueryFailedError(
        "bind failed", index=3, sql="SELECT x FROM t", cause=cause, stage="bind"
    )
    clone = pickle.loads(pickle.dumps(error))
    assert type(clone) is QueryFailedError
    assert str(clone) == str(error)
    assert clone.index == 3
    assert clone.stage == "bind"
    assert clone.cause_type == "BindError"
    assert clone.cause_message == "unknown column 'x'"
    # The live exception object is in-process only.
    assert clone.cause is None
    assert error.cause is cause


def test_admission_denied_error_pickles_round_trip():
    error = AdmissionDeniedError(
        "budget exhausted",
        tenant="analyst",
        spent_dollars=12.5,
        budget_dollars=10.0,
        index=1,
        sql="SELECT 1",
    )
    clone = pickle.loads(pickle.dumps(error))
    assert type(clone) is AdmissionDeniedError
    assert clone.tenant == "analyst"
    assert clone.spent_dollars == 12.5
    assert clone.budget_dollars == 10.0
    assert clone.index == 1
    assert str(clone) == str(error)


def test_unpicklable_cause_does_not_break_handle_errors():
    import threading

    cause = TransientError("holds a lock")
    cause.lock = threading.Lock()  # unpicklable payload on the cause
    error = QueryFailedError("stage failed", cause=cause, stage="simulate")
    clone = pickle.loads(pickle.dumps(error))
    assert clone.cause_type == "TransientError"
    assert clone.cause is None
