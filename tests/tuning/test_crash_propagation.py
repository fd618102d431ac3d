"""SimulatedCrashError must tear through the tuning service uncaught.

The background-cycle handlers in ``tuning/service.py`` (``apply``'s
``except Exception`` dispatch guard, ``apply_all``'s and
``maybe_run_cycle``'s ``except ReproError``) exist to keep *library*
failures off the foreground path.  ``SimulatedCrashError`` subclasses
``BaseException`` precisely so none of them can swallow it — a
simulated ``kill -9`` at a journal boundary has to reach the chaos
driver through every tuning frame, otherwise the kill-point recovery
matrix would silently test nothing.  These tests pin that contract for
every tuning entry point: explicit ``apply``/``apply_all``, the
crash probes inside the two-record journal protocol, and the
serving-triggered auto-tune cycle.
"""

from __future__ import annotations

import pytest

from repro import (
    CostIntelligentWarehouse,
    QueryRequest,
    TuningPolicy,
    sla_constraint,
)
from repro.core.journal import WriteAheadJournal
from repro.testing import FaultPlan, FaultSpec, SimulatedCrashError, kill
from repro.workloads.tpch_stats import synthetic_tpch_catalog

Q5ISH = (
    "SELECT n_name, sum(c_acctbal) AS bal, count(*) AS cnt "
    "FROM customer, nation WHERE c_nationkey = n_nationkey "
    "AND n_regionkey = {r} GROUP BY n_name"
)
SLA = sla_constraint(20.0)


def crash_spec(point: str) -> FaultSpec:
    """A spec whose injected error is a crash, not a TransientError."""
    return FaultSpec(
        point=point,
        error_rate=1.0,
        error=lambda message: SimulatedCrashError(
            message, point=point, invocation=0
        ),
    )


def stats_warehouse(*, tuning_policy=None, journal=None):
    wh = CostIntelligentWarehouse(
        catalog=synthetic_tpch_catalog(1.0),
        tuning_policy=tuning_policy,
        journal=journal,
    )
    session = wh.session(tenant="alpha", constraint=SLA)
    t = 0.0
    for i in range(6):
        session.submit(
            QueryRequest(
                sql=Q5ISH.format(r=i % 3),
                template="q5ish",
                at_time=t,
                simulate=False,
            )
        )
        t += 30.0
    return wh


def accepted_recommendations(wh):
    recs = [r for r in wh.tuning.propose() if r.accepted]
    assert recs, "workload must yield at least one accepted recommendation"
    return recs


def test_crash_in_apply_dispatch_propagates_through_apply_all():
    """apply()'s `except Exception` dispatch guard and apply_all's
    `except ReproError` batch guard both let the crash through."""
    wh = stats_warehouse()
    recs = accepted_recommendations(wh)
    wh.inject_faults(FaultPlan([crash_spec("tuning_apply")]))
    with pytest.raises(SimulatedCrashError):
        wh.tuning.apply_all(recs)
    # ...and not as a recorded cycle failure: no handler saw it.
    assert wh.tuning.last_error is None


def test_crash_at_pre_commit_probe_propagates_through_apply_all():
    """The crash point between TuningIntent and TuningCommit (the
    in-doubt window the recovery matrix sweeps) is equally uncatchable."""
    wh = stats_warehouse(journal=WriteAheadJournal())
    recs = accepted_recommendations(wh)
    wh.inject_faults(FaultPlan([kill("crash_pre_commit")]))
    with pytest.raises(SimulatedCrashError):
        wh.tuning.apply_all(recs)


def test_crash_during_auto_tune_cycle_propagates_through_submit():
    """The serving-layer maybe_run_cycle hook (except ReproError around
    propose and apply) must not contain the crash either: it surfaces
    through the foreground submit that triggered the cycle."""
    # Cadence 16: the 6 warmup submissions stay below the first cycle,
    # which then triggers mid-loop below, after the crash is installed.
    wh = stats_warehouse(
        tuning_policy=TuningPolicy(cadence_queries=16, auto_apply=True)
    )
    wh.inject_faults(FaultPlan([crash_spec("tuning_apply")]))
    session = wh.session(tenant="alpha", constraint=SLA)
    with pytest.raises(SimulatedCrashError):
        # Submissions advance the cadence until a cycle runs, proposes,
        # and auto-applies into the injected crash.  Bounded loop: if
        # nothing crashes, the assertion below fails the test.
        for i in range(12):
            session.submit(
                QueryRequest(
                    sql=Q5ISH.format(r=i % 3),
                    template="q5ish",
                    at_time=300.0 + 30.0 * i,
                    simulate=False,
                )
            )
    # The breaker never saw the crash (no _note_cycle_failure ran).
    assert wh.tuning.breaker.consecutive_failures == 0


def test_injected_library_error_is_contained_by_the_same_handlers():
    """Control case: a TransientError-family fault at the same point IS
    caught by the cycle handlers — proving the crash propagation above
    is BaseException-specific, not a hole in the guards."""
    wh = stats_warehouse()
    recs = accepted_recommendations(wh)
    wh.inject_faults(FaultPlan([FaultSpec(point="tuning_apply", error_rate=1.0)]))
    applied = wh.tuning.apply_all(recs)
    assert applied == []
    assert wh.tuning.last_error is not None
    assert all(r.error is not None for r in recs)
