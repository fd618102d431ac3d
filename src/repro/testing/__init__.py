"""Deterministic testing utilities (fault injection for chaos suites,
lock-order sanitizing for deadlock detection, a journal that keeps
every record its seal drops, and — imported explicitly
as :mod:`repro.testing.reference` — the slow parity references the cost
model and DOP search are held to).

Separate from :mod:`repro.core` so production modules never import test
machinery; the warehouse only *accepts* an injected
:class:`~repro.testing.faults.FaultPlan` through
``warehouse.inject_faults``, and the lock-order sanitizer
(:mod:`repro.testing.locks`) instruments a warehouse from the outside.
"""

from repro.testing.faults import (
    CRASH_POINTS,
    FAULT_POINTS,
    FaultDecision,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    SimulatedCrashError,
    crash_probes,
    kill,
    outage,
)
from repro.testing.journal import RecordingJournal
from repro.testing.locks import (
    LockOrderError,
    LockOrderSanitizer,
    SanitizedLock,
    instrument_warehouse,
)

__all__ = [
    "CRASH_POINTS",
    "FAULT_POINTS",
    "FaultDecision",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "LockOrderError",
    "LockOrderSanitizer",
    "RecordingJournal",
    "SanitizedLock",
    "SimulatedCrashError",
    "crash_probes",
    "instrument_warehouse",
    "kill",
    "outage",
]
