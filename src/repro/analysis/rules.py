"""The repo's architecture rules.

Each rule machine-enforces one invariant that PRs 3–7 established in
prose (ROADMAP "machine-checked invariants" section); the rule's
docstring names the contract and the failure it prevents.  Rules are
syntactic and conservative by design: they key on the repo's own
idioms (``faults.fire``, ``*_dollars``, ``*lock*.acquire``) rather than
attempting type inference, so a violation is a near-certain contract
breach and a false positive is a one-line
``# lint-allow: <rule> <why>`` away.  Facts about module boundaries
(who appends to the journal, what a planner worker may import, the
warehouse constructor's keywords) are not rules: they are assertions in
``tests/testing/test_production_imports.py``.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.engine import (
    Finding,
    ModuleSource,
    Rule,
    dotted_name,
    register,
)

#: Subpackages that must be deterministic and virtual-time only.
DETERMINISTIC_PACKAGES = frozenset({"core", "tuning", "statsvc", "obsvc"})


def _handler_names(handler: ast.ExceptHandler) -> list[str | None]:
    """Dotted names caught by one handler (``None`` = bare except)."""
    if handler.type is None:
        return [None]
    if isinstance(handler.type, ast.Tuple):
        return [dotted_name(el) for el in handler.type.elts]
    return [dotted_name(handler.type)]


@register
class BareExceptRule(Rule):
    """No ``except:`` / ``except BaseException:`` outside repro/testing.

    ``SimulatedCrashError`` subclasses ``BaseException`` precisely so
    that production code cannot catch it — a simulated ``kill -9`` must
    tear the process model down through every frame.  A bare except
    anywhere in the serving/tuning path would swallow the crash and
    invalidate every kill-point recovery test.
    """

    rule_id = "bare-except"
    description = (
        "bare `except:` / `except BaseException:` outside repro/testing "
        "(would swallow SimulatedCrashError)"
    )

    def applies_to(self, module: ModuleSource) -> bool:
        return not module.is_testing

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            for name in _handler_names(node):
                if name is None or name.split(".")[-1] == "BaseException":
                    what = "bare except" if name is None else f"except {name}"
                    yield self.finding(
                        module,
                        node,
                        f"{what} swallows SimulatedCrashError "
                        "(BaseException); catch Exception or a typed "
                        "ReproError",
                    )


_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.datetime.now",
        "datetime.utcnow",
        "datetime.datetime.utcnow",
        "datetime.today",
        "datetime.date.today",
        "date.today",
    }
)


@register
class WallClockRule(Rule):
    """core/tuning/statsvc are virtual-time and seeded-RNG only.

    Simulated time comes from the workload (``at_time``) and modeled
    durations; randomness comes from :func:`repro.util.rng.derive_rng`.
    Wall-clock reads or unseeded RNG make billing, admission, and
    tuning decisions non-reproducible, which breaks replay-based
    recovery verification.  ``time.perf_counter`` / ``time.monotonic``
    are allowed: they measure host-side durations (stage timings,
    deadlines) and never feed modeled state.
    """

    rule_id = "wall-clock"
    description = (
        "wall-clock time or unseeded randomness in core/tuning/statsvc "
        "(virtual time + derive_rng only)"
    )

    def applies_to(self, module: ModuleSource) -> bool:
        return module.subpackage in DETERMINISTIC_PACKAGES

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            if name in _WALL_CLOCK_CALLS:
                yield self.finding(
                    module,
                    node,
                    f"{name}() reads the wall clock; use workload virtual "
                    "time (at_time) or time.perf_counter for durations",
                )
            elif name.startswith("random."):
                yield self.finding(
                    module,
                    node,
                    f"{name}() is process-global unseeded randomness; use "
                    "repro.util.rng.derive_rng(seed, ...)",
                )
            elif name in (
                "default_rng",
                "np.random.default_rng",
                "numpy.random.default_rng",
            ):
                if not node.args and not node.keywords:
                    yield self.finding(
                        module,
                        node,
                        "default_rng() without a seed is entropy-seeded; "
                        "use repro.util.rng.derive_rng(seed, ...)",
                    )
            elif name.startswith(("np.random.", "numpy.random.")):
                yield self.finding(
                    module,
                    node,
                    f"{name}() uses numpy's global RNG; use "
                    "repro.util.rng.derive_rng(seed, ...)",
                )


@register
class FloatBillingRule(Rule):
    """Dollar balances accumulate in integral ledger units only.

    ``x.dollars += y`` in float drifts with accumulation order, so a
    crash-recovery replay (which re-adds the same charges in journal
    order) would not reproduce the live balance bit for bit.  All
    authoritative balances go through
    :func:`repro.util.units.to_ledger_units` into integer state;
    derived float views are computed on read.
    """

    rule_id = "float-billing"
    description = (
        "float `+=` on a *_dollars balance (accumulate ledger units via "
        "repro.util.units instead)"
    )

    def applies_to(self, module: ModuleSource) -> bool:
        return module.subpackage in DETERMINISTIC_PACKAGES

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.AugAssign):
                continue
            if not isinstance(node.op, ast.Add):
                continue
            target = node.target
            name = (
                target.attr
                if isinstance(target, ast.Attribute)
                else target.id if isinstance(target, ast.Name) else ""
            )
            if name == "dollars" or name.endswith("_dollars"):
                yield self.finding(
                    module,
                    node,
                    f"float `+= ` on {name!r}: accumulate integral ledger "
                    "units (repro.util.units.to_ledger_units) and derive "
                    "the float view on read",
                )


#: Registry-emission methods the ``metric-name`` rule audits.  Reads
#: (``value`` / ``sourced``) are included: a typo'd read silently
#: returns zero forever, which is exactly the drift the typed registry
#: exists to prevent.
_METRIC_METHODS = frozenset(
    {"counter", "histogram", "source", "value", "sourced"}
)


@register
class MetricNameRule(Rule):
    """Every metric emitted or read must be declared in
    ``REGISTERED_METRICS``.

    The typed registry in :mod:`repro.obsvc.metrics` raises
    ``MetricNameError`` at runtime for undeclared names, but only on
    paths a test actually exercises.  This rule closes the gap
    statically — any ``*.metrics.counter("name", ...)`` (or histogram /
    source / value / sourced) call whose name is not a
    string literal found in ``REGISTERED_METRICS`` fails the lint, so a
    typo'd or undeclared metric never ships.  Dynamic names are legal
    only behind an explicit ``# lint-allow: metric-name <why>``.
    """

    rule_id = "metric-name"
    description = (
        "metric emitted with a name not declared in "
        "repro.obsvc.metrics.REGISTERED_METRICS"
    )

    def applies_to(self, module: ModuleSource) -> bool:
        return (
            module.in_repro
            and not module.is_testing
            and module.norm != "repro/obsvc/metrics.py"
        )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        from repro.obsvc.metrics import REGISTERED_METRICS

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in _METRIC_METHODS:
                continue
            receiver = dotted_name(func.value) or ""
            tail = receiver.lower().rsplit(".", 1)[-1]
            if "metric" not in tail and "registry" not in tail:
                continue
            first = node.args[0] if node.args else None
            if not isinstance(first, ast.Constant) or not isinstance(
                first.value, str
            ):
                yield self.finding(
                    module,
                    node,
                    f"{receiver}.{func.attr}() with a non-literal metric "
                    "name; the registry contract is auditable literal "
                    "names declared in REGISTERED_METRICS",
                )
            elif first.value not in REGISTERED_METRICS:
                yield self.finding(
                    module,
                    node,
                    f"undeclared metric {first.value!r}; declare it in "
                    "repro.obsvc.metrics.REGISTERED_METRICS with kind, "
                    "help text, and label names",
                )


_BROAD_CATCHES = frozenset(
    {"BaseException", "Exception", "TransientError", "InjectedFault",
     "ReproError"}
)
_GUARDED_STAGES = frozenset({"bind", "optimize", "simulate"})


@register
class StageGuardRule(Rule):
    """Fault points retry/fail only through StageGuard.

    ``StageGuard.run`` is the sanctioned wrapper for the bind /
    optimize / simulate fault points: it owns retry budgets, deadline
    charging, and typed error translation.  An ad-hoc broad
    ``try/except`` around a fault point — a guarded stage's ``run`` or a
    :class:`~repro.core.resilience.FaultPort`'s ``fire`` / ``decide`` —
    double-retries, hides ``InjectedFault`` from the chaos matrix, or
    eats the typed errors the degraded path keys on.  Narrow typed
    catches (e.g. the sanctioned ``DeadlineExceededError`` degraded
    fallback) stay legal.
    """

    rule_id = "stage-guard"
    description = (
        "broad try/except around a bind/optimize/simulate fault point "
        "outside StageGuard"
    )

    def applies_to(self, module: ModuleSource) -> bool:
        return (
            module.subpackage in {"core", "tuning"}
            and module.norm != "repro/core/resilience.py"
        )

    def _is_fault_point(self, node: ast.Call) -> bool:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return False
        name = func.attr
        receiver = dotted_name(func.value) or ""
        if name in ("fire", "decide") and "fault" in receiver.lower():
            return True
        if name == "run":
            first = node.args[0] if node.args else None
            if (
                isinstance(first, ast.Constant)
                and first.value in _GUARDED_STAGES
            ):
                return True
            if "guard" in receiver.lower():
                return True
        return False

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Try):
                continue
            body_faults = [
                call
                for stmt in node.body
                for call in ast.walk(stmt)
                if isinstance(call, ast.Call) and self._is_fault_point(call)
            ]
            if not body_faults:
                continue
            for handler in node.handlers:
                for name in _handler_names(handler):
                    caught = name.split(".")[-1] if name else None
                    if caught is None or caught in _BROAD_CATCHES:
                        yield self.finding(
                            module,
                            handler,
                            f"except {caught or ''} around a fault point "
                            "(line "
                            f"{body_faults[0].lineno}); only StageGuard may "
                            "handle bind/optimize/simulate failures broadly",
                        )


@register
class NakedAcquireRule(Rule):
    """Locks are held via ``with`` only.

    A naked ``lock.acquire()`` has no exception-safe release path — a
    ``SimulatedCrashError`` or injected fault between acquire and
    release deadlocks every later request on that lock.  It is also
    invisible to the lock-order sanitizer's scope tracking.  The only
    sanctioned call sites are the sanitizer's own instrumented wrapper
    (inline-suppressed) — everything else uses ``with lock:``.
    """

    rule_id = "naked-acquire"
    description = (
        "naked lock .acquire()/.release() (use `with lock:` for "
        "exception safety)"
    )

    def applies_to(self, module: ModuleSource) -> bool:
        return module.in_repro

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in ("acquire", "release"):
                continue
            receiver = dotted_name(func.value) or ""
            if "lock" not in receiver.lower():
                continue  # compute-pool lease acquire/release etc.
            yield self.finding(
                module,
                node,
                f"naked {receiver}.{func.attr}(); hold locks with "
                f"`with {receiver}:` so injected faults cannot leak a "
                "held lock",
            )


#: Annotation tokens that mark a field as process-local (unpicklable or
#: meaningless after restore).  Word-bounded so e.g. "Blocked" or a
#: record named "CallableSpec" would not false-positive.
_UNPICKLABLE_TOKENS = re.compile(
    r"\b(Callable|Lock|RLock|Thread|Condition|Generator|Iterator|"
    r"TextIO|BinaryIO|socket|weakref|Queue|FaultPlan|Session|"
    r"ThreadPoolExecutor)\b"
)


@register
class PicklableRecordRule(Rule):
    """Journal records and ReproErrors must stay picklable plain data.

    Recovery unpickles the journal in a fresh process: a record (or a
    journaled error) that references a closure, lock, thread, or live
    session object either fails to pickle (losing the write) or
    restores as garbage.  Fields must be primitives, containers, or
    other record dataclasses.
    """

    rule_id = "picklable-record"
    description = (
        "journal record / ReproError field annotated with a "
        "process-local type (must pickle into a fresh recovery process)"
    )

    def applies_to(self, module: ModuleSource) -> bool:
        return module.norm in ("repro/core/journal.py", "repro/errors.py")

    def _check_annotation(
        self, module: ModuleSource, node: ast.AST, owner: str, field: str
    ) -> Iterator[Finding]:
        annotation = ast.unparse(node)
        match = _UNPICKLABLE_TOKENS.search(annotation)
        if match:
            yield self.finding(
                module,
                node,
                f"{owner}.{field} annotated {annotation!r}: "
                f"{match.group(1)} is process-local and cannot round-trip "
                "through pickle into the recovery process",
            )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for cls in module.tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            is_record = any(
                (dotted_name(d) or dotted_name(getattr(d, "func", ast.Pass())))
                in ("dataclass", "dataclasses.dataclass")
                for d in cls.decorator_list
            )
            is_error = cls.name.endswith("Error")
            if is_record:
                for stmt in cls.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(
                        stmt.target, ast.Name
                    ):
                        yield from self._check_annotation(
                            module,
                            stmt.annotation,
                            cls.name,
                            stmt.target.id,
                        )
            if is_error:
                for stmt in cls.body:
                    if (
                        isinstance(stmt, ast.FunctionDef)
                        and stmt.name == "__init__"
                    ):
                        all_args = (
                            stmt.args.posonlyargs
                            + stmt.args.args
                            + stmt.args.kwonlyargs
                        )
                        for arg in all_args:
                            if arg.annotation is not None:
                                yield from self._check_annotation(
                                    module,
                                    arg.annotation,
                                    cls.name,
                                    arg.arg,
                                )
