"""Runtime lock-order sanitizer: the dynamic half of the invariant
guard (the shape checks in ``tests/analysis/shape_rules.py`` are the
static half).

The serving stack holds ~9 locks across `core/` (serving admission,
journal, plan-cache levels, circuit breakers, stats, fault plans).
The AST lint can prove every one is held via ``with``, but not that two
threads never acquire them in opposite orders — the classic deadlock
that only bites under concurrency the test happened not to schedule.
This module makes acquisition *order* observable:

- :class:`SanitizedLock` wraps a real lock; every successful acquire
  records a ``held -> acquired`` edge for each lock the acquiring
  thread already holds;
- :class:`LockOrderSanitizer` keeps the global edge graph and runs a
  DFS on each **new** edge: a cycle means two code paths disagree on
  order, i.e. a latent deadlock, even if this run never interleaved
  into it.  Violations are recorded (and optionally raised) with both
  offending edges' thread names and stack snippets;
- :func:`instrument_warehouse` swaps every known warehouse lock for a
  sanitized wrapper in place, returning the sanitizer so a test can
  ``assert_clean()`` after driving a workload.

Every generated chaos history (``tests/chaos/test_histories.py``) runs
on an instrumented warehouse and asserts a cycle-free graph when it
ends.  Wrapping is transparent to the
serving path — ``with lock:`` works unchanged — and, like everything
in :mod:`repro.testing`, is never active in production configurations.
"""

from __future__ import annotations

import threading
import traceback

from repro.errors import ReproError

__all__ = [
    "LockOrderError",
    "LockOrderSanitizer",
    "SanitizedLock",
    "instrument_warehouse",
]


class LockOrderError(ReproError):
    """A lock acquisition-order cycle (latent deadlock) was observed."""


class SanitizedLock:
    """Drop-in wrapper reporting acquisition order to a sanitizer.

    Proxies the real lock's blocking semantics exactly; the order edge
    is recorded only after a *successful* acquire, so a failed
    ``blocking=False`` probe never pollutes the graph.
    """

    __slots__ = ("_inner_lock", "name", "_sanitizer")

    def __init__(
        self, inner, name: str, sanitizer: "LockOrderSanitizer"
    ) -> None:
        self._inner_lock = inner
        self.name = name
        self._sanitizer = sanitizer

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        # The one sanctioned naked acquire: this *is* the instrumented
        # `with` machinery every other module is required to use.
        acquired = self._inner_lock.acquire(blocking, timeout)  # lint-allow: naked-acquire the sanitizer wrapper is the with-statement implementation
        if acquired:
            self._sanitizer._note_acquire(self.name)
        return acquired

    def release(self) -> None:
        self._sanitizer._note_release(self.name)
        self._inner_lock.release()  # lint-allow: naked-acquire paired with the instrumented acquire above

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def locked(self) -> bool:
        return self._inner_lock.locked()

    def __repr__(self) -> str:
        return f"SanitizedLock({self.name!r})"


class LockOrderSanitizer:
    """Global acquisition-order graph with on-edge cycle detection."""

    def __init__(self, *, raise_on_cycle: bool = False) -> None:
        self._graph_lock = threading.Lock()
        #: held-name -> {acquired-name, ...}
        self._edges: dict[str, set[str]] = {}
        #: (held, acquired) -> "thread / stack" provenance of first sight
        self._edge_origin: dict[tuple[str, str], str] = {}
        self._tls = threading.local()
        self.violations: list[str] = []
        self.raise_on_cycle = raise_on_cycle
        self.acquisitions = 0

    # -- instrumentation ----------------------------------------------- #
    def wrap(self, lock, name: str) -> SanitizedLock:
        if isinstance(lock, SanitizedLock):
            return lock
        return SanitizedLock(lock, name, self)

    def _held(self) -> list[str]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _note_acquire(self, name: str) -> None:
        held = self._held()
        new_edges = [
            (h, name) for h in held if h != name  # reentrant RLock: no self-edge
        ]
        held.append(name)
        if not new_edges:
            with self._graph_lock:
                self.acquisitions += 1
                self._edges.setdefault(name, set())
            return
        origin = None
        with self._graph_lock:
            self.acquisitions += 1
            self._edges.setdefault(name, set())
            for held_name, acquired_name in new_edges:
                targets = self._edges.setdefault(held_name, set())
                if acquired_name in targets:
                    continue
                targets.add(acquired_name)
                if origin is None:
                    frames = traceback.extract_stack(limit=8)[:-3]
                    origin = (
                        f"thread {threading.current_thread().name}: "
                        + " <- ".join(
                            f"{f.name}:{f.lineno}" for f in reversed(frames)
                        )
                    )
                self._edge_origin[(held_name, acquired_name)] = origin
                cycle = self._find_path(acquired_name, held_name)
                if cycle is not None:
                    self._record_cycle(held_name, acquired_name, cycle)

    def _note_release(self, name: str) -> None:
        held = self._held()
        for index in range(len(held) - 1, -1, -1):
            if held[index] == name:
                del held[index]
                return

    # -- cycle detection ----------------------------------------------- #
    def _find_path(self, start: str, goal: str) -> "list[str] | None":
        """DFS path start -> goal in the edge graph (caller holds
        ``_graph_lock``)."""
        stack = [(start, [start])]
        seen = {start}
        while stack:
            node, path = stack.pop()
            if node == goal:
                return path
            for nxt in self._edges.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, path + [nxt]))
        return None

    def _record_cycle(
        self, held: str, acquired: str, path: list[str]
    ) -> None:
        cycle = [held, *path]
        legs = []
        for a, b in zip(cycle, cycle[1:]):
            origin = self._edge_origin.get((a, b), "unknown origin")
            legs.append(f"  {a} -> {b}   [{origin}]")
        message = (
            "lock acquisition-order cycle (latent deadlock): "
            + " -> ".join(cycle)
            + "\n"
            + "\n".join(legs)
        )
        self.violations.append(message)
        if self.raise_on_cycle:
            raise LockOrderError(message)

    # -- reporting ------------------------------------------------------ #
    def edges(self) -> dict[str, frozenset]:
        with self._graph_lock:
            return {k: frozenset(v) for k, v in self._edges.items()}

    def describe(self) -> dict:
        with self._graph_lock:
            return {
                "locks": sorted(self._edges),
                "edges": sorted(
                    (a, b) for a, bs in self._edges.items() for b in bs
                ),
                "acquisitions": self.acquisitions,
                "violations": list(self.violations),
            }

    def assert_clean(self) -> None:
        if self.violations:
            raise LockOrderError(
                f"{len(self.violations)} lock-order violation(s):\n"
                + "\n".join(self.violations)
            )


def instrument_warehouse(
    warehouse, sanitizer: "LockOrderSanitizer | None" = None
) -> LockOrderSanitizer:
    """Swap every known lock on *warehouse* for a sanitized wrapper.

    Covers the ledger lock (which orders serving; it keeps the edge
    graph's ``warehouse.serving`` name), the journal, both plan-cache
    levels and the binder's bound templates, admission, the template frequency provider, both
    circuit breakers (statsvc + tuning, the latter only if the tuning
    service has materialized), resilience
    stats, the observability locks (metrics registry, cost history,
    snapshot collector), and an installed fault plan.  Call *after*
    the warehouse is fully constructed (and after ``inject_faults`` /
    first ``tuning``
    access, to catch those locks too); instrumenting twice is a no-op
    per lock.
    """
    sanitizer = sanitizer or LockOrderSanitizer()
    warehouse.ledger.lock = sanitizer.wrap(
        warehouse.ledger.lock, "warehouse.serving"
    )
    if warehouse.journal is not None:
        warehouse.journal._lock = sanitizer.wrap(
            warehouse.journal._lock, "journal"
        )
    for cache_name in ("plan_cache", "skeleton_cache"):
        cache = getattr(warehouse, cache_name, None)
        if cache is None:
            continue
        cache.lock = sanitizer.wrap(cache.lock, cache_name)
    templates = warehouse.binder.templates
    templates.lock = sanitizer.wrap(templates.lock, "bound_templates")
    warehouse.frequency._lock = sanitizer.wrap(
        warehouse.frequency._lock, "frequency"
    )
    warehouse.statsvc_breaker._lock = sanitizer.wrap(
        warehouse.statsvc_breaker._lock, "statsvc_breaker"
    )
    warehouse.resilience_stats._lock = sanitizer.wrap(
        warehouse.resilience_stats._lock, "resilience_stats"
    )
    warehouse.metrics._lock = sanitizer.wrap(
        warehouse.metrics._lock, "metrics_registry"
    )
    warehouse.cost_history._lock = sanitizer.wrap(
        warehouse.cost_history._lock, "cost_history"
    )
    warehouse.collector._lock = sanitizer.wrap(
        warehouse.collector._lock, "snapshot_collector"
    )
    if warehouse.faults is not None:
        warehouse.faults._lock = sanitizer.wrap(
            warehouse.faults._lock, "fault_plan"
        )
    tuning = warehouse._tuning
    if tuning is not None:
        tuning.breaker._lock = sanitizer.wrap(
            tuning.breaker._lock, "tuning_breaker"
        )
    return sanitizer
