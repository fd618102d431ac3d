"""Serving-layer plan caches for the cost-intelligent warehouse.

Analytical traffic is dominated by recurring report templates — the same
SQL shapes resubmitted with *varying literals* under the same
constraints.  Re-running the bi-objective optimizer for each arrival
wastes exactly the machine time the paper's economics are about, so
planning work is memoized at three levels, walked in this order by the
one planning pipeline (:mod:`repro.core.planning`) — each is optional,
and a pipeline built without one simply skips it:

- **Exact level** (:class:`PlanCache`): the full
  :class:`~repro.core.bioptimizer.PlanChoice` keyed on the *normalized*
  SQL string (whitespace, letter case, and comments do not
  fragment the cache), the user constraint, and the catalog's stats
  version.  A verbatim resubmission pays nothing.
- **Binding level** (:class:`BindingCache`): the bound query keyed on
  the normalized SQL and the stats version.  Binding is
  constraint-independent, so the same query under a second constraint
  skips the binder (and, through the optimizer's DAG memo, physical
  planning).
- **Skeleton level** (:class:`SkeletonCache`): the template's *plan
  skeleton* — the DP-chosen join tree plus its bushy variant shapes —
  keyed on the literal-free template key
  (:func:`~repro.sql.parameterize.parameterize_sql`), the constraint
  kind, and the stats version.  A resubmission with new literals skips
  join-order DP and bushy generation and re-runs only constant binding,
  cardinality re-estimation over the cached shapes, and the incremental
  DOP search — bit-identical to fresh optimization whenever the new
  literals would lead the DP to the same shapes (enforced on the
  workload suite by ``tests/cost/test_estimation_parity.py``).

The stats version inside every key is the invalidation story: any
catalog mutation (stats refresh, recluster, MV creation, table DDL)
bumps the version, so stale entries can never be served — they simply
stop matching and age out of the LRU.  ``invalidate()`` exists for
explicit flushes (e.g. hardware recalibration, which changes cost
without touching the catalog).

Retention
---------

*Which* entry leaves a full cache is delegated to a pluggable
:class:`~repro.core.governance.RetentionPolicy`.  The default
:class:`~repro.core.governance.LruPolicy` evicts the
least-recently-used entry, so each level is an exact LRU of its stated
capacity: which level answers a query (and so its dollars) is a
function of the traffic, never of ``hash()``.  A
:class:`~repro.core.governance.CostAwarePolicy` instead scores entries
by forecast template frequency times re-optimization cost saved, so hot
recurring templates survive eviction pressure that plain recency would
age them out of; the pipeline passes the scoring metadata with every
``store``.

Each level is one :class:`threading.Lock` over one ``OrderedDict`` and
three integer counters; the policy's hooks all run under that lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Hashable, Iterable

from repro.core.governance import LruPolicy, RetentionPolicy
from repro.sql.parameterize import normalize_sql  # noqa: F401  (re-export)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.bioptimizer import PlanChoice
    from repro.optimizer.join_order import JoinTree, Leaf
    from repro.sql.binder import BoundQuery


class _LruStats:
    """One lock-guarded LRU with hit/miss/eviction counters."""

    def __init__(
        self,
        capacity: int,
        name: str,
        *,
        policy: RetentionPolicy | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"{name} capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.name = name
        #: Who decides evictions; one policy instance per cache (its
        #: metadata is keyed by this cache's keys).
        self.policy = policy or LruPolicy()
        self.lock = threading.Lock()
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _get(self, key: Hashable):
        with self.lock:
            found = self._entries.get(key)
            if found is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return found

    def _put(
        self,
        key: Hashable,
        value: object,
        *,
        template: Hashable | None = None,
        cost_s: float = 0.0,
    ) -> None:
        with self.lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            if template is not None:
                # Metadata must land before victim selection: the entry
                # being stored competes in its own store's eviction, and
                # an unscored newcomer would evict itself against any
                # scored resident (and leak its metadata, recorded after
                # the fact for a key no longer present).
                self.policy.record(key, template=template, cost_s=cost_s)
            while len(self._entries) > self.capacity:
                victim = self.policy.victim(self._entries)
                del self._entries[victim]
                self.evictions += 1
                self.policy.on_evict(victim)

    def invalidate(self) -> None:
        """Drop every cached entry (and the policy's per-key metadata)."""
        with self.lock:
            self._entries.clear()
            self.policy.clear()

    def export_state(self) -> tuple[tuple[Hashable, object], ...]:
        """Snapshot the cached entries as ``(key, value)`` pairs.

        Entries come out least-recently-used first, so replaying them
        through :meth:`import_state` reproduces the recency order.
        The warm hand-off to planner worker processes pickles this
        snapshot into the :class:`~repro.core.sharding.WorkerSpec`; the
        values themselves must therefore be picklable (skeleton trees
        and bound/choice pairs are — see ``tests/core/test_pickling.py``).
        """
        with self.lock:
            return tuple(self._entries.items())

    def import_state(
        self, pairs: Iterable[tuple[Hashable, object]]
    ) -> None:
        """Replay exported ``(key, value)`` pairs into this cache.

        Insertion goes through the normal store path, so capacity and
        the retention policy apply; importing more entries than fit
        simply evicts as usual.
        """
        for key, value in pairs:
            self._put(key, value)

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction counters (benchmark warmup)."""
        with self.lock:
            self.hits = self.misses = self.evictions = 0
            self.policy.reset_stats()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def describe(self) -> str:
        return (
            f"{self.name}: {len(self)}/{self.capacity} entries "
            f"({self.policy.name} retention), "
            f"{self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.0%}), {self.evictions} evictions"
        )


class PlanCache(_LruStats):
    """A bounded LRU of optimized plans (the exact-match level).

    Values are ``(bound_query, plan_choice)`` pairs: the bound query is
    needed downstream for logging and template bookkeeping, and binding
    is part of the work the cache amortizes.
    """

    def __init__(
        self, capacity: int = 256, *, policy: RetentionPolicy | None = None
    ) -> None:
        super().__init__(capacity, "plan cache", policy=policy)

    def lookup(self, key: Hashable) -> tuple["BoundQuery", "PlanChoice"] | None:
        return self._get(key)  # type: ignore[return-value]

    def store(
        self,
        key: Hashable,
        bound: "BoundQuery",
        choice: "PlanChoice",
        *,
        template: Hashable | None = None,
        cost_s: float = 0.0,
    ) -> None:
        self._put(key, (bound, choice), template=template, cost_s=cost_s)


class BindingCache(_LruStats):
    """A bounded LRU of bound queries keyed on normalized SQL.

    Binding is constraint-independent, so one entry serves every
    constraint a query is planned under — and because the optimizer's
    DAG-planning memo and the estimator's timing cache key on object
    identity, reusing the *same* :class:`BoundQuery` across constraints
    transitively shares physical planning and pipeline timings too.
    """

    def __init__(
        self, capacity: int = 256, *, policy: RetentionPolicy | None = None
    ) -> None:
        super().__init__(capacity, "binding cache", policy=policy)

    def lookup(self, key: Hashable) -> "BoundQuery | None":
        return self._get(key)  # type: ignore[return-value]

    def store(
        self,
        key: Hashable,
        bound: "BoundQuery",
        *,
        template: Hashable | None = None,
        cost_s: float = 0.0,
    ) -> None:
        self._put(key, bound, template=template, cost_s=cost_s)


class SkeletonCache(_LruStats):
    """A bounded LRU of template plan skeletons (the parameterized level).

    Values are tuples of join-tree shapes — the DP winner plus its bushy
    variants, in the exact order the optimizer would generate them.
    Shapes reference only table names and join edges (no literals), so
    one entry serves every instantiation of the template.
    """

    def __init__(
        self, capacity: int = 256, *, policy: RetentionPolicy | None = None
    ) -> None:
        super().__init__(capacity, "skeleton cache", policy=policy)

    def lookup(self, key: Hashable) -> tuple["JoinTree | Leaf", ...] | None:
        return self._get(key)  # type: ignore[return-value]

    def store(
        self,
        key: Hashable,
        trees: tuple["JoinTree | Leaf", ...],
        *,
        template: Hashable | None = None,
        cost_s: float = 0.0,
    ) -> None:
        self._put(key, tuple(trees), template=template, cost_s=cost_s)
