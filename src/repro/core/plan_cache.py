"""Serving-layer plan caches for the cost-intelligent warehouse.

Analytical traffic is dominated by recurring report templates — the same
SQL shapes resubmitted with *varying literals* under the same
constraints.  Re-running the bi-objective optimizer for each arrival
wastes exactly the machine time the paper's economics are about, so
planning work is memoized at two levels, walked in this order by the
one planning pipeline (:mod:`repro.core.planning`) — each is optional,
and a pipeline built without one simply skips it:

- **Exact level** (:class:`PlanCache`): the full
  :class:`~repro.core.bioptimizer.PlanChoice` keyed on the *normalized*
  SQL string (whitespace, letter case, and comments do not
  fragment the cache), the user constraint, and the catalog's stats
  version.  A verbatim resubmission pays nothing.
- **Skeleton level** (:class:`SkeletonCache`): the template's *plan
  skeleton* — the DP-chosen join tree plus its bushy variant shapes —
  keyed on the literal-free template key
  (:func:`~repro.sql.parameterize.parameterize_sql`), the constraint
  kind, and the stats version.  A resubmission with new literals skips
  join-order DP and bushy generation and re-runs only the literal fill
  of its bound template, cardinality re-estimation over the cached
  shapes, and the incremental DOP search — bit-identical to fresh
  optimization whenever the new literals would lead the DP to the same
  shapes (enforced on the workload suite by
  ``tests/cost/test_estimation_parity.py``).

Bound templates are not a level: the binder keeps them
(:class:`~repro.sql.binder.BindingCache`, re-exported here because the
end-to-end benchmark's trace probes its lookups as plan-cache time) and
uses them on every walk that misses the exact level.

The stats version inside every key is the invalidation story: any
catalog mutation (stats refresh, recluster, MV creation, table DDL)
bumps the version, so stale entries can never be served — they simply
stop matching and age out of the LRU.  ``invalidate()`` exists for
explicit flushes (e.g. hardware recalibration, which changes cost
without touching the catalog).

Retention
---------

Each level decides its own evictions.  Without a rate function it
evicts the least-recently-used entry, so the level is an exact LRU of
its stated capacity: which level answers a query (and so its dollars)
is a function of the traffic, never of ``hash()``.  Given one — the
warehouse passes the Statistics Service's forecast arrivals per hour,
:meth:`~repro.core.governance.TemplateFrequencyProvider.rate_for`, under
``retention_policy="cost-aware"`` — each entry keeps the
``(template, cost_s)`` it was stored with and scores ``rate(template) x
cost_s``: expected re-uses per hour times the planning seconds a re-use
saves.  The victim is the lowest score among the :data:`VICTIM_WINDOW`
least recently used entries; ties (the cold start, where no forecast
exists yet) and entries stored without metadata (score zero) leave
least recently used first, so with no signal the level is exact LRU
again.  Hot recurring templates thereby survive eviction pressure that
plain recency would age them out of.

Each level is one :class:`threading.Lock` over one ``OrderedDict``, the
per-entry scoring metadata and three integer counters; the rate
function is a lock-free read, called under that lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from itertools import islice
from typing import TYPE_CHECKING, Callable, Hashable, Iterable

from repro.sql.binder import BindingCache  # noqa: F401  (re-export)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.bioptimizer import PlanChoice
    from repro.optimizer.join_order import JoinTree, Leaf
    from repro.sql.binder import BoundQuery

#: How many entries, from the least recently used end, one cost-aware
#: eviction scores.  Victim selection runs under the cache lock on every
#: over-capacity store, so it must not scan the whole cache; 64 is what
#: one eviction scanned when a default 256-entry cache was four hash
#: partitions, and it measures the same.
VICTIM_WINDOW = 64
#: The smallest planning cost an entry is scored with, so a recorded
#: entry of a forecast template never ties an unrecorded one.
MIN_COST_S = 1e-6


class _LruStats:
    """One lock-guarded cache level with hit/miss/eviction counters.

    ``rate`` maps a template to its forecast arrivals per hour; without
    one the level is a plain LRU and keeps no scoring metadata.
    """

    name = "cache"

    def __init__(
        self,
        capacity: int = 256,
        *,
        rate: Callable[[Hashable], float] | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"{self.name} capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.rate = rate
        #: ``"cost-aware"`` when evictions are scored, else ``"lru"``.
        self.retention = "lru" if rate is None else "cost-aware"
        self.lock = threading.Lock()
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        #: key -> (template, planning seconds saved), for resident keys
        #: stored with a template; filled only under a rate function.
        self._meta: dict[Hashable, tuple[Hashable, float]] = {}
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
            if template is not None and self.rate is not None:
                # Metadata must land before victim selection: the entry
                # being stored competes in its own store's eviction, and
                # an unscored newcomer would evict itself against any
                # scored resident (and leak its metadata, recorded after
                # the fact for a key no longer present).
                self._meta[key] = (template, float(cost_s))
            while len(self._entries) > self.capacity:
                victim = self._victim()
                del self._entries[victim]
                self.evictions += 1
                self._meta.pop(victim, None)

    def _victim(self) -> Hashable:
        """The least recently used entry without a rate function; with
        one, the lowest-scoring of the :data:`VICTIM_WINDOW` least
        recently used entries (strict ``<`` over LRU -> MRU: ties leave
        least recently used first)."""
        rate, meta = self.rate, self._meta
        if rate is None:
            return next(iter(self._entries))
        best_key: Hashable = None
        best_score = float("inf")
        for key in islice(self._entries, VICTIM_WINDOW):
            recorded = meta.get(key)
            score = (
                0.0
                if recorded is None
                else rate(recorded[0]) * max(recorded[1], MIN_COST_S)
            )
            if score < best_score:
                best_key, best_score = key, score
        return best_key

    def invalidate(self) -> None:
        """Drop every cached entry (and its scoring metadata)."""
        with self.lock:
            self._entries.clear()
            self._meta.clear()

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
        retention apply; importing more entries than fit
        simply evicts as usual.
        """
        for key, value in pairs:
            self._put(key, value)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def describe(self) -> str:
        return (
            f"{self.name}: {len(self)}/{self.capacity} entries "
            f"({self.retention} retention), "
            f"{self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.0%}), {self.evictions} evictions"
        )


class PlanCache(_LruStats):
    """A bounded LRU of optimized plans (the exact-match level).

    Values are ``(bound_query, plan_choice)`` pairs: the bound query is
    needed downstream for logging and template bookkeeping, and binding
    is part of the work the cache amortizes.
    """

    name = "plan cache"

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


class SkeletonCache(_LruStats):
    """A bounded LRU of template plan skeletons (the parameterized level).

    Values are tuples of join-tree shapes — the DP winner plus its bushy
    variants, in the exact order the optimizer would generate them.
    Shapes reference only table names and join edges (no literals), so
    one entry serves every instantiation of the template.
    """

    name = "skeleton cache"

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
