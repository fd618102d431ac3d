"""Typed metrics registry: the single declaration point for every
metric the warehouse emits.

Two kinds of instruments live here:

- **Owned** counters / histograms, incremented by the serving
  path at event time (a query finalizing, an admission denial, a cost
  snapshot landing).  All dollar-valued owned metrics accumulate in
  integral :data:`~repro.util.units.LEDGER_SCALE` units — never float
  dollars — so identical seeded runs produce bit-identical values.
- **Sourced** read-through views over subsystems that already keep
  authoritative, recovery-participating state (cache counters,
  admission verdicts, resilience stats, breakers, tuning, the
  journal).  A sourced metric's row carries its ``read``: a function of
  the warehouse returning a scalar (label-less metrics) or a
  ``{label-values-tuple: value}`` mapping, bound by the one loop in
  :class:`MetricsRegistry`'s constructor; nothing is double-counted and
  the hot cache paths keep their existing integer stats.

Every emission must name a metric declared in
:data:`REGISTERED_METRICS` — the ``metric-name`` shape check in
``tests/analysis`` enforces this statically, and the registry enforces
it at runtime by raising :class:`MetricNameError`.
``reset()`` zeroes only owned instruments; sourced views follow their
underlying subsystem's own reset (``warehouse.reset_cache_stats``
calls both).  The registry lock is always innermost (acquired under
the serving lock, never the reverse), keeping the lock-order
sanitizer's graph acyclic.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro.errors import ReproError
from repro.util.units import to_ledger_units

__all__ = [
    "BREAKER_STATE_CODES",
    "LATENCY_BUCKETS",
    "REGISTERED_METRICS",
    "TIMING_CACHE_KINDS",
    "MetricNameError",
    "MetricSpec",
    "MetricsRegistry",
    "Sample",
]


class MetricNameError(ReproError):
    """A metric was emitted under a name absent from the registry."""


#: Histogram bucket upper bounds (seconds) for modeled query latency.
LATENCY_BUCKETS: tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)


@dataclass(frozen=True)
class MetricSpec:
    """Declaration of one metric: kind, help text, and label names."""

    kind: str  # "counter" | "histogram" | "source"
    help: str
    labels: tuple[str, ...] = ()
    buckets: tuple[float, ...] = field(default=())
    #: ``kind="source"`` only: the provider, a function of the warehouse.
    read: Callable | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("counter", "histogram", "source"):
            raise MetricNameError(f"unknown metric kind {self.kind!r}")
        if self.kind == "histogram" and not self.buckets:
            raise MetricNameError("histogram metrics must declare buckets")
        if (self.kind == "source") != (self.read is not None):
            raise MetricNameError("exactly the source metrics declare a read")


# --------------------------------------------------------------------- #
# Readers: what a sourced row's ``read`` is built from
# --------------------------------------------------------------------- #
#: The estimator memos reported as ``kind`` under the
#: ``repro_timing_cache_*`` metrics and in ``describe_caches()``.
TIMING_CACHE_KINDS = ("timing", "curve", "plan", "simulation")

#: Breaker state -> numeric code for the ``repro_breaker_state`` gauge
#: (Prometheus samples are numbers; ``describe_health`` maps back).
BREAKER_STATE_CODES = {"closed": 0, "half_open": 1, "open": 2}


def _optional(component: str, read: Callable, absent=0) -> Callable:
    """A reader over a component the warehouse only has once it is
    asked for (``_tuning``, ``journal``, ``worker_pool``): ``absent``
    until then."""

    def reader(warehouse):
        part = getattr(warehouse, component)
        return absent if part is None else read(part)

    return reader


def _per_cache(read: Callable) -> Callable:
    return lambda warehouse: {
        (name,): read(cache) for name, cache in warehouse.planning.levels()
    }


def _per_memo(field_name: str) -> Callable:
    def reader(warehouse) -> dict:
        stats = warehouse.estimator.models.cache.stats
        return {
            (kind,): getattr(stats, f"{kind}_{field_name}")
            for kind in TIMING_CACHE_KINDS
        }

    return reader


_tuning_breaker = _optional("_tuning", lambda tuning: tuning.breaker, absent=None)


def _per_breaker(read: Callable) -> Callable:
    def reader(warehouse) -> dict:
        breakers = {
            "statsvc": warehouse.statsvc_breaker,
            "tuning": _tuning_breaker(warehouse),
        }
        return {
            (name,): read(breaker.snapshot())
            for name, breaker in breakers.items()
            if breaker is not None
        }

    return reader


def _billing_units(warehouse) -> dict:
    values = {}
    for tenant, bill in sorted(warehouse.billing.items()):
        values[(tenant, "serving")] = bill.serving_units
        values[(tenant, "background")] = bill.background_units
        values[(tenant, "retry")] = bill.retry_units
    return values


def _background_units(warehouse) -> dict:
    return {
        (tenant,): bill.background_units
        for tenant, bill in sorted(warehouse.billing.items())
        if bill.background_units
    }


def _admission_verdicts(warehouse) -> dict:
    return {
        (tenant, verdict): count
        for tenant, counts in warehouse.admission.verdict_counts.items()
        for verdict, count in counts.items()
    }


def _estimated_savings(tuning) -> int:
    return sum(
        to_ledger_units(rec.report.net_per_hour)
        for rec in tuning.applied_recommendations
    )


#: The canonical metric catalogue.  Adding a metric means adding a row
#: here — the ``metric-name`` lint rule rejects any emission whose
#: name is not a key of this dict (or is not a string literal).
REGISTERED_METRICS: dict[str, MetricSpec] = {
    # -- serving events (owned; incremented by Session._finalize etc.) --
    "repro_queries_served_total": MetricSpec(
        "counter", "Queries served to completion, by tenant.", ("tenant",)
    ),
    "repro_queries_failed_total": MetricSpec(
        "counter", "Queries that failed during serving, by tenant.", ("tenant",)
    ),
    "repro_queries_denied_total": MetricSpec(
        "counter", "Queries refused by admission control, by tenant.", ("tenant",)
    ),
    "repro_query_latency_seconds": MetricSpec(
        "histogram",
        "Modeled end-to-end query latency (virtual seconds).",
        ("tenant",),
        buckets=LATENCY_BUCKETS,
    ),
    "repro_serving_cost_ledger_units": MetricSpec(
        "counter",
        "Serving spend metered at finalize time, in integral ledger units.",
        ("tenant",),
    ),
    "repro_cost_snapshots_total": MetricSpec(
        "counter", "Cost snapshots appended to the history store."
    ),
    # -- billing (sourced from TenantBill ledgers) ----------------------
    "repro_tenant_cost_ledger_units": MetricSpec(
        "source",
        "Authoritative per-tenant spend in ledger units, by component "
        "(serving / background / retry).",
        ("tenant", "component"),
        read=_billing_units,
    ),
    # -- plan caches (sourced from the caches' own counters) ------------
    "repro_cache_entries": MetricSpec(
        "source", "Live entries per plan-cache level.", ("cache",),
        read=_per_cache(len),
    ),
    "repro_cache_capacity": MetricSpec(
        "source", "Configured capacity per plan-cache level.", ("cache",),
        read=_per_cache(lambda cache: cache.capacity),
    ),
    "repro_cache_hits_total": MetricSpec(
        "source", "Cache hits per plan-cache level.", ("cache",),
        read=_per_cache(lambda cache: cache.hits),
    ),
    "repro_cache_misses_total": MetricSpec(
        "source", "Cache misses per plan-cache level.", ("cache",),
        read=_per_cache(lambda cache: cache.misses),
    ),
    "repro_cache_evictions_total": MetricSpec(
        "source", "Capacity evictions per plan-cache level.", ("cache",),
        read=_per_cache(lambda cache: cache.evictions),
    ),
    "repro_timing_cache_hits_total": MetricSpec(
        "source",
        "Estimator memo hits (per-DOP timing / compiled curve / DOP plan / "
        "simulated execution).",
        ("kind",),
        read=_per_memo("hits"),
    ),
    "repro_timing_cache_computations_total": MetricSpec(
        "source",
        "Estimator memo computations (per-DOP timing / compiled curve / DOP plan / "
        "simulated execution).",
        ("kind",),
        read=_per_memo("computations"),
    ),
    # -- admission (sourced from AdmissionController) -------------------
    "repro_admission_verdicts_total": MetricSpec(
        "source", "Admission verdicts by tenant and verdict.", ("tenant", "verdict"),
        read=_admission_verdicts,
    ),
    # -- resilience (sourced from ResilienceStats / breakers) -----------
    "repro_retries_total": MetricSpec(
        "source", "Transient-failure retries across all serving stages.",
        read=lambda w: w.resilience_stats.retries,
    ),
    "repro_retry_cost_ledger_units": MetricSpec(
        "source", "Retry spend in integral ledger units.",
        read=lambda w: w.resilience_stats.retry_units,
    ),
    "repro_deadline_hits_total": MetricSpec(
        "source", "Per-request or per-stage deadline expirations.",
        read=lambda w: w.resilience_stats.deadline_hits,
    ),
    "repro_degraded_queries_total": MetricSpec(
        "source", "Queries served via the degraded-mode plan path.",
        read=lambda w: w.resilience_stats.degraded_queries,
    ),
    "repro_breaker_state": MetricSpec(
        "source",
        "Circuit-breaker state (0=closed, 1=half_open, 2=open).",
        ("breaker",),
        read=_per_breaker(lambda snap: BREAKER_STATE_CODES[snap["state"]]),
    ),
    "repro_breaker_opens_total": MetricSpec(
        "source", "Times each circuit breaker has opened.", ("breaker",),
        read=_per_breaker(lambda snap: snap["opens"]),
    ),
    "repro_breaker_consecutive_failures": MetricSpec(
        "source", "Current consecutive-failure count per breaker.", ("breaker",),
        read=_per_breaker(lambda snap: snap["consecutive_failures"]),
    ),
    # -- tuning (sourced from TuningService, 0 until materialized) ------
    "repro_tuning_cycles_total": MetricSpec(
        "source", "Background tuning cycles run this process.",
        read=_optional("_tuning", lambda tuning: tuning.cycles_run),
    ),
    "repro_tuning_consecutive_failures": MetricSpec(
        "source", "Consecutive swallowed tuning-cycle failures.",
        read=_optional("_tuning", lambda tuning: tuning.consecutive_failures),
    ),
    "repro_background_cost_ledger_units": MetricSpec(
        "source",
        "Background tuning spend billed per tenant, in ledger units.",
        ("tenant",),
        read=_background_units,
    ),
    "repro_tuning_estimated_savings_ledger_units_per_hour": MetricSpec(
        "source",
        "Estimated net savings rate of currently applied recommendations, "
        "in ledger units per hour.",
        read=_optional("_tuning", _estimated_savings),
    ),
    # -- journal / durability (sourced from the WAL) --------------------
    "repro_journal_records_total": MetricSpec(
        "source", "Entries in the write-ahead journal (0 when detached).",
        read=_optional("journal", len),
    ),
    "repro_journal_records_since_checkpoint": MetricSpec(
        "source", "Journal entries appended since the last checkpoint.",
        read=_optional("journal", lambda journal: journal.records_since_checkpoint),
    ),
    "repro_journal_last_checkpoint_id": MetricSpec(
        "source", "Id of the most recent inline checkpoint (0 when none).",
        read=_optional("journal", lambda journal: journal.last_checkpoint_id or 0),
    ),
    # -- serving state (sourced from the warehouse) ---------------------
    "repro_virtual_clock_seconds": MetricSpec(
        "source", "The warehouse's virtual serving clock.",
        read=lambda w: w.clock,
    ),
    "repro_queries_logged_total": MetricSpec(
        "source", "Records in the statistics-service query log.",
        read=lambda w: len(w.logs),
    ),
    # -- process-sharded serving (sourced from PlannerWorkerPool, 0 /
    #    empty until enable_sharding; IPC histogram owned) --------------
    "repro_worker_pool_size": MetricSpec(
        "source", "Planner worker processes in the active pool.",
        read=_optional("worker_pool", lambda pool: pool.size),
    ),
    "repro_worker_restarts_total": MetricSpec(
        "source", "Planner workers restarted warm after a crash or hang.",
        read=_optional("worker_pool", lambda pool: pool.restarts),
    ),
    "repro_worker_restaged_tasks_total": MetricSpec(
        "source", "In-flight tasks re-sent to a restarted planner worker.",
        read=_optional("worker_pool", lambda pool: pool.restaged_tasks),
    ),
    "repro_worker_warm_task_hits_total": MetricSpec(
        "source",
        "Tasks served from a worker's warm private cache, by level "
        "(skeleton).",
        ("level",),
        read=_optional("worker_pool", lambda pool: pool.warm_hits, absent={}),
    ),
    "repro_worker_ipc_roundtrip_seconds": MetricSpec(
        "histogram",
        "Wall time from task send to result receipt (queue wait included).",
        buckets=(0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
                 0.5, 1.0, 2.5, 5.0),
    ),
}


@dataclass(frozen=True)
class Sample:
    """One collected metric value.

    ``labels`` is a sorted tuple of ``(name, value)`` pairs; ``value``
    is a number for scalar kinds and, for histograms, a dict with
    ``buckets`` (cumulative ``(le, count)`` pairs), ``sum`` and
    ``count``.
    """

    name: str
    kind: str
    labels: tuple[tuple[str, str], ...]
    value: object
    help: str


class _Histogram:
    """Fixed-bucket histogram; observation order is deterministic
    because every observe happens under the serving lock."""

    __slots__ = ("buckets", "counts", "total", "count")

    def __init__(self, buckets: tuple[float, ...]) -> None:
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # +1 for +Inf
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        self.total += value
        self.count += 1

    def snapshot(self) -> dict:
        cumulative = []
        running = 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            cumulative.append((bound, running))
        cumulative.append((float("inf"), self.count))
        return {
            "buckets": tuple(cumulative),
            "sum": self.total,
            "count": self.count,
        }


class MetricsRegistry:
    """Owned instruments + sourced views behind one declared namespace.

    Given a ``warehouse``, every sourced row is bound to it; without
    one, sources are whatever :meth:`source` registers.
    All mutation happens under a single internal lock (always acquired
    via ``with``, always innermost relative to the serving lock).
    ``collect()`` returns a deterministically ordered sample list; the
    exporters in :mod:`repro.obsvc.export` render it.
    """

    def __init__(self, warehouse=None) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, tuple[str, ...]], int] = {}
        self._histograms: dict[tuple[str, tuple[str, ...]], _Histogram] = {}
        self._sources: dict[str, object] = {}  # name -> provider callable
        if warehouse is not None:
            # Every sourced row reads through to the warehouse's own
            # state: the caches keep their integer stats,
            # admission its journaled verdict counters, resilience its
            # ledger-unit tallies, so nothing on a hot path pays for
            # observability twice.
            for name, spec in REGISTERED_METRICS.items():
                if spec.read is not None:
                    self.source(name, partial(spec.read, warehouse))

    # -- declaration enforcement ---------------------------------------- #
    @staticmethod
    def _spec(name: str, kind: str) -> MetricSpec:
        spec = REGISTERED_METRICS.get(name)
        if spec is None:
            raise MetricNameError(
                f"metric {name!r} is not declared in REGISTERED_METRICS"
            )
        if spec.kind != kind:
            raise MetricNameError(
                f"metric {name!r} is declared as {spec.kind!r}, emitted as {kind!r}"
            )
        return spec

    @staticmethod
    def _label_values(spec: MetricSpec, name: str, labels: dict) -> tuple[str, ...]:
        if set(labels) != set(spec.labels):
            raise MetricNameError(
                f"metric {name!r} expects labels {spec.labels!r}, "
                f"got {tuple(sorted(labels))!r}"
            )
        return tuple(str(labels[key]) for key in spec.labels)

    # -- owned instruments ---------------------------------------------- #
    def counter(self, name: str, amount: int = 1, **labels: str) -> None:
        """Increment an owned counter (integral amounts only)."""
        spec = self._spec(name, "counter")
        values = self._label_values(spec, name, labels)
        if not isinstance(amount, int) or amount < 0:
            raise MetricNameError(
                f"counter {name!r} takes a non-negative int, got {amount!r}"
            )
        with self._lock:
            key = (name, values)
            self._counters[key] = self._counters.get(key, 0) + amount

    def histogram(self, name: str, value: float, **labels: str) -> None:
        """Observe one value into an owned fixed-bucket histogram."""
        spec = self._spec(name, "histogram")
        values = self._label_values(spec, name, labels)
        with self._lock:
            key = (name, values)
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = _Histogram(spec.buckets)
            hist.observe(value)

    # -- sourced views --------------------------------------------------- #
    def source(self, name: str, provider) -> None:
        """Register the read-through provider for a sourced metric.

        ``provider`` takes no arguments and returns a number (when the
        spec has no labels) or a ``{label-values-tuple: number}``
        mapping (one entry per live label combination).
        """
        self._spec(name, "source")
        with self._lock:
            self._sources[name] = provider

    # -- reads ----------------------------------------------------------- #
    def value(self, name: str, **labels: str):
        """Current value of one metric (0 when never emitted)."""
        spec = REGISTERED_METRICS.get(name)
        if spec is None:
            raise MetricNameError(
                f"metric {name!r} is not declared in REGISTERED_METRICS"
            )
        values = self._label_values(spec, name, labels)
        if spec.kind == "counter":
            with self._lock:
                return self._counters.get((name, values), 0)
        if spec.kind == "histogram":
            with self._lock:
                hist = self._histograms.get((name, values))
                return hist.snapshot() if hist is not None else None
        with self._lock:
            provider = self._sources.get(name)
        if provider is None:
            return 0
        produced = provider()
        if spec.labels:
            return produced.get(values, 0)
        return produced

    def sourced(self, name: str) -> dict:
        """Full ``{label-values-tuple: value}`` mapping of one source."""
        spec = self._spec(name, "source")
        with self._lock:
            provider = self._sources.get(name)
        if provider is None:
            return {}
        produced = provider()
        if not spec.labels:
            return {(): produced}
        return dict(produced)

    def collect(self) -> list[Sample]:
        """Every live sample, deterministically ordered by name/labels."""
        samples: list[Sample] = []
        with self._lock:
            counters = dict(self._counters)
            histograms = {
                key: hist.snapshot() for key, hist in self._histograms.items()
            }
            sources = dict(self._sources)
        for (name, values), count in counters.items():
            samples.append(self._sample(name, values, count))
        for (name, values), snap in histograms.items():
            samples.append(self._sample(name, values, snap))
        for name, provider in sources.items():
            spec = REGISTERED_METRICS[name]
            produced = provider()
            if not spec.labels:
                samples.append(self._sample(name, (), produced))
                continue
            for values, value in produced.items():
                samples.append(self._sample(name, tuple(values), value))
        samples.sort(key=lambda s: (s.name, s.labels))
        return samples

    @staticmethod
    def _sample(name: str, values: tuple[str, ...], value) -> Sample:
        spec = REGISTERED_METRICS[name]
        return Sample(
            name=name,
            kind=spec.kind,
            labels=tuple(zip(spec.labels, values)),
            value=value,
            help=spec.help,
        )

    # -- lifecycle -------------------------------------------------------- #
    def reset(self) -> None:
        """Zero every owned instrument; sourced views are untouched
        (their owners reset their own state)."""
        with self._lock:
            self._counters.clear()
            self._histograms.clear()
