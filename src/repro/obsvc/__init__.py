"""Fleet-scale cost observability for the cost-intelligent warehouse.

The paper frames cloud cost reduction as a continuous
measure-decide-act loop; this package is the **measure** leg.  Five
pieces, layered strictly below :mod:`repro.core` (nothing here imports
core at module scope, so the serving stack can import the registry
without cycles):

- :mod:`repro.obsvc.metrics` — the typed **metrics registry**.  Every
  metric the warehouse emits is declared once in
  :data:`~repro.obsvc.metrics.REGISTERED_METRICS`; emissions against
  undeclared names fail at runtime (``MetricNameError``) *and* at lint
  time (the ``metric-name`` analysis rule).  Owned counters and
  histograms capture serving events; **sourced** read-through
  views expose the subsystems that already keep authoritative state
  (the three plan-cache levels, admission verdicts, resilience stats,
  breakers, tuning, the journal) without double-counting.  All dollar
  metrics are integral :data:`~repro.util.units.LEDGER_SCALE` units.
  Each sourced row carries its reader over the warehouse's components.

- :mod:`repro.obsvc.views` — ``describe_health`` / ``describe_caches`` /
  ``observe``: read-only views over this registry, behind the
  warehouse's delegates of the same names.

- :mod:`repro.obsvc.collector` + :mod:`repro.obsvc.history` —
  **scheduled collection** into a **queryable cost history**.  A
  :class:`~repro.obsvc.collector.CollectionPolicy` (cadence by queries
  or *virtual* seconds, mirroring ``TuningPolicy``) drives
  :class:`~repro.obsvc.collector.SnapshotCollector` from the serving
  layer; each frozen :class:`~repro.obsvc.history.CostSnapshot` is
  committed through the ledger inside a ``CostSnapshotTaken`` record
  (journaled before the append to the picklable
  :class:`~repro.obsvc.history.CostHistoryStore`), and every checkpoint
  references the same objects — so the history is crash-consistent and,
  under a fixed seed, bitwise reproducible.

- :mod:`repro.obsvc.drilldown` — the **drill-down navigator**: spend
  decomposed tenant → template family → pipeline → operator, each
  level an exact integral partition of the one above (the warehouse
  apportions every served query's ledger units across its plan's
  operators by largest remainder, so leaves reconcile bitwise against
  :class:`~repro.core.ledger.TenantBill`).

- :mod:`repro.obsvc.export` — **exposition**: Prometheus text format
  and plain-JSON renderings of the registry and the history, unified
  behind ``warehouse.observe()``.

Invariants inherited from the serving core: virtual time only, seeded
randomness only, dollars as integral ledger units, locks held via
``with`` (the registry/history locks are innermost; the lock-order
sanitizer covers them), and journal writes only through the ledger.
"""

from repro.obsvc.collector import (
    CollectionError,
    CollectionPolicy,
    SnapshotCollector,
)
from repro.obsvc.drilldown import DrillDownNavigator, ReconciliationError
from repro.obsvc.export import history_json, prometheus_text, registry_json
from repro.obsvc.history import (
    CostHistoryStore,
    CostLeaf,
    CostSnapshot,
    TenantCostSlice,
)
from repro.obsvc.metrics import (
    LATENCY_BUCKETS,
    REGISTERED_METRICS,
    MetricNameError,
    MetricSpec,
    MetricsRegistry,
    Sample,
)

__all__ = [
    "CollectionError",
    "CollectionPolicy",
    "SnapshotCollector",
    "DrillDownNavigator",
    "ReconciliationError",
    "history_json",
    "prometheus_text",
    "registry_json",
    "CostHistoryStore",
    "CostLeaf",
    "CostSnapshot",
    "TenantCostSlice",
    "LATENCY_BUCKETS",
    "REGISTERED_METRICS",
    "MetricNameError",
    "MetricSpec",
    "MetricsRegistry",
    "Sample",
]
