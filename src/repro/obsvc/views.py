"""The warehouse's health, cache and unified observability views.

Plain functions of the warehouse's components, behind the one-line
``describe_health`` / ``describe_caches`` / ``observe`` delegates on
:class:`~repro.core.warehouse.CostIntelligentWarehouse`.  Every counter
they report is a **read-only view over the metrics registry**
(:mod:`repro.obsvc.metrics`): the registry's sourced rows are the single
path to the underlying subsystems, so these dicts, the Prometheus
exposition and the JSON export can never disagree.
"""

from __future__ import annotations

import json

from repro.errors import ReproError
from repro.obsvc.export import history_json, prometheus_text, registry_json
from repro.obsvc.metrics import BREAKER_STATE_CODES, PROCESS_MEMOS, TIMING_CACHE_KINDS
from repro.util.units import from_ledger_units

__all__ = ["describe_caches", "describe_health", "observe"]

_BREAKER_STATE_NAMES = {code: name for name, code in BREAKER_STATE_CODES.items()}


def describe_health(warehouse) -> dict:
    """Failure-domain observability, alongside :func:`describe_caches`.

    Reports the resilience counters (retries and retry dollars, as
    billed; deadline hits and degraded outcomes, as counted by this
    process), the journal and the last recovery pass,
    both circuit breakers (``statsvc`` and ``tuning``), the tuning
    service's last swallowed error and consecutive-failure count, and
    the active fault plan's fired tallies (empty outside chaos testing).
    """
    metrics = warehouse.metrics
    spend = metrics.sourced("repro_tenant_cost_ledger_units")
    resilience = {
        "retries": metrics.value("repro_retries_total"),
        "retry_dollars": from_ledger_units(
            sum(units for (_, part), units in spend.items() if part == "retry")
        ),
        "deadline_hits": metrics.value("repro_deadline_hits_total"),
        "degraded_queries": metrics.value("repro_degraded_queries_total"),
    }
    failures = metrics.sourced("repro_breaker_consecutive_failures")
    tuning_service = warehouse._tuning
    last_error = tuning_service.last_error if tuning_service is not None else None
    tuning = {
        "cycles_run": metrics.value("repro_tuning_cycles_total"),
        "consecutive_failures": failures.get(("tuning",), 0),
        "last_error": (
            f"{type(last_error).__name__}: {last_error}"
            if last_error is not None
            else None
        ),
    }
    states = metrics.sourced("repro_breaker_state")
    opens = metrics.sourced("repro_breaker_opens_total")
    breakers = {
        name: {
            "state": _BREAKER_STATE_NAMES[states.get((name,), 0)],
            "consecutive_failures": failures.get((name,), 0),
            "opens": opens.get((name,), 0),
        }
        for name in ("statsvc", "tuning")
    }
    journal = warehouse.journal
    recovery = warehouse.last_recovery
    durability = {
        "journaled": journal is not None,
        "journal_records": metrics.value("repro_journal_records_total"),
        "last_checkpoint_id": (
            journal.last_checkpoint_id if journal is not None else None
        ),
        "records_since_checkpoint": metrics.value(
            "repro_journal_records_since_checkpoint"
        ),
        "recovered": recovery is not None,
        "records_replayed": recovery.records_replayed if recovery is not None else 0,
        "in_doubt_forward": recovery.in_doubt_forward if recovery is not None else 0,
        "in_doubt_back": recovery.in_doubt_back if recovery is not None else 0,
    }
    faults = warehouse.faults
    return {
        "resilience": resilience,
        "durability": durability,
        "breakers": breakers,
        "tuning": tuning,
        "faults": {
            "active": faults is not None,
            "fired": faults.fired if faults is not None else {},
        },
    }


def describe_caches(warehouse) -> dict[str, dict]:
    """Hit-rate and governance observability across serving caches.

    Reports the exact plan cache, the template skeleton cache, and the
    estimator's memos (per-DOP timings and compiled curves), plus, per
    cache, its retention
    (``"lru"`` or ``"cost-aware"``), and an ``admission`` block with
    the verdicts counted on each tenant's bill, zero counts omitted
    (empty until a tenant budget is configured).  Only the retention *name* (a string, not a metric) is
    read off the cache directly.  ``process_memos`` reports the
    process-wide memos (:data:`~repro.obsvc.metrics.PROCESS_MEMOS`),
    whose counts cover every warehouse in the interpreter.
    """
    metrics = warehouse.metrics
    entries = metrics.sourced("repro_cache_entries")
    capacity = metrics.sourced("repro_cache_capacity")
    hits = metrics.sourced("repro_cache_hits_total")
    misses = metrics.sourced("repro_cache_misses_total")
    evictions = metrics.sourced("repro_cache_evictions_total")
    report: dict[str, dict] = {}
    for name, cache in warehouse.planning.levels():
        cache_hits = hits.get((name,), 0)
        lookups = cache_hits + misses.get((name,), 0)
        report[f"{name}_cache"] = {
            "entries": entries.get((name,), 0),
            "capacity": capacity.get((name,), 0),
            "hits": cache_hits,
            "misses": misses.get((name,), 0),
            "evictions": evictions.get((name,), 0),
            "hit_rate": cache_hits / lookups if lookups else 0.0,
            "policy": cache.retention,
        }
    verdicts: dict[str, dict[str, int]] = {}
    for (tenant, verdict), count in sorted(
        metrics.sourced("repro_admission_verdicts_total").items()
    ):
        verdicts.setdefault(tenant, {})[verdict] = count
    report["admission"] = verdicts
    memo_hits = metrics.sourced("repro_timing_cache_hits_total")
    computations = metrics.sourced("repro_timing_cache_computations_total")
    block: dict[str, float] = {}
    for kind in TIMING_CACHE_KINDS:
        kind_hits = memo_hits.get((kind,), 0)
        total = kind_hits + computations.get((kind,), 0)
        block[f"{kind}_hits"] = kind_hits
        block[f"{kind}_computations"] = computations.get((kind,), 0)
        block[f"{kind}_hit_rate"] = kind_hits / total if total else 0.0
    report["timing_cache"] = block
    process_hits = metrics.sourced("repro_process_memo_hits_total")
    process_misses = metrics.sourced("repro_process_memo_misses_total")
    process_entries = metrics.sourced("repro_process_memo_entries")
    process_capacity = metrics.sourced("repro_process_memo_capacity")
    memos: dict[str, dict] = {}
    for name in PROCESS_MEMOS:
        hits, misses = process_hits.get((name,), 0), process_misses.get((name,), 0)
        memos[name] = {
            "entries": process_entries.get((name,), 0),
            "capacity": process_capacity.get((name,), 0),
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        }
    report["process_memos"] = memos
    return report


def observe(warehouse, format: str = "dict"):
    """Unified observability entry point.

    ``format="dict"`` (default) returns health + cache views, the full
    metrics registry, and the collected cost history as plain data;
    ``"json"`` returns the same serialized; ``"prometheus"`` returns the
    registry in the Prometheus text exposition format.
    """
    if format == "prometheus":
        return prometheus_text(warehouse.metrics)
    data = {
        "health": describe_health(warehouse),
        "caches": describe_caches(warehouse),
        "metrics": registry_json(warehouse.metrics),
        "cost_history": history_json(warehouse.cost_history),
    }
    if format == "json":
        return json.dumps(data, indent=2, sort_keys=True, default=str)
    if format != "dict":
        raise ReproError(f"unknown observe() format {format!r}")
    return data
