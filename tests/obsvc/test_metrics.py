"""Unit tests for the typed metrics registry (PR 9 tentpole)."""

from __future__ import annotations

import pytest

from repro.core.journal import AdmissionDecision
from repro.core.warehouse import CostIntelligentWarehouse
from repro.obsvc.metrics import (
    LATENCY_BUCKETS,
    REGISTERED_METRICS,
    MetricNameError,
    MetricSpec,
    MetricsRegistry,
)
from repro.workloads.tpch_stats import synthetic_tpch_catalog


def fresh_warehouse() -> CostIntelligentWarehouse:
    return CostIntelligentWarehouse(catalog=synthetic_tpch_catalog(1.0))


# --------------------------------------------------------------------- #
# Declaration enforcement
# --------------------------------------------------------------------- #
def test_undeclared_name_is_rejected_everywhere():
    registry = MetricsRegistry()
    with pytest.raises(MetricNameError):
        registry.counter("no_such_metric")
    with pytest.raises(MetricNameError):
        registry.counter("no_such_metric", 1)
    with pytest.raises(MetricNameError):
        registry.histogram("no_such_metric", 1.0)
    with pytest.raises(MetricNameError):
        registry.sourced("no_such_metric")
    with pytest.raises(MetricNameError):
        registry.value("no_such_metric")


def test_kind_mismatch_is_rejected():
    registry = MetricsRegistry()
    # declared histogram / source, emitted as counter
    with pytest.raises(MetricNameError):
        registry.counter("repro_query_latency_seconds", tenant="a")
    with pytest.raises(MetricNameError):
        registry.counter("repro_virtual_clock_seconds")
    with pytest.raises(MetricNameError):
        registry.counter("repro_queries_served_total", tenant="a")


def test_label_mismatch_is_rejected():
    registry = MetricsRegistry()
    with pytest.raises(MetricNameError):
        registry.counter("repro_queries_failed_total")  # missing tenant
    with pytest.raises(MetricNameError):
        registry.counter(
            "repro_queries_failed_total", tenant="a", extra="nope"
        )
    with pytest.raises(MetricNameError):
        registry.histogram("repro_worker_ipc_roundtrip_seconds", 0.1, tenant="a")


def test_counters_are_integral_and_non_negative():
    registry = MetricsRegistry()
    with pytest.raises(MetricNameError):
        registry.counter("repro_queries_failed_total", -1, tenant="a")
    with pytest.raises(MetricNameError):
        registry.counter("repro_queries_failed_total", 0.5, tenant="a")


def test_spec_validation():
    with pytest.raises(MetricNameError):
        MetricSpec("exotic", "bad kind")
    with pytest.raises(MetricNameError):
        MetricSpec("histogram", "no buckets")
    # a sourced row is its own provider; no other kind has one
    with pytest.raises(MetricNameError):
        MetricSpec("source", "no read")
    with pytest.raises(MetricNameError):
        MetricSpec("counter", "with a read", read=lambda warehouse: 0)


def test_catalogue_is_well_formed():
    for name, spec in REGISTERED_METRICS.items():
        assert name.startswith("repro_"), name
        assert spec.help
        if spec.kind == "histogram":
            assert spec.buckets == tuple(sorted(spec.buckets))


def test_owned_rows_are_the_events_no_ledger_record_carries():
    """Everything a journal record carries is read from the ledger, so
    a recovered warehouse reports it; the registry owns an instrument
    only for an event no ledger record carries."""
    owned = {name for name, spec in REGISTERED_METRICS.items() if spec.kind != "source"}
    assert owned == {
        "repro_queries_failed_total",
        "repro_query_latency_seconds",
        "repro_worker_ipc_roundtrip_seconds",
    }


# --------------------------------------------------------------------- #
# Owned instruments
# --------------------------------------------------------------------- #
def test_counter_accumulates_per_label_set():
    registry = MetricsRegistry()
    registry.counter("repro_queries_failed_total", tenant="acme")
    registry.counter("repro_queries_failed_total", 2, tenant="acme")
    registry.counter("repro_queries_failed_total", tenant="bolt")
    assert registry.value("repro_queries_failed_total", tenant="acme") == 3
    assert registry.value("repro_queries_failed_total", tenant="bolt") == 1
    assert registry.value("repro_queries_failed_total", tenant="nobody") == 0


def test_histogram_snapshot_is_cumulative_with_inf():
    registry = MetricsRegistry()
    registry.histogram("repro_query_latency_seconds", 0.07, tenant="a")
    registry.histogram("repro_query_latency_seconds", 0.07, tenant="a")
    registry.histogram("repro_query_latency_seconds", 9999.0, tenant="a")
    snap = registry.value("repro_query_latency_seconds", tenant="a")
    buckets = dict(snap["buckets"])
    assert buckets[0.05] == 0
    assert buckets[0.1] == 2
    assert buckets[LATENCY_BUCKETS[-1]] == 2  # 9999 beyond every bound
    assert buckets[float("inf")] == 3
    assert snap["count"] == 3
    assert snap["sum"] == pytest.approx(0.07 * 2 + 9999.0)
    # never-observed label set reads as None
    assert registry.value("repro_query_latency_seconds", tenant="b") is None


# --------------------------------------------------------------------- #
# Sourced views
# --------------------------------------------------------------------- #
def test_scalar_source_and_defaults():
    registry = MetricsRegistry()
    assert registry.value("repro_virtual_clock_seconds") == 0
    assert registry.sourced("repro_virtual_clock_seconds") == {}
    warehouse = fresh_warehouse()
    warehouse.ledger.advance_clock(42.5)
    registry = MetricsRegistry(warehouse)
    assert registry.value("repro_virtual_clock_seconds") == 42.5
    assert registry.sourced("repro_virtual_clock_seconds") == {(): 42.5}


def test_labeled_source_lookup():
    """A sourced row reads its spec's ``read`` off the warehouse: the
    verdicts counted on the bills, zero counts omitted."""
    warehouse = fresh_warehouse()
    for tenant, verdict in (("a", "admit"), ("a", "admit"), ("b", "deny")):
        warehouse.ledger.commit(AdmissionDecision(tenant=tenant, verdict=verdict))
    registry = MetricsRegistry(warehouse)
    name = "repro_admission_verdicts_total"
    assert registry.value(name, tenant="a", verdict="admit") == 2
    assert registry.value(name, tenant="a", verdict="deny") == 0
    assert registry.sourced(name) == {("a", "admit"): 2, ("b", "deny"): 1}


def test_sourced_rejects_owned_kinds():
    registry = MetricsRegistry()
    with pytest.raises(MetricNameError):
        registry.sourced("repro_queries_failed_total")


# --------------------------------------------------------------------- #
# Collection
# --------------------------------------------------------------------- #
def test_collect_is_deterministically_ordered():
    def build():
        registry = MetricsRegistry(fresh_warehouse())
        registry.counter("repro_queries_failed_total", tenant="zeta")
        registry.counter("repro_queries_failed_total", tenant="alpha")
        registry.histogram("repro_worker_ipc_roundtrip_seconds", 0.004)
        return registry.collect()

    samples = build()
    assert samples == build()
    assert [(s.name, s.labels) for s in samples] == sorted(
        (s.name, s.labels) for s in samples
    )
