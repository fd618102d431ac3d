"""Exporters and the unified ``warehouse.observe()`` entry point."""

from __future__ import annotations

import json

import pytest

from tests.obsvc.conftest import run_workload
from repro.core.warehouse import CostIntelligentWarehouse
from repro.errors import ReproError
from repro.obsvc.export import history_json, prometheus_text, registry_json
from repro.obsvc.metrics import MetricsRegistry


@pytest.fixture(scope="module")
def observed(catalog):
    warehouse = CostIntelligentWarehouse(catalog=catalog)
    warehouse.enable_collection(cadence_queries=2)
    run_workload(warehouse, count=6)
    return warehouse


# --------------------------------------------------------------------- #
# Prometheus text format
# --------------------------------------------------------------------- #
def test_prometheus_text_structure(observed):
    text = prometheus_text(observed.metrics)
    lines = text.splitlines()
    assert text.endswith("\n")
    # one HELP/TYPE preamble per exposed metric, before its samples
    assert lines.count("# TYPE repro_queries_served_total gauge") == 1
    assert 'repro_queries_served_total{tenant="acme"} 3' in lines
    assert 'repro_queries_served_total{tenant="bolt"} 3' in lines
    # sourced views expose as gauges
    assert "# TYPE repro_virtual_clock_seconds gauge" in lines
    assert "repro_cost_snapshots_total 3" in lines
    # histograms expand to cumulative buckets + sum + count
    bucket_lines = [
        line
        for line in lines
        if line.startswith("repro_query_latency_seconds_bucket")
    ]
    assert any('le="+Inf"' in line for line in bucket_lines)
    assert any(
        line.startswith('repro_query_latency_seconds_count{tenant="acme"} 3')
        for line in lines
    )


def test_prometheus_escapes_label_values():
    registry = MetricsRegistry()
    registry.counter(
        "repro_queries_failed_total", tenant='we"ird\\ten\nant'
    )
    text = prometheus_text(registry)
    assert '\\"' in text and "\\\\" in text and "\\n" in text


def test_empty_registry_renders_empty():
    assert prometheus_text(MetricsRegistry()) == ""


# --------------------------------------------------------------------- #
# JSON forms
# --------------------------------------------------------------------- #
def test_registry_json_round_trips_through_json(observed):
    image = registry_json(observed.metrics)
    clone = json.loads(json.dumps(image))
    entry = clone["repro_queries_served_total"]
    assert entry["kind"] == "source"
    served = {
        sample["labels"]["tenant"]: sample["value"]
        for sample in entry["samples"]
    }
    assert served == {"acme": 3, "bolt": 3}
    hist = clone["repro_query_latency_seconds"]["samples"][0]["value"]
    assert hist["buckets"][-1][0] == "+Inf"
    assert hist["count"] == 3


def test_history_json_nests_drilldown_leaves(observed):
    image = history_json(observed.cost_history)
    assert image["tenants"] == ["acme", "bolt"]
    assert [s["seq"] for s in image["snapshots"]] == [1, 2, 3]
    final = image["snapshots"][-1]
    for entry in final["tenants"]:
        assert entry["total_units"] == sum(
            leaf["units"] for leaf in entry["leaves"]
        )
    json.dumps(image)  # plain data throughout


# --------------------------------------------------------------------- #
# warehouse.observe()
# --------------------------------------------------------------------- #
def test_observe_dict_is_the_unified_view(observed):
    view = observed.observe()
    assert set(view) == {"health", "caches", "metrics", "cost_history"}
    assert view["health"] == observed.describe_health()
    assert view["caches"] == observed.describe_caches()
    assert (
        view["cost_history"]["snapshots"][-1]["tenants"][0]["tenant"]
        == "acme"
    )


def test_observe_json_and_prometheus_formats(observed):
    parsed = json.loads(observed.observe("json"))
    assert "metrics" in parsed and "cost_history" in parsed
    text = observed.observe("prometheus")
    assert text.startswith("# HELP")
    with pytest.raises(ReproError):
        observed.observe("xml")
