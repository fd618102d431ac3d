"""Workload substrate: data generation, templates, ad-hoc."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.adhoc import AdhocQueryGenerator
from repro.workloads.tpch_data import generate_tpch
from repro.workloads.tpch_queries import QUERY_TEMPLATES, instantiate
from repro.workloads.tpch_schema import BASE_ROW_COUNTS, TPCH_SCHEMAS
from repro.workloads.tpch_stats import synthetic_tpch_catalog


def test_generation_deterministic():
    a = generate_tpch(scale_factor=0.002, seed=9)
    b = generate_tpch(scale_factor=0.002, seed=9)
    assert np.array_equal(a["lineitem"]["l_quantity"], b["lineitem"]["l_quantity"])


def test_generation_row_counts_scale():
    data = generate_tpch(scale_factor=0.002)
    assert len(data["orders"]["o_orderkey"]) == round(
        BASE_ROW_COUNTS["orders"] * 0.002
    )
    assert len(data["region"]["r_regionkey"]) == 5  # fixed tables don't scale


def test_generation_referential_domains():
    data = generate_tpch(scale_factor=0.002)
    n_orders = len(data["orders"]["o_orderkey"])
    assert data["lineitem"]["l_orderkey"].max() < n_orders
    n_nation = len(data["nation"]["n_nationkey"])
    assert data["customer"]["c_nationkey"].max() < n_nation


def test_generation_value_domains():
    data = generate_tpch(scale_factor=0.002)
    li = data["lineitem"]
    assert li["l_discount"].min() >= 0.0 and li["l_discount"].max() <= 0.1
    assert li["l_quantity"].min() >= 1 and li["l_quantity"].max() <= 50
    assert (li["l_receiptdate"] > li["l_shipdate"]).all()


def test_invalid_scale_factor():
    with pytest.raises(WorkloadError):
        generate_tpch(scale_factor=0.0)


def test_all_templates_instantiate_distinctly():
    for name in QUERY_TEMPLATES:
        a = instantiate(name, seed=1)
        b = instantiate(name, seed=2)
        assert "SELECT" in a.upper()
        # Parameterized templates vary across seeds (same shape).
        assert a.split("WHERE")[0] == b.split("WHERE")[0]


def test_unknown_template():
    with pytest.raises(WorkloadError):
        instantiate("q99")


def test_adhoc_generator_deterministic_and_varied():
    a = AdhocQueryGenerator(seed=5).batch(10)
    b = AdhocQueryGenerator(seed=5).batch(10)
    assert a == b
    assert len(set(a)) > 5  # queries vary


def test_synthetic_catalog_matches_generated_stats():
    catalog = synthetic_tpch_catalog(0.004)
    data = generate_tpch(scale_factor=0.004)
    for table in ("orders", "lineitem", "customer"):
        entry = catalog.table(table)
        assert entry.row_count == len(next(iter(data[table].values())))


def test_synthetic_catalog_clustering():
    catalog = synthetic_tpch_catalog(1.0, cluster_keys={"lineitem": "l_shipdate"})
    entry = catalog.table("lineitem")
    assert entry.schema.clustering_key == "l_shipdate"
    assert entry.clustering_depth < 0.05


def test_synthetic_catalog_all_schemas_present():
    catalog = synthetic_tpch_catalog(0.1)
    assert set(catalog.table_names) == set(TPCH_SCHEMAS)
