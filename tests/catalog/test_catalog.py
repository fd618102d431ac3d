import numpy as np
import pytest

from repro.catalog.catalog import Catalog, MaterializedViewDef, TableEntry
from repro.catalog.schema import Column, DataType, TableSchema
from repro.catalog.statistics import build_table_stats
from repro.errors import CatalogError


def make_entry(name="t", rows=100):
    schema = TableSchema(name, (Column("a", DataType.INT64),))
    stats = build_table_stats(schema, {"a": np.arange(rows)})
    return TableEntry(schema=schema, stats=stats, storage_bytes=rows * 8)


def test_register_and_lookup():
    catalog = Catalog()
    catalog.register_table(make_entry())
    assert catalog.has_table("t")
    assert catalog.table("t").row_count == 100
    assert catalog.table_names == ("t",)


def test_duplicate_registration_rejected():
    catalog = Catalog()
    catalog.register_table(make_entry())
    with pytest.raises(CatalogError):
        catalog.register_table(make_entry())
    catalog.register_table(make_entry(rows=5), replace_existing=True)
    assert catalog.table("t").row_count == 5


def test_unknown_table():
    with pytest.raises(CatalogError):
        Catalog().table("missing")


def test_drop_table():
    catalog = Catalog()
    catalog.register_table(make_entry())
    catalog.drop_table("t")
    assert not catalog.has_table("t")
    with pytest.raises(CatalogError):
        catalog.drop_table("t")


def test_set_clustering_updates_schema_and_depth():
    catalog = Catalog()
    catalog.register_table(make_entry())
    catalog.set_clustering("t", "a", 0.05)
    entry = catalog.table("t")
    assert entry.schema.clustering_key == "a"
    assert entry.clustering_depth == 0.05
    with pytest.raises(CatalogError):
        catalog.set_clustering("t", "a", 0.0)


def test_overlay_is_isolated():
    catalog = Catalog()
    catalog.register_table(make_entry())
    overlay = catalog.overlay()
    overlay.register_table(make_entry(name="u"))
    overlay.set_clustering("t", "a", 0.1)
    assert not catalog.has_table("u")
    assert catalog.table("t").clustering_depth == 1.0
    assert overlay.table("t").clustering_depth == 0.1


def test_views_share_name_with_backing_table():
    catalog = Catalog()
    catalog.register_table(make_entry(name="mv1"))
    view = MaterializedViewDef(
        name="mv1", base_tables=("t",), join_keys=(), row_count=10
    )
    catalog.register_view(view)
    assert catalog.has_view("mv1")
    with pytest.raises(CatalogError):
        catalog.register_view(view)
    catalog.drop_view("mv1")
    assert not catalog.has_view("mv1")


def test_describe_mentions_tables():
    catalog = Catalog()
    catalog.register_table(make_entry())
    assert "table t" in catalog.describe()
