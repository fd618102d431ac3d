import pytest

from repro.catalog.schema import Column, DataType, TableSchema
from repro.errors import CatalogError


def test_datatype_widths():
    assert DataType.INT64.width_bytes == 8
    assert DataType.STRING.width_bytes == 16
    assert DataType.BOOL.width_bytes == 1


def test_is_numeric():
    assert DataType.DATE.is_numeric
    assert not DataType.STRING.is_numeric


def test_invalid_column_name():
    with pytest.raises(CatalogError):
        Column("not a name", DataType.INT64)


def test_schema_duplicate_columns_rejected():
    with pytest.raises(CatalogError):
        TableSchema("t", (Column("a", DataType.INT64), Column("a", DataType.INT64)))


def test_schema_primary_key_must_exist():
    with pytest.raises(CatalogError):
        TableSchema("t", (Column("a", DataType.INT64),), primary_key=("b",))


def test_schema_clustering_key_must_exist():
    with pytest.raises(CatalogError):
        TableSchema("t", (Column("a", DataType.INT64),), clustering_key="z")


def test_row_width_sums_columns():
    schema = TableSchema(
        "t",
        (Column("a", DataType.INT64), Column("s", DataType.STRING)),
    )
    assert schema.row_width_bytes == 24


def test_column_lookup():
    schema = TableSchema("t", (Column("a", DataType.INT64),))
    assert schema.column("a").dtype is DataType.INT64
    assert schema.has_column("a")
    assert not schema.has_column("b")
    with pytest.raises(CatalogError):
        schema.column("b")


def test_with_clustering_key_returns_copy():
    schema = TableSchema("t", (Column("a", DataType.INT64),))
    clustered = schema.with_clustering_key("a")
    assert clustered.clustering_key == "a"
    assert schema.clustering_key is None
