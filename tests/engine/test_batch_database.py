"""Batch container and Database bundle behaviors."""

import numpy as np
import pytest

from repro.catalog.schema import Column, DataType, TableSchema
from repro.engine.batch import Batch
from repro.engine.database import Database
from repro.errors import CatalogError, ExecutionError


# ----------------------------- Batch ---------------------------------- #
def test_batch_basic_accessors():
    batch = Batch({"a": np.arange(5), "b": np.ones(5)})
    assert batch.num_rows == 5
    assert batch.column_names == ("a", "b")
    assert batch.select(("b",)).column_names == ("b",)
    with pytest.raises(ExecutionError):
        batch.column("zz")


def test_batch_ragged_rejected():
    with pytest.raises(ExecutionError):
        Batch({"a": np.arange(5), "b": np.arange(4)})


def test_batch_filter_requires_bool_mask():
    batch = Batch({"a": np.arange(5)})
    with pytest.raises(ExecutionError):
        batch.filter(np.arange(5))
    out = batch.filter(np.array([True, False, True, False, True]))
    assert out.column("a").tolist() == [0, 2, 4]


def test_batch_take_head_with_columns():
    batch = Batch({"a": np.arange(10)})
    assert batch.take(np.array([3, 1])).column("a").tolist() == [3, 1]
    assert batch.head(3).num_rows == 3


def test_batch_concat():
    a = Batch({"x": np.arange(3)})
    b = Batch({"x": np.arange(2)})
    assert Batch.concat([a, b]).num_rows == 5
    with pytest.raises(ExecutionError):
        Batch.concat([])
    with pytest.raises(ExecutionError):
        Batch.concat([a, Batch({"y": np.arange(1)})])


def test_batch_empty():
    empty = Batch.empty(("a", "b"))
    assert empty.num_rows == 0
    assert empty.column_names == ("a", "b")


# --------------------------- Database --------------------------------- #
SCHEMA = TableSchema(
    "widgets",
    (Column("id", DataType.INT64), Column("tag", DataType.STRING)),
)


def test_create_table_requires_dictionaries_for_strings():
    db = Database()
    with pytest.raises(CatalogError):
        db.create_table(
            SCHEMA,
            {"id": np.arange(10), "tag": np.zeros(10, dtype=np.int64)},
        )


def test_create_table_and_decode():
    db = Database()
    db.create_table(
        SCHEMA,
        {"id": np.arange(4), "tag": np.array([0, 1, 1, 0])},
        dictionaries={"tag": ("blue", "red")},
    )
    assert db.catalog.has_table("widgets")
    assert db.stored_table("widgets").row_count == 4
    assert db.decode_strings("widgets", "tag", np.array([1, 0])) == ["red", "blue"]
    with pytest.raises(CatalogError):
        db.decode_strings("widgets", "id", np.array([0]))


def test_replace_table_storage_updates_clustering():
    db = Database()
    schema = TableSchema("t", (Column("k", DataType.INT64),))
    rng = np.random.default_rng(0)
    db.create_table(schema, {"k": rng.permutation(1000)}, partition_rows=100)
    assert db.catalog.table("t").clustering_depth == 1.0
    reclustered = db.stored_table("t").recluster("k")
    db.replace_table_storage("t", reclustered)
    entry = db.catalog.table("t")
    assert entry.schema.clustering_key == "k"
    assert entry.clustering_depth < 0.2
    with pytest.raises(CatalogError):
        db.replace_table_storage("missing", reclustered)


def test_object_store_tracks_table_bytes():
    db = Database()
    schema = TableSchema("t", (Column("k", DataType.INT64),))
    db.create_table(schema, {"k": np.arange(1000)})
    assert db.store.exists("tables/t")
    assert db.store.total_bytes() > 0
