import numpy as np
import pytest

from repro.catalog.schema import Column, DataType, TableSchema
from repro.engine.operators import execute_scan
from repro.errors import StorageError
from repro.plan.expressions import BinaryOp, ColumnRef, Literal
from repro.storage.table_storage import StoredTable, cluster_by, split_into_partitions

SCHEMA = TableSchema(
    "t",
    (Column("k", DataType.INT64), Column("v", DataType.FLOAT64)),
)


def make_columns(n=1000, seed=0):
    rng = np.random.default_rng(seed)
    return {"k": rng.permutation(n).astype(np.int64), "v": rng.normal(size=n)}


def test_split_sizes():
    parts = split_into_partitions(SCHEMA, make_columns(1000), partition_rows=300)
    assert [p.row_count for p in parts] == [300, 300, 300, 100]
    assert [p.partition_id for p in parts] == [0, 1, 2, 3]


def test_split_invalid_partition_rows():
    with pytest.raises(StorageError):
        split_into_partitions(SCHEMA, make_columns(10), partition_rows=0)


def test_cluster_by_sorts_globally():
    parts = cluster_by(SCHEMA, make_columns(1000), "k", partition_rows=100)
    previous_max = -1
    for part in parts:
        assert part.zone_maps["k"].min_value > previous_max
        previous_max = part.zone_maps["k"].max_value


def test_clustering_depth_ordering():
    columns = make_columns(10_000)
    shuffled = StoredTable.from_columns(SCHEMA, columns, partition_rows=500)
    clustered = StoredTable.from_columns(
        SCHEMA, columns, partition_rows=500, cluster_key="k"
    )
    depth_random = shuffled.clustering_depth("k")
    depth_sorted = clustered.clustering_depth("k")
    assert depth_sorted < 0.1
    assert depth_random > 0.9


K_0_TO_499 = BinaryOp(
    "and",
    BinaryOp(">=", ColumnRef("k"), Literal(0)),
    BinaryOp("<=", ColumnRef("k"), Literal(499)),
)


def test_prune_range_on_clustered_table():
    table = StoredTable.from_columns(
        SCHEMA, make_columns(10_000), partition_rows=500, cluster_key="k"
    )
    _, partitions_read, rows_read = execute_scan(table, ("k",), K_0_TO_499)
    assert partitions_read <= 2
    assert rows_read >= 500


def test_prune_range_unclustered_reads_everything():
    table = StoredTable.from_columns(SCHEMA, make_columns(10_000), partition_rows=500)
    _, partitions_read, _ = execute_scan(table, ("k",), K_0_TO_499)
    assert partitions_read == table.num_partitions


def test_recluster_preserves_multiset():
    table = StoredTable.from_columns(SCHEMA, make_columns(2000), partition_rows=256)
    reclustered = table.recluster("k")
    assert reclustered.row_count == table.row_count
    assert np.array_equal(
        np.sort(reclustered.column_concat("k")), np.sort(table.column_concat("k"))
    )
    # Row alignment preserved: (k, v) pairs survive the re-sort.
    original = dict(zip(table.column_concat("k"), table.column_concat("v")))
    for k, v in zip(reclustered.column_concat("k"), reclustered.column_concat("v")):
        assert original[int(k)] == v


def test_missing_column_rejected():
    with pytest.raises(StorageError):
        StoredTable.from_columns(SCHEMA, {"k": np.arange(5)})


def test_stored_bytes_column_subset():
    table = StoredTable.from_columns(SCHEMA, make_columns(1000), partition_rows=300)
    assert table.stored_bytes(("k",)) < table.stored_bytes()
