import pytest

from repro.errors import StorageError
from repro.storage.objectstore import ObjectStore, ObjectStoreConfig
from repro.util.units import GB, MB


def test_put_get_roundtrip():
    store = ObjectStore()
    store.put("k", 1000, payload={"x": 1})
    assert store.exists("k")
    assert store.get("k") == {"x": 1}
    assert store.total_bytes() == 1000
    assert store.stats.gets == 1
    assert store.stats.puts == 1
    assert store.stats.bytes_read == 1000


def test_delete_and_missing():
    store = ObjectStore()
    store.put("k", 10)
    store.delete("k")
    assert not store.exists("k")
    with pytest.raises(StorageError):
        store.delete("k")
    with pytest.raises(StorageError):
        store.get("k")


def test_negative_size_rejected():
    with pytest.raises(StorageError):
        ObjectStore().put("k", -1)


def test_read_time_single_stream_bounded_by_request_bandwidth():
    config = ObjectStoreConfig()
    store = ObjectStore(config)
    t = store.read_time(80 * MB, parallel_streams=1)
    assert t == pytest.approx(config.request_latency_s + 1.0, rel=0.01)


def test_read_time_parallel_streams_capped_by_node_bandwidth():
    config = ObjectStoreConfig()
    store = ObjectStore(config)
    many = store.read_time(int(1.2 * GB), parallel_streams=1000)
    # 1.2 GB at the per-node cap of 1.2 GB/s ~= 1 second + latency
    assert many == pytest.approx(config.request_latency_s + 1.0, rel=0.05)


def test_read_time_zero_bytes_free():
    assert ObjectStore().read_time(0) == 0.0


def test_storage_pricing_proportional():
    store = ObjectStore()
    store.put("k", GB)
    one_hour = store.storage_dollars(3600.0)
    two_hours = store.storage_dollars(7200.0)
    assert two_hours == pytest.approx(2 * one_hour)
    assert one_hour > 0


def test_storage_pricing_negative_duration():
    with pytest.raises(StorageError):
        ObjectStore().storage_dollars(-1.0)


def test_request_pricing():
    config = ObjectStoreConfig()
    store = ObjectStore(config)
    store.put("a", 10)
    store.get("a")
    expected = config.price_per_put + config.price_per_get
    assert store.request_dollars() == pytest.approx(expected)
