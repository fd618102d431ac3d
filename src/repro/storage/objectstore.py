"""Simulated cloud object store (S3/Blob-like).

The cost models only need the store's *economic and performance envelope*:
per-request latency, per-connection bandwidth, per-node aggregate bandwidth
cap, and the standard pricing dimensions (GB-month storage, per-request
fees, optional egress).  Blob payloads are tracked by size — the actual
column data lives in :class:`repro.storage.micropartition.MicroPartition`
objects held in memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import StorageError
from repro.util.units import GB, MB, HOURS_PER_MONTH


@dataclass(frozen=True)
class ObjectStoreConfig:
    """Performance/pricing envelope, defaults loosely modeled on S3.

    Bandwidth numbers are per compute node: a single GET streams at
    ``per_request_bandwidth``; a node can open several parallel ranged GETs
    up to ``per_node_bandwidth``.
    """

    request_latency_s: float = 0.030
    per_request_bandwidth: float = 80.0 * MB  # bytes/s for one GET stream
    per_node_bandwidth: float = 1.2 * GB  # bytes/s aggregate per node
    storage_price_gb_month: float = 0.023
    price_per_get: float = 0.4e-6
    price_per_put: float = 5e-6
    egress_price_gb: float = 0.0  # intra-region: free

    @property
    def storage_price_gb_second(self) -> float:
        return self.storage_price_gb_month / (HOURS_PER_MONTH * 3600.0)


@dataclass
class TransferStats:
    """Accumulated request/byte counters, convertible to dollars."""

    gets: int = 0
    puts: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def add(self, other: "TransferStats") -> None:
        self.gets += other.gets
        self.puts += other.puts
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written

    def request_dollars(self, config: ObjectStoreConfig) -> float:
        return self.gets * config.price_per_get + self.puts * config.price_per_put


@dataclass
class _BlobMeta:
    size_bytes: int
    payload: object | None = None


class ObjectStore:
    """A named blob namespace with a performance/pricing model.

    ``put``/``get`` track request counts and bytes; ``read_time``/
    ``write_time`` answer "how long does moving N bytes take for a node
    using ``parallel_streams`` connections" — the primitive the scan cost
    model and the distributed simulator both build on.
    """

    def __init__(self, config: ObjectStoreConfig | None = None) -> None:
        self.config = config or ObjectStoreConfig()
        self._blobs: dict[str, _BlobMeta] = {}
        self.stats = TransferStats()

    # ------------------------------------------------------------------ #
    # Blob namespace
    # ------------------------------------------------------------------ #
    def put(self, key: str, size_bytes: int, payload: object | None = None) -> None:
        if size_bytes < 0:
            raise StorageError(f"negative blob size for {key!r}")
        self._blobs[key] = _BlobMeta(size_bytes=size_bytes, payload=payload)
        self.stats.puts += 1
        self.stats.bytes_written += size_bytes

    def get(self, key: str) -> object | None:
        meta = self._meta(key)
        self.stats.gets += 1
        self.stats.bytes_read += meta.size_bytes
        return meta.payload

    def delete(self, key: str) -> None:
        if key not in self._blobs:
            raise StorageError(f"unknown blob {key!r}")
        del self._blobs[key]

    def exists(self, key: str) -> bool:
        return key in self._blobs

    def total_bytes(self) -> int:
        return sum(b.size_bytes for b in self._blobs.values())

    def _meta(self, key: str) -> _BlobMeta:
        try:
            return self._blobs[key]
        except KeyError:
            raise StorageError(f"unknown blob {key!r}") from None

    # ------------------------------------------------------------------ #
    # Performance model
    # ------------------------------------------------------------------ #
    def read_time(self, size_bytes: int, parallel_streams: int = 8) -> float:
        """Seconds for one node to read ``size_bytes`` with ranged GETs."""
        if size_bytes <= 0:
            return 0.0
        streams = max(1, parallel_streams)
        bandwidth = min(
            self.config.per_node_bandwidth,
            streams * self.config.per_request_bandwidth,
        )
        return self.config.request_latency_s + size_bytes / bandwidth

    def write_time(self, size_bytes: int, parallel_streams: int = 8) -> float:
        """Seconds for one node to write ``size_bytes`` (PUT multipart)."""
        # Writes use the same envelope; multipart uploads parallelize like
        # ranged reads do.
        return self.read_time(size_bytes, parallel_streams)

    # ------------------------------------------------------------------ #
    # Pricing model
    # ------------------------------------------------------------------ #
    def storage_dollars(self, duration_s: float, size_bytes: int | None = None) -> float:
        """Storage cost of holding ``size_bytes`` (default: all blobs)."""
        if duration_s < 0:
            raise StorageError("negative storage duration")
        size = self.total_bytes() if size_bytes is None else size_bytes
        return (size / GB) * self.config.storage_price_gb_second * duration_s

    def request_dollars(self) -> float:
        return self.stats.request_dollars(self.config)
