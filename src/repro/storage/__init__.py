"""Data storage layer: simulated cloud object store + columnar partitions.

Substitutes for AWS S3 / Azure Blob in the paper's architecture: the
object store models request latency, bandwidth, and request/storage
pricing, while micro-partitions hold real (numpy) column data with
min/max zone maps used for partition pruning.
"""
