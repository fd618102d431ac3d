"""Metadata service: schemas, table statistics, and the catalog.

This package plays the role of the low-latency "Metadata Service" in the
paper's architecture (Figure 3): it owns the system catalog and the table
statistics that query planning and cost estimation consume.
"""
