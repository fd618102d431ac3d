"""Workload substrate: TPC-H-like schema/data and query templates.

Substitutes for the customer workloads a production warehouse sees: a
deterministic synthetic decision-support database plus parameterized
recurring query templates and an ad-hoc query generator.
"""
