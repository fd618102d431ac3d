"""Workload substrate: TPC-H-like schema/data and query templates.

Substitutes for the customer workloads a production warehouse sees: a
deterministic synthetic decision-support database plus parameterized
recurring query templates and an ad-hoc query generator.
"""

from repro.workloads.tpch_schema import TPCH_SCHEMAS, TPCH_DICTIONARIES
from repro.workloads.tpch_data import generate_tpch, load_tpch
from repro.workloads.tpch_queries import QUERY_TEMPLATES, instantiate, template_names
from repro.workloads.adhoc import AdhocQueryGenerator

__all__ = [
    "TPCH_SCHEMAS",
    "TPCH_DICTIONARIES",
    "generate_tpch",
    "load_tpch",
    "QUERY_TEMPLATES",
    "instantiate",
    "template_names",
    "AdhocQueryGenerator",
]
