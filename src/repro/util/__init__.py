"""Shared utilities: unit helpers, table rendering, Pareto math, RNG."""
