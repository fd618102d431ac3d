"""SQL frontend: lexer, parser, and binder for an analytical SQL subset.

Supported surface: ``SELECT [DISTINCT] exprs FROM tables [JOIN .. ON ..]
[WHERE ..] [GROUP BY ..] [HAVING ..] [ORDER BY ..] [LIMIT n]`` with
arithmetic/comparison/logical expressions, ``BETWEEN``, ``IN`` lists,
``DATE '...'`` literals, and the aggregates sum/count/avg/min/max —
enough to express the TPC-H-style workloads used in the experiments.
"""
