"""Query plans: scalar expressions, physical operators, pipelines."""
