"""Physical node helpers: describe, walk, signatures, validation."""

import dataclasses

import pytest

from repro.core.bioptimizer import BiObjectiveOptimizer
from repro.cost.estimator import CostEstimator
from repro.dop.constraints import sla_constraint
from repro.errors import PlanError
from repro.plan.expressions import BinaryOp, ColumnRef, Literal
from repro.plan.physical import (
    PhysFilter,
    PhysLimit,
    PhysNode,
    PhysProject,
    PhysScan,
    PhysSort,
    plan_signature,
    walk_physical,
)
from repro.sql.binder import Binder
from repro.sql.parser import parse
from repro.workloads.tpch_queries import instantiate, template_names
from repro.workloads.tpch_stats import synthetic_tpch_catalog


def test_physical_node_ids_unique():
    a = PhysScan(table="t", columns=("a",))
    b = PhysScan(table="t", columns=("a",))
    assert a.node_id != b.node_id


def test_walk_physical_preorder():
    scan = PhysScan(table="t", columns=("a",))
    filt = PhysFilter(child=scan, predicate=BinaryOp(">", ColumnRef("a"), Literal(0)))
    limit = PhysLimit(child=filt, limit=5)
    nodes = list(walk_physical(limit))
    assert nodes == [limit, filt, scan]


def test_plan_signature_stable_and_structural():
    scan = PhysScan(table="t", columns=("a",))
    plan1 = PhysLimit(child=scan, limit=5)
    scan2 = PhysScan(table="t", columns=("a",))
    plan2 = PhysLimit(child=scan2, limit=5)
    assert plan_signature(plan1) == plan_signature(plan2)
    plan3 = PhysLimit(child=scan2, limit=6)
    assert plan_signature(plan1) != plan_signature(plan3)


def test_phys_validation_errors():
    scan = PhysScan(table="t", columns=("a",))
    with pytest.raises(PlanError):
        PhysProject(child=scan, exprs=(ColumnRef("a"),), names=("x", "y"))


def test_pretty_includes_estimates():
    scan = PhysScan(table="t", columns=("a",))
    scan.est_rows = 42
    assert "rows=42" in scan.pretty()


def test_sort_describe_directions():
    scan = PhysScan(table="t", columns=("a", "b"))
    sort = PhysSort(child=scan, keys=("a", "b"), ascending=(True, False), limit=3)
    text = sort.describe()
    assert "a ASC" in text and "b DESC" in text and "limit=3" in text


def test_shape_is_describe_without_literals():
    def instance(bound: int):
        predicate = BinaryOp(">", ColumnRef("b", "t"), Literal(bound))
        scan = PhysScan(table="t", columns=("a", "b"), predicate=predicate)
        scan.input_bytes = 1000.0 * bound
        filt = PhysFilter(child=scan, predicate=predicate)
        sort = PhysSort(child=filt, keys=("a",), ascending=(False,), limit=bound)
        return [scan, filt, sort, PhysLimit(child=sort, limit=bound)]

    first, second = instance(3), instance(7)
    assert [node.shape() for node in first] == [
        "Scan(t)",
        "Filter(b)",
        "Sort(a DESC)",
        "Limit",
    ]
    assert [n.shape() for n in first] == [n.shape() for n in second]
    # describe() stays the literal-bearing EXPLAIN text
    assert all(a.describe() != b.describe() for a, b in zip(first, second))
    project = PhysProject(child=first[0], exprs=(ColumnRef("a"),), names=("x",))
    assert project.shape() == project.describe() == "Project(x)"


def _ast_nodes(node):
    """Every AST node reachable from ``node`` through dataclass fields."""
    if isinstance(node, (list, tuple)):
        for item in node:
            yield from _ast_nodes(item)
    elif dataclasses.is_dataclass(node):
        yield node
        for f in dataclasses.fields(node):
            yield from _ast_nodes(getattr(node, f.name))


def test_ast_and_plan_nodes_carry_no_instance_dict():
    """Parses and cached plans make these nodes by the
    thousand; an instance ``__dict__`` was most of each one's size."""
    catalog = synthetic_tpch_catalog(1.0)
    binder, optimizer = Binder(catalog), BiObjectiveOptimizer(catalog, CostEstimator())
    ast_types, plan_types = set(), set()
    for name in template_names():
        sql = instantiate(name, seed=1)
        for node in _ast_nodes(parse(sql)):
            assert not hasattr(node, "__dict__"), type(node).__name__
            ast_types.add(type(node).__name__)
        plan = optimizer.optimize(binder.bind_sql(sql), sla_constraint(20.0)).plan
        for node in walk_physical(plan):
            assert not hasattr(node, "__dict__"), type(node).__name__
            plan_types.add(type(node))
    assert {"AstSelect", "AstColumn", "AstLiteral", "AstBinary", "AstFuncCall"} <= ast_types
    assert plan_types >= {PhysScan, PhysProject}
    for cls in PhysNode.__subclasses__():  # the ones no TPC-H plan built
        assert not hasattr(cls.__new__(cls), "__dict__"), cls.__name__
