"""Physical node helpers: describe, walk, signatures, validation."""

import pytest

from repro.errors import PlanError
from repro.plan.expressions import BinaryOp, ColumnRef, Literal
from repro.plan.physical import (
    PhysFilter,
    PhysLimit,
    PhysProject,
    PhysScan,
    PhysSort,
    plan_signature,
    walk_physical,
)


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
