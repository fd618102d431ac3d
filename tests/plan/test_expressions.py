import numpy as np
import pytest

from repro.errors import PlanError
from repro.plan.expressions import (
    AggCall,
    BinaryOp,
    ColumnRef,
    FuncCall,
    InList,
    Literal,
    UnaryOp,
    conjuncts,
    make_and,
    referenced_columns,
)


@pytest.fixture()
def batch():
    return {
        "a": np.array([1.0, 2.0, 3.0, 4.0]),
        "b": np.array([10.0, 20.0, 30.0, 40.0]),
        "c": np.array([1, 0, 1, 0], dtype=np.int64),
    }


def test_column_ref_eval(batch):
    assert np.array_equal(ColumnRef("a").evaluate(batch), batch["a"])
    with pytest.raises(PlanError):
        ColumnRef("zz").evaluate(batch)


def test_arithmetic_matches_numpy(batch):
    expr = BinaryOp("*", ColumnRef("a"), BinaryOp("+", ColumnRef("b"), Literal(1)))
    assert np.allclose(expr.evaluate(batch), batch["a"] * (batch["b"] + 1))


def test_division_is_float(batch):
    expr = BinaryOp("/", ColumnRef("c"), Literal(2))
    result = expr.evaluate(batch)
    assert result.dtype == np.float64


def test_comparisons(batch):
    expr = BinaryOp("<=", ColumnRef("a"), Literal(2))
    assert expr.evaluate(batch).tolist() == [True, True, False, False]
    expr = BinaryOp("<>", ColumnRef("c"), Literal(0))
    assert expr.evaluate(batch).tolist() == [True, False, True, False]


def test_logical_ops(batch):
    left = BinaryOp(">", ColumnRef("a"), Literal(1))
    right = BinaryOp("<", ColumnRef("b"), Literal(40))
    both = BinaryOp("and", left, right)
    either = BinaryOp("or", left, right)
    negated = UnaryOp("not", left)
    assert both.evaluate(batch).tolist() == [False, True, True, False]
    assert either.evaluate(batch).tolist() == [True, True, True, True]
    assert negated.evaluate(batch).tolist() == [True, False, False, False]


def test_in_list(batch):
    expr = InList(ColumnRef("a"), (1, 3))
    assert expr.evaluate(batch).tolist() == [True, False, True, False]
    assert InList(ColumnRef("a"), (1, 3), negated=True).evaluate(batch).tolist() == [
        False,
        True,
        False,
        True,
    ]


def test_scalar_funcs(batch):
    expr = FuncCall("abs", (UnaryOp("-", ColumnRef("a")),))
    assert np.allclose(expr.evaluate(batch), batch["a"])
    year = FuncCall("year", (Literal(9131),))  # 1995-01-01 = epoch day 9131
    assert int(year.evaluate(batch)) == 1995


def test_unknown_operator_rejected():
    with pytest.raises(PlanError):
        BinaryOp("%", Literal(1), Literal(2))
    with pytest.raises(PlanError):
        UnaryOp("!", Literal(1))
    with pytest.raises(PlanError):
        FuncCall("sqrt", (Literal(1),))


def test_string_literal_eval_rejected(batch):
    with pytest.raises(PlanError):
        Literal("raw").evaluate(batch)


def test_aggcall_validation():
    with pytest.raises(PlanError):
        AggCall(func="median", arg=ColumnRef("a"))
    with pytest.raises(PlanError):
        AggCall(func="sum", arg=None)
    with pytest.raises(PlanError):
        AggCall(func="sum", arg=ColumnRef("a")).evaluate({})


def test_conjuncts_flatten():
    a = BinaryOp(">", ColumnRef("a"), Literal(1))
    b = BinaryOp("<", ColumnRef("b"), Literal(2))
    c = BinaryOp("=", ColumnRef("c"), Literal(3))
    combined = BinaryOp("and", BinaryOp("and", a, b), c)
    assert conjuncts(combined) == [a, b, c]
    assert conjuncts(None) == []


def test_make_and_roundtrip():
    parts = [
        BinaryOp(">", ColumnRef("a"), Literal(1)),
        BinaryOp("<", ColumnRef("b"), Literal(2)),
    ]
    assert conjuncts(make_and(parts)) == parts
    assert make_and([]) is None


def test_referenced_columns():
    expr = BinaryOp("+", ColumnRef("a"), FuncCall("abs", (ColumnRef("b"),)))
    assert referenced_columns(expr) == {"a", "b"}


def test_sql_rendering():
    expr = BinaryOp("and", BinaryOp(">", ColumnRef("a", "t"), Literal(1)), InList(ColumnRef("b"), (1, 2)))
    text = expr.sql()
    assert "t.a" in text and "AND" in text and "IN" in text
