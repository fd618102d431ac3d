from repro.plan.expressions import BinaryOp, ColumnRef, Literal, make_and
from repro.plan.predicates import extract_column_ranges


def col(name):
    return ColumnRef(name)


def test_range_from_comparisons():
    predicate = make_and(
        [
            BinaryOp(">=", col("a"), Literal(5)),
            BinaryOp("<", col("a"), Literal(10)),
            BinaryOp("=", col("b"), Literal(3)),
        ]
    )
    ranges = extract_column_ranges(predicate)
    assert ranges["a"].lo == 5 and ranges["a"].hi == 10
    assert ranges["b"].lo == 3 and ranges["b"].hi == 3


def test_flipped_orientation():
    predicate = BinaryOp("<", Literal(7), col("a"))  # 7 < a  =>  a > 7
    ranges = extract_column_ranges(predicate)
    assert ranges["a"].lo == 7 and ranges["a"].hi is None


def test_conflicting_bounds_tighten():
    predicate = make_and(
        [
            BinaryOp(">=", col("a"), Literal(5)),
            BinaryOp(">=", col("a"), Literal(8)),
            BinaryOp("<=", col("a"), Literal(20)),
            BinaryOp("<=", col("a"), Literal(12)),
        ]
    )
    r = extract_column_ranges(predicate)["a"]
    assert (r.lo, r.hi) == (8, 12)


def test_non_simple_conjuncts_ignored():
    predicate = make_and(
        [
            BinaryOp(
                "or",
                BinaryOp("=", col("a"), Literal(1)),
                BinaryOp("=", col("a"), Literal(2)),
            ),
            BinaryOp(">", col("b"), Literal(0)),
        ]
    )
    ranges = extract_column_ranges(predicate)
    assert "a" not in ranges  # OR is not a sound range source
    assert ranges["b"].lo == 0


def test_none_predicate():
    assert extract_column_ranges(None) == {}
