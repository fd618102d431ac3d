import pytest

from repro.errors import ParseError
from repro.sql.ast_nodes import (
    AstBetween,
    AstBinary,
    AstColumn,
    AstFuncCall,
    AstInList,
    AstLiteral,
)
from repro.sql.parser import parse, parse_date


def test_minimal_select():
    stmt = parse("SELECT a FROM t")
    assert len(stmt.items) == 1
    assert stmt.tables[0].name == "t"
    assert stmt.where is None


def test_select_with_alias():
    stmt = parse("SELECT a AS x, b y FROM t")
    assert stmt.items[0].alias == "x"
    assert stmt.items[1].alias == "y"


def test_table_alias():
    stmt = parse("SELECT a FROM t1 x, t2 AS y")
    assert stmt.tables[0].alias == "x"
    assert stmt.tables[1].alias == "y"


def test_explicit_join():
    stmt = parse("SELECT a FROM t1 JOIN t2 ON t1.k = t2.k")
    assert len(stmt.joins) == 1
    assert isinstance(stmt.joins[0].condition, AstBinary)


def test_arithmetic_precedence():
    stmt = parse("SELECT 1 + 2 * 3 FROM t")
    expr = stmt.items[0].expr
    assert isinstance(expr, AstBinary) and expr.op == "+"
    assert isinstance(expr.right, AstBinary) and expr.right.op == "*"


def test_and_or_precedence():
    stmt = parse("SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3")
    where = stmt.where
    assert isinstance(where, AstBinary) and where.op == "or"
    assert isinstance(where.right, AstBinary) and where.right.op == "and"


def test_between_and_not_between():
    stmt = parse("SELECT a FROM t WHERE a BETWEEN 1 AND 5 AND b NOT BETWEEN 2 AND 3")
    left = stmt.where.left
    right = stmt.where.right
    assert isinstance(left, AstBetween) and not left.negated
    assert isinstance(right, AstBetween) and right.negated


def test_in_list():
    stmt = parse("SELECT a FROM t WHERE m IN ('x', 'y') AND n NOT IN (1, 2)")
    assert isinstance(stmt.where.left, AstInList)
    assert stmt.where.right.negated


def test_in_list_rejects_non_literals():
    with pytest.raises(ParseError):
        parse("SELECT a FROM t WHERE m IN (a, b)")


def test_date_literal():
    stmt = parse("SELECT a FROM t WHERE d >= DATE '1995-01-01'")
    literal = stmt.where.right
    assert isinstance(literal, AstLiteral)
    assert literal.is_date
    assert literal.value == parse_date("1995-01-01")


def test_parse_date_epoch():
    assert parse_date("1970-01-01") == 0
    assert parse_date("1970-01-02") == 1
    with pytest.raises(ParseError):
        parse_date("not-a-date")


def test_count_star_and_distinct():
    stmt = parse("SELECT count(*), count(DISTINCT a), sum(b) FROM t")
    star, distinct, plain = (item.expr for item in stmt.items)
    assert isinstance(star, AstFuncCall) and star.star
    assert distinct.distinct
    assert not plain.distinct


def test_star_only_for_count():
    with pytest.raises(ParseError):
        parse("SELECT sum(*) FROM t")


def test_group_having_order_limit():
    stmt = parse(
        "SELECT a, count(*) c FROM t WHERE b > 0 GROUP BY a "
        "HAVING count(*) > 5 ORDER BY c DESC, a LIMIT 7"
    )
    assert [c.name for c in stmt.group_by] == ["a"]
    assert stmt.having is not None
    assert stmt.order_by[0].ascending is False
    assert stmt.order_by[1].ascending is True
    assert stmt.limit == 7


def test_group_by_expression_rejected():
    with pytest.raises(ParseError):
        parse("SELECT a FROM t GROUP BY a + 1")


def test_unary_minus():
    stmt = parse("SELECT -a FROM t WHERE b < -5")
    assert stmt.items[0].expr.op == "-"


def test_nested_parens():
    stmt = parse("SELECT ((a + 1) * 2) FROM t")
    assert isinstance(stmt.items[0].expr, AstBinary)


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse("SELECT a FROM t extra nonsense ,")


def test_missing_from_rejected():
    with pytest.raises(ParseError):
        parse("SELECT a")


def test_semicolon_allowed():
    assert parse("SELECT a FROM t;").tables[0].name == "t"


def test_distinct_select():
    assert parse("SELECT DISTINCT a FROM t").distinct
