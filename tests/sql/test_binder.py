import pytest

from repro.errors import BindError
from repro.plan.expressions import BinaryOp, ColumnRef, InList, Literal
from repro.sql.binder import Binder


def test_resolves_unqualified_columns(tpch_binder):
    bound = tpch_binder.bind_sql("SELECT o_totalprice FROM orders")
    expr = bound.select_exprs[0]
    assert isinstance(expr, ColumnRef)
    assert expr.table == "orders"


def test_unknown_table(tpch_binder):
    with pytest.raises(BindError):
        tpch_binder.bind_sql("SELECT a FROM nope")


def test_unknown_column(tpch_binder):
    with pytest.raises(BindError):
        tpch_binder.bind_sql("SELECT zz FROM orders")


def test_self_join_rejected(tpch_binder):
    with pytest.raises(BindError):
        tpch_binder.bind_sql("SELECT o_orderkey FROM orders a, orders b")


def test_join_edges_extracted(tpch_binder):
    bound = tpch_binder.bind_sql(
        "SELECT o_orderkey FROM orders, lineitem WHERE o_orderkey = l_orderkey "
        "AND o_totalprice > 100"
    )
    assert len(bound.join_edges) == 1
    edge = bound.join_edges[0]
    assert {edge.left.table, edge.right.table} == {"orders", "lineitem"}
    assert len(bound.filters["orders"]) == 1
    assert bound.filters["lineitem"] == []


def test_filters_assigned_per_table(tpch_binder):
    bound = tpch_binder.bind_sql(
        "SELECT o_orderkey FROM orders WHERE o_totalprice > 10 AND o_orderdate < DATE '1995-06-01'"
    )
    assert len(bound.filters["orders"]) == 2


def test_string_equality_encoded_to_code(tpch_binder):
    bound = tpch_binder.bind_sql(
        "SELECT c_custkey FROM customer WHERE c_mktsegment = 'BUILDING'"
    )
    predicate = bound.filters["customer"][0]
    assert isinstance(predicate, BinaryOp) and predicate.op == "="
    assert isinstance(predicate.right, Literal)
    assert predicate.right.value == 1  # BUILDING is index 1 in sorted dict


def test_string_equality_unknown_value_impossible(tpch_binder):
    bound = tpch_binder.bind_sql(
        "SELECT c_custkey FROM customer WHERE c_mktsegment = 'NOSUCH'"
    )
    predicate = bound.filters["customer"][0]
    assert predicate.op == "<" and predicate.right.value == -1


def test_string_range_comparison(tpch_binder):
    bound = tpch_binder.bind_sql(
        "SELECT c_custkey FROM customer WHERE c_mktsegment < 'FURNITURE'"
    )
    predicate = bound.filters["customer"][0]
    assert predicate.op == "<" and predicate.right.value == 2


def test_string_in_list_encoded(tpch_binder):
    bound = tpch_binder.bind_sql(
        "SELECT l_orderkey FROM lineitem WHERE l_shipmode IN ('AIR', 'SHIP', 'XXX')"
    )
    predicate = bound.filters["lineitem"][0]
    assert isinstance(predicate, InList)
    assert set(predicate.values) == {0, 5}  # AIR=0, SHIP=5; XXX dropped


def test_string_comparison_against_numeric_column_rejected(tpch_binder):
    with pytest.raises(BindError):
        tpch_binder.bind_sql("SELECT o_orderkey FROM orders WHERE o_totalprice = 'x'")


@pytest.mark.parametrize(
    "predicate",
    [
        "c_mktsegment = 5",
        "5 < c_mktsegment",
        "c_mktsegment <> -2",
        "c_mktsegment BETWEEN 1 AND 3",
        "c_mktsegment >= DATE '1995-01-01'",
    ],
)
def test_number_against_string_column_rejected(tpch_binder, predicate):
    """It used to bind as a comparison of dictionary codes."""
    with pytest.raises(BindError, match="with a number"):
        tpch_binder.bind_sql(f"SELECT c_custkey FROM customer WHERE {predicate}")


@pytest.mark.parametrize("values", ["'BUILDING', 5", "1, 2", "'BUILDING', -1"])
def test_string_in_list_with_a_number_rejected(tpch_binder, values):
    """``IN ('BUILDING', 5)`` used to drop the 5 and bind as ``IN (1)``."""
    with pytest.raises(BindError, match="non-string value"):
        tpch_binder.bind_sql(
            f"SELECT c_custkey FROM customer WHERE c_mktsegment IN ({values})"
        )


def test_aggregate_extraction_and_names(tpch_binder):
    bound = tpch_binder.bind_sql(
        "SELECT sum(o_totalprice) AS total, count(*) FROM orders"
    )
    assert [a.func for a in bound.aggregates] == ["sum", "count"]
    assert bound.agg_names == ["agg0", "agg1"]
    assert bound.select_names == ["total", "col1"]
    # Select exprs reference the generated agg outputs.
    assert isinstance(bound.select_exprs[0], ColumnRef)
    assert bound.select_exprs[0].name == "agg0"


def test_duplicate_aggregates_shared(tpch_binder):
    bound = tpch_binder.bind_sql(
        "SELECT sum(o_totalprice), sum(o_totalprice) * 2 FROM orders"
    )
    assert len(bound.aggregates) == 1


def test_group_by_validation(tpch_binder):
    with pytest.raises(BindError):
        tpch_binder.bind_sql(
            "SELECT o_custkey, o_totalprice FROM orders GROUP BY o_custkey"
        )


def test_having_without_group_rejected(tpch_binder):
    with pytest.raises(BindError):
        tpch_binder.bind_sql("SELECT o_custkey FROM orders HAVING count(*) > 1")


def test_having_binds_aggregates(tpch_binder):
    bound = tpch_binder.bind_sql(
        "SELECT o_custkey, count(*) c FROM orders GROUP BY o_custkey "
        "HAVING sum(o_totalprice) > 1000"
    )
    # having introduced a second aggregate
    assert len(bound.aggregates) == 2
    assert bound.having is not None


def test_order_by_output_name(tpch_binder):
    bound = tpch_binder.bind_sql(
        "SELECT o_custkey, count(*) AS c FROM orders GROUP BY o_custkey ORDER BY c DESC"
    )
    assert bound.order_by == [("c", False)]


def test_order_by_plain_column_in_select(tpch_binder):
    bound = tpch_binder.bind_sql("SELECT o_orderkey FROM orders ORDER BY o_orderkey")
    assert bound.order_by == [("o_orderkey", True)]


def test_order_by_unknown_rejected(tpch_binder):
    with pytest.raises(BindError):
        tpch_binder.bind_sql("SELECT o_orderkey FROM orders ORDER BY o_totalprice")


def test_columns_needed_includes_filters_and_keys(tpch_binder):
    bound = tpch_binder.bind_sql(
        "SELECT sum(l_extendedprice) FROM lineitem, orders "
        "WHERE l_orderkey = o_orderkey AND o_totalprice > 5"
    )
    assert "o_totalprice" in bound.columns_needed("orders")
    assert "o_orderkey" in bound.columns_needed("orders")
    assert "l_extendedprice" in bound.columns_needed("lineitem")


def test_between_desugars_to_range(tpch_binder):
    bound = tpch_binder.bind_sql(
        "SELECT l_orderkey FROM lineitem WHERE l_quantity BETWEEN 5 AND 10"
    )
    assert len(bound.filters["lineitem"]) == 2


def test_distinct_with_aggregate_rejected(tpch_binder):
    with pytest.raises(BindError):
        tpch_binder.bind_sql("SELECT DISTINCT count(*) FROM orders")


def test_duplicate_output_names_rejected(tpch_binder):
    with pytest.raises(BindError):
        tpch_binder.bind_sql("SELECT o_orderkey AS x, o_custkey AS x FROM orders")


def test_ambiguous_column_rejected(tpch_db):
    # o_orderkey is unique, but add a query joining lineitem and partsupp
    # where 'ps_partkey' vs 'l_partkey' are distinct; construct ambiguity
    # via region/nation shared prefix instead: no shared names exist in the
    # TPC-H schema, so craft one with an alias-qualified check.
    binder = Binder(tpch_db.catalog)
    bound = binder.bind_sql(
        "SELECT n.n_name FROM nation n, region r WHERE n.n_regionkey = r.r_regionkey"
    )
    assert bound.join_edges[0].left.table in ("nation", "region")
