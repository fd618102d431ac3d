import numpy as np
import pytest

from repro.engine.local_executor import LocalExecutor
from repro.errors import TuningError
from repro.optimizer.dag_planner import DagPlanner
from repro.tuning.background import BackgroundComputeService
from repro.tuning.mv import (
    mv_build_sql,
    mv_candidate_from_query,
    matches,
    register_hypothetical_mv,
    try_rewrite,
)
from repro.tuning.whatif import TuningReport


Q5ISH = (
    "SELECT n_name, sum(c_acctbal) AS bal, count(*) AS cnt "
    "FROM customer, nation WHERE c_nationkey = n_nationkey "
    "AND n_regionkey = 2 GROUP BY n_name"
)


@pytest.fixture(scope="module")
def candidate(tpch_db, tpch_binder):
    bound = tpch_binder.bind_sql(Q5ISH)
    return mv_candidate_from_query(bound, tpch_db.catalog, name="mv_test")


def test_candidate_structure(candidate):
    assert candidate.base_tables == ("customer", "nation")
    assert "n_name" in candidate.group_by
    assert "n_regionkey" in candidate.group_by  # filter column included
    assert candidate.est_rows > 0


def test_candidate_requires_join_and_agg(tpch_db, tpch_binder):
    no_join = tpch_binder.bind_sql("SELECT count(*) AS c FROM orders")
    with pytest.raises(TuningError):
        mv_candidate_from_query(no_join, tpch_db.catalog, name="x")
    no_agg = tpch_binder.bind_sql(
        "SELECT n_name FROM customer, nation WHERE c_nationkey = n_nationkey"
    )
    with pytest.raises(TuningError):
        mv_candidate_from_query(no_agg, tpch_db.catalog, name="y")


def test_matches_same_family_other_params(candidate, tpch_binder):
    other = tpch_binder.bind_sql(Q5ISH.replace("n_regionkey = 2", "n_regionkey = 4"))
    assert matches(candidate, other)


def test_no_match_different_tables(candidate, tpch_binder):
    other = tpch_binder.bind_sql(
        "SELECT count(*) AS c FROM orders, lineitem WHERE o_orderkey = l_orderkey"
    )
    assert not matches(candidate, other)


def test_no_match_filter_outside_group_cols(candidate, tpch_binder):
    other = tpch_binder.bind_sql(
        "SELECT n_name, count(*) AS c FROM customer, nation "
        "WHERE c_nationkey = n_nationkey AND c_acctbal > 0 GROUP BY n_name"
    )
    assert not matches(candidate, other)


def test_rewrite_produces_single_table_query(candidate, tpch_binder):
    bound = tpch_binder.bind_sql(Q5ISH)
    rewritten = try_rewrite(bound, candidate)
    assert rewritten is not None
    assert rewritten.table_names == ["mv_test"]
    assert not rewritten.join_edges
    assert rewritten.select_names == bound.select_names


def test_register_hypothetical(candidate, tpch_db):
    overlay = tpch_db.catalog.overlay()
    entry = register_hypothetical_mv(overlay, candidate, tpch_db.catalog)
    assert overlay.has_table("mv_test")
    assert not tpch_db.catalog.has_table("mv_test")
    assert entry.row_count == max(1, int(candidate.est_rows))


def test_mv_end_to_end_result_equality(tpch_db, tpch_binder, candidate):
    """Materialize the MV for real; the rewritten query must return the
    same result as the original query — the core MV correctness check."""
    report = TuningReport(
        candidate=candidate,
        savings_per_hour=1.0, cost_per_hour=0.0, one_time_dollars=0.0,
    )
    background = BackgroundComputeService(database=tpch_db)
    background.apply(candidate, background.capture_undo(report))
    try:
        executor = LocalExecutor(tpch_db)
        planner = DagPlanner(tpch_db.catalog)

        bound = tpch_binder.bind_sql(Q5ISH)
        original = executor.execute(planner.plan(bound)).batch

        rewritten = try_rewrite(bound, candidate)
        assert rewritten is not None
        rewritten_result = executor.execute(planner.plan(rewritten)).batch

        assert original.num_rows == rewritten_result.num_rows
        order_a = np.argsort(original.column("n_name"))
        order_b = np.argsort(rewritten_result.column("n_name"))
        assert np.allclose(
            original.column("bal")[order_a],
            rewritten_result.column("bal")[order_b],
        )
        assert np.array_equal(
            original.column("cnt")[order_a],
            rewritten_result.column("cnt")[order_b],
        )
    finally:
        tpch_db.catalog.drop_table("mv_test")
        tpch_db.catalog.drop_view("mv_test")


def test_mv_build_sql_parses(candidate, tpch_binder):
    sql = mv_build_sql(candidate)
    bound = tpch_binder.bind_sql(sql)
    assert set(bound.table_names) == set(candidate.base_tables)
