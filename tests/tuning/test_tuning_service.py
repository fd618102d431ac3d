"""TuningService: typed recommendations, apply/rollback lifecycle, parity.

Covers the PR 4 acceptance criteria: apply() -> rollback() round-trips
restore bit-identical plans and catalog state for every action kind, and
the old string-round-trip failure modes (missing template binding,
``_on_`` identifiers) are dead.
"""

import pytest

from repro import (
    CostIntelligentWarehouse,
    MaterializeView,
    QueryRequest,
    Recluster,
    Recommendation,
    RecommendationState,
    ResizeWarehouse,
    TuningPolicy,
    sla_constraint,
)
from repro.catalog.catalog import Catalog, TableEntry
from repro.catalog.schema import Column, DataType, TableSchema
from repro.catalog.statistics import TableStats
from repro.errors import TuningError, TuningStateError
from repro.statsvc.forecast import TemplateForecast
from repro.tuning.clustering import ReclusterCandidate
from repro.tuning.mv import mv_candidate_from_query
from repro.tuning.whatif import TuningReport
from repro.workloads.tpch_stats import synthetic_tpch_catalog

Q5ISH = (
    "SELECT n_name, sum(c_acctbal) AS bal, count(*) AS cnt "
    "FROM customer, nation WHERE c_nationkey = n_nationkey "
    "AND n_regionkey = {r} GROUP BY n_name"
)
DATEQ = (
    "SELECT count(*) AS c FROM lineitem "
    "WHERE l_receiptdate >= DATE '1995-01-01' AND l_receiptdate < DATE '1995-03-01'"
)
SLA = sla_constraint(20.0)


def forecast(template, rate=120.0):
    return TemplateForecast(
        template=template,
        rate_per_hour=rate,
        periodic=True,
        period_s=3600.0 / rate,
        observed_count=10,
        avg_dollars=0.01,
        avg_machine_seconds=10.0,
    )


def stats_warehouse(*, tenants=(("alpha", 6),), tuning_policy=None):
    """Stats-only warehouse with a recurring, MV-friendly workload."""
    wh = CostIntelligentWarehouse(
        catalog=synthetic_tpch_catalog(1.0), tuning_policy=tuning_policy
    )
    t = 0.0
    for tenant, count in tenants:
        session = wh.session(tenant=tenant, constraint=SLA)
        for i in range(count):
            session.submit(
                QueryRequest(
                    sql=Q5ISH.format(r=i % 3),
                    template="q5ish",
                    at_time=t,
                    simulate=False,
                )
            )
            t += 30.0
    return wh


def plan_snapshot(choice):
    estimate = choice.dop_plan.estimate
    return (
        choice.join_tree.describe(),
        dict(choice.dop_plan.dops),
        estimate.latency,
        estimate.total_dollars,
        estimate.machine_seconds,
    )


# --------------------------------------------------------------------- #
# Proposal shape
# --------------------------------------------------------------------- #
def test_propose_returns_typed_recommendations():
    wh = stats_warehouse()
    recs = wh.tuning.propose()
    assert recs and recs == wh.tuning.recommendations
    for rec in recs:
        assert rec.state in (
            RecommendationState.ACCEPTED,
            RecommendationState.REJECTED,
        )
        assert rec.report.candidate is not None
        assert "propose" in rec.stage_timings
        assert rec.tenant_shares == {"alpha": 1.0}
        if isinstance(rec.action, MaterializeView):
            # The action carries the candidate object end-to-end.
            assert rec.action.candidate is rec.report.candidate
            assert rec.action.name == rec.report.action_name
    assert any(rec.accepted for rec in recs)
    assert wh.tuning.cycles_run == 1


# --------------------------------------------------------------------- #
# Acceptance: apply -> rollback round-trips, every action kind
# --------------------------------------------------------------------- #
def test_mv_apply_rollback_restores_bit_identical_plans():
    wh = stats_warehouse()
    sql = Q5ISH.format(r=1)
    pre_bound, pre_choice = wh.plan(sql, SLA)
    pre = plan_snapshot(pre_choice)
    assert pre_bound.table_names == ["customer", "nation"]

    recs = wh.tuning.propose()
    mv = next(r for r in recs if isinstance(r.action, MaterializeView))
    assert mv.accepted
    wh.tuning.apply(mv)
    assert mv.applied
    mv_name = mv.action.name
    assert wh.catalog.has_view(mv_name) and wh.catalog.has_table(mv_name)

    # The applied MV changes served plans: the family now scans the view
    # and costs less than the base-table join.
    post_bound, post_choice = wh.plan(sql, SLA)
    assert post_bound.table_names == [mv_name]
    assert (
        post_choice.dop_plan.estimate.total_dollars
        < pre_choice.dop_plan.estimate.total_dollars
    )

    wh.tuning.rollback(mv)
    assert mv.state is RecommendationState.ROLLED_BACK
    assert not wh.catalog.has_view(mv_name)
    assert not wh.catalog.has_table(mv_name)
    back_bound, back_choice = wh.plan(sql, SLA)
    assert back_bound.table_names == ["customer", "nation"]
    assert plan_snapshot(back_choice) == pre
    assert {"propose", "apply", "rollback"} <= set(mv.stage_timings)


def test_recluster_apply_rollback_restores_catalog_entry_identically():
    wh = stats_warehouse()
    session = wh.session(tenant="alpha", constraint=SLA)
    session.submit(QueryRequest(sql=DATEQ, template="dateq", simulate=False))

    prior_entry = wh.catalog.table("lineitem")
    pre = plan_snapshot(wh.plan(DATEQ, SLA)[1])

    candidate = ReclusterCandidate(table="lineitem", key="l_receiptdate")
    bound = wh.binder.bind_sql(DATEQ)
    report = wh.tuning.whatif.evaluate_recluster(
        candidate, {"dateq": (bound, forecast("dateq"))}
    )
    rec = Recommendation(rec_id=900, action=Recluster(candidate), report=report)
    wh.tuning.accept(rec)
    wh.tuning.apply(rec)
    assert wh.catalog.table("lineitem").schema.clustering_key == "l_receiptdate"
    assert plan_snapshot(wh.plan(DATEQ, SLA)[1]) != pre  # pruning changed costs

    wh.tuning.rollback(rec)
    # The undo token restores the exact prior catalog entry, verbatim.
    assert wh.catalog.table("lineitem") is prior_entry
    assert plan_snapshot(wh.plan(DATEQ, SLA)[1]) == pre


def test_physical_roundtrips_on_real_data():
    """MV build and recluster against a database with rows: apply mutates
    physical storage, rollback restores the exact prior objects."""
    from repro.workloads.tpch_data import load_tpch

    db = load_tpch(scale_factor=0.002, partition_rows=4000)
    wh = CostIntelligentWarehouse(database=db)
    sql = Q5ISH.format(r=1)
    bound = wh.binder.bind_sql(sql)
    pre = plan_snapshot(wh.plan(sql, SLA)[1])

    # Materialized view, physically built from the data.
    candidate = mv_candidate_from_query(bound, wh.catalog, name="mv_q5phys")
    report = wh.tuning.whatif.evaluate_mv(
        candidate, {"fam": (bound, forecast("fam"))}
    )
    rec = Recommendation(
        rec_id=901, action=MaterializeView(candidate), report=report
    )
    wh.tuning.accept(rec)
    wh.tuning.apply(rec)
    assert "mv_q5phys" in db.table_names
    outcome = wh.session(tenant="t", constraint=SLA).submit(
        QueryRequest(sql=sql, execute_locally=True)
    ).result()
    assert outcome.record.tables == ("mv_q5phys",)
    assert outcome.batch is not None and outcome.batch.num_rows > 0

    wh.tuning.rollback(rec)
    assert "mv_q5phys" not in db.table_names
    assert not wh.catalog.has_view("mv_q5phys")
    assert plan_snapshot(wh.plan(sql, SLA)[1]) == pre

    # Recluster, physically re-sorting the stored table.
    prior_stored = db.stored_table("lineitem")
    prior_entry = wh.catalog.table("lineitem")
    dpre = plan_snapshot(wh.plan(DATEQ, SLA)[1])
    cand = ReclusterCandidate(table="lineitem", key="l_receiptdate")
    dreport = wh.tuning.whatif.evaluate_recluster(
        cand, {"dateq": (wh.binder.bind_sql(DATEQ), forecast("dateq"))}
    )
    drec = Recommendation(rec_id=902, action=Recluster(cand), report=dreport)
    wh.tuning.accept(drec)
    wh.tuning.apply(drec)
    assert db.stored_table("lineitem").schema.clustering_key == "l_receiptdate"
    wh.tuning.rollback(drec)
    assert db.stored_table("lineitem") is prior_stored
    assert wh.catalog.table("lineitem") is prior_entry
    assert plan_snapshot(wh.plan(DATEQ, SLA)[1]) == dpre
    ledger_kinds = [e.kind for e in wh.tuning.background.ledger]
    assert ledger_kinds == [
        "materialized-view",
        "rollback-materialized-view",
        "recluster",
        "rollback-recluster",
    ]


# --------------------------------------------------------------------- #
# Regression: plan-cache coherence on apply (satellite 1)
# --------------------------------------------------------------------- #
def test_apply_invalidates_plan_and_skeleton_caches():
    wh = stats_warehouse()
    sql = Q5ISH.format(r=2)
    wh.plan(sql, SLA)
    _, cached_choice = wh.plan(sql, SLA)  # exact-cache hit
    assert wh.describe_caches()["plan_cache"]["hits"] >= 1

    recs = wh.tuning.propose()
    mv = next(r for r in recs if isinstance(r.action, MaterializeView))
    wh.tuning.apply(mv)
    # Every serving cache level and the template bindings are flushed.
    caches = wh.describe_caches()
    for level in ("plan_cache", "skeleton_cache", "binding_cache"):
        assert caches[level]["entries"] == 0
    assert wh.template_queries == {}
    # Same SQL no longer serves the pre-tuning cached plan.
    post_bound, post_choice = wh.plan(sql, SLA)
    assert post_bound.table_names == [mv.action.name]
    assert plan_snapshot(post_choice) != plan_snapshot(cached_choice)


# --------------------------------------------------------------------- #
# Regression: the old string-round-trip failure modes (satellite 2)
# --------------------------------------------------------------------- #
def test_apply_survives_missing_template_binding():
    """The old apply path silently ``continue``d when the accepted MV's
    template binding had gone stale; the typed action carries the
    candidate, so apply no longer consults template bindings at all."""
    wh = stats_warehouse()
    recs = wh.tuning.propose()
    mv = next(r for r in recs if isinstance(r.action, MaterializeView))
    wh._template_queries.clear()  # simulate the stale-binding condition
    wh.tuning.apply(mv)
    assert mv.applied
    assert wh.catalog.has_view(mv.action.name)


def test_recluster_identifiers_containing_on_are_not_mangled():
    # Pin the old failure mode: name parsing mis-splits the table.
    candidate = ReclusterCandidate(table="events_on_disk", key="ts")
    old_parse = candidate.name.removeprefix("recluster_").split("_on_")
    assert old_parse[0] != candidate.table  # the bug the redesign kills

    catalog = Catalog()
    schema = TableSchema(
        "events_on_disk",
        (Column("ts", DataType.FLOAT64), Column("v", DataType.FLOAT64)),
    )
    catalog.register_table(
        TableEntry(
            schema=schema,
            stats=TableStats(table="events_on_disk", row_count=1000, column_stats={}),
            storage_bytes=16_000,
            num_partitions=4,
        )
    )
    wh = CostIntelligentWarehouse(catalog=catalog)
    report = TuningReport(
        action_name=candidate.name,
        kind="recluster",
        savings_per_hour=1.0,
        cost_per_hour=0.0,
        one_time_dollars=0.5,
        candidate=candidate,
    )
    rec = Recommendation(rec_id=903, action=Recluster(candidate), report=report)
    wh.tuning.accept(rec)
    wh.tuning.apply(rec)
    assert wh.catalog.table("events_on_disk").schema.clustering_key == "ts"


# --------------------------------------------------------------------- #
# Lifecycle enforcement
# --------------------------------------------------------------------- #
def test_lifecycle_transitions_enforced():
    wh = stats_warehouse()
    recs = wh.tuning.propose()
    mv = next(r for r in recs if isinstance(r.action, MaterializeView))

    rejected = Recommendation(rec_id=904, action=mv.action, report=mv.report)
    wh.tuning.reject(rejected)
    with pytest.raises(TuningStateError):
        wh.tuning.apply(rejected)  # rejected recommendations don't apply
    with pytest.raises(TuningStateError):
        wh.tuning.rollback(mv)  # not applied yet

    wh.tuning.apply(mv)
    with pytest.raises(TuningStateError):
        wh.tuning.apply(mv)  # double-apply
    wh.tuning.rollback(mv)
    with pytest.raises(TuningStateError):
        wh.tuning.rollback(mv)  # double-rollback


def test_resize_warehouse_action_is_typed_but_not_executable():
    wh = stats_warehouse()
    action = ResizeWarehouse(target_nodes=8)
    report = TuningReport(
        action_name=action.name,
        kind=action.kind,
        savings_per_hour=1.0,
        cost_per_hour=0.0,
        one_time_dollars=0.0,
    )
    rec = Recommendation(rec_id=905, action=action, report=report)
    wh.tuning.accept(rec)
    with pytest.raises(TuningError):
        wh.tuning.apply(rec)
    assert rec.state is RecommendationState.FAILED
    assert rec.error is not None


def test_apply_all_continues_past_duplicate_recommendations():
    """Two cycles without an apply in between both accept the same MV;
    apply_all must not strand later recommendations when the duplicate
    fails (regression: the loop used to abort mid-batch)."""
    wh = stats_warehouse()
    first = wh.tuning.propose()
    second = wh.tuning.propose()
    applied = wh.tuning.apply_all(first + second)
    names = [rec.action.name for rec in applied]
    assert len(names) == len(set(names))  # each action applied once
    duplicates = [
        rec
        for rec in second
        if rec.state is RecommendationState.FAILED
        and isinstance(rec.error, TuningError)
    ]
    assert duplicates  # the clash is carried on the rec, not raised
    assert wh.catalog.has_view(applied[0].action.name)


def test_background_failures_do_not_fail_foreground_serving(monkeypatch):
    """Engine-level errors during an auto-applied action stay on the
    recommendation; the triggering submit must still succeed."""
    from repro.errors import CatalogError

    policy = TuningPolicy(cadence_queries=6, auto_apply=True)
    wh = CostIntelligentWarehouse(
        catalog=synthetic_tpch_catalog(1.0), tuning_policy=policy
    )

    def broken_apply(candidate, undo):
        raise CatalogError("simulated engine failure during materialization")

    monkeypatch.setattr(wh.tuning.background, "apply_mv", broken_apply)
    session = wh.session(tenant="alpha", constraint=SLA)
    handles = session.submit_many(
        [
            QueryRequest(
                sql=Q5ISH.format(r=i % 3),
                template="q5ish",
                at_time=30.0 * i,
                simulate=False,
            )
            for i in range(6)
        ]
    )
    assert all(not h.failed for h in handles)  # serving unaffected
    assert wh.tuning.cycles_run == 1
    failed = [
        r
        for r in wh.tuning.recommendations
        if r.state is RecommendationState.FAILED
    ]
    assert failed and isinstance(failed[0].error, CatalogError)


def test_double_apply_of_same_mv_name_is_rejected_before_mutation():
    wh = stats_warehouse()
    recs = wh.tuning.propose()
    mv = next(r for r in recs if isinstance(r.action, MaterializeView))
    wh.tuning.apply(mv)
    clone = Recommendation(rec_id=906, action=mv.action, report=mv.report)
    wh.tuning.accept(clone)
    with pytest.raises(TuningError):
        wh.tuning.apply(clone)  # name already in the catalog
    assert clone.state is RecommendationState.FAILED
    assert wh.catalog.has_view(mv.action.name)  # original untouched


# --------------------------------------------------------------------- #
# Background dollars metered per originating tenant
# --------------------------------------------------------------------- #
def test_background_dollars_attributed_to_originating_tenants():
    wh = stats_warehouse(tenants=(("alpha", 4), ("beta", 2)))
    recs = wh.tuning.propose()
    mv = next(r for r in recs if isinstance(r.action, MaterializeView))
    assert mv.tenant_shares == pytest.approx({"alpha": 4 / 6, "beta": 2 / 6})
    serving_dollars = wh.billed_dollars
    wh.tuning.apply(mv)

    one_time = mv.report.one_time_dollars
    assert wh.billing["alpha"].background_dollars == pytest.approx(
        one_time * 4 / 6
    )
    assert wh.billing["beta"].background_dollars == pytest.approx(
        one_time * 2 / 6
    )
    assert wh.background_dollars == pytest.approx(one_time)
    # Serving dollars stay separate (and untouched by tuning spend).
    assert wh.billed_dollars == serving_dollars
    assert wh.billing["alpha"].total_dollars == pytest.approx(
        wh.billing["alpha"].dollars + one_time * 4 / 6
    )
    assert "background" in wh.describe_billing()


# --------------------------------------------------------------------- #
# TuningPolicy: serving-driven recurring cycles, forecast-fed auto-apply
# --------------------------------------------------------------------- #
def test_policy_cadence_drives_cycles_from_serving_layer():
    policy = TuningPolicy(cadence_queries=6, auto_apply=True)
    wh = CostIntelligentWarehouse(
        catalog=synthetic_tpch_catalog(1.0), tuning_policy=policy
    )
    session = wh.session(tenant="alpha", constraint=SLA)
    requests = [
        QueryRequest(
            sql=Q5ISH.format(r=i % 3),
            template="q5ish",
            at_time=30.0 * i,
            simulate=False,
        )
        for i in range(6)
    ]
    session.submit_many(requests)
    # The batch crossed the cadence: a cycle ran and auto-applied.
    assert wh.tuning.cycles_run == 1
    applied = wh.tuning.applied_recommendations
    assert applied and all(r.applied for r in applied)
    assert wh.catalog.has_view(applied[0].action.name)


def test_auto_apply_gated_by_break_even_forecast():
    policy = TuningPolicy(
        cadence_queries=6, auto_apply=True, auto_apply_break_even_hours=1e-12
    )
    wh = CostIntelligentWarehouse(
        catalog=synthetic_tpch_catalog(1.0), tuning_policy=policy
    )
    session = wh.session(tenant="alpha", constraint=SLA)
    session.submit_many(
        [
            QueryRequest(
                sql=Q5ISH.format(r=i % 3),
                template="q5ish",
                at_time=30.0 * i,
                simulate=False,
            )
            for i in range(6)
        ]
    )
    assert wh.tuning.cycles_run == 1
    # No recommendation clears a ~zero break-even horizon: accepted ones
    # wait for a human instead of auto-applying.
    assert not wh.tuning.applied_recommendations
    assert any(r.accepted for r in wh.tuning.recommendations)


def test_policy_tenant_scope_restricts_advisor_input():
    wh = stats_warehouse(tenants=(("alpha", 6), ("beta", 6)))
    from repro.tuning.service import TuningService

    scoped = TuningService(wh, TuningPolicy(tenant="beta"))
    recs = scoped.propose()
    for rec in recs:
        assert rec.tenant_shares == {"beta": 1.0}


def test_policy_validation():
    with pytest.raises(TuningError):
        TuningPolicy(cadence_queries=0)
    with pytest.raises(TuningError):
        TuningPolicy(cadence_seconds=-1.0)
    assert not TuningPolicy().recurring
    assert TuningPolicy(cadence_seconds=60.0).recurring
