"""Statistics Service: logs, summaries, join graph, forecasts, sampling."""

import pytest

from repro.errors import ReproError
from repro.statsvc.forecast import WorkloadForecaster
from repro.statsvc.logs import QueryLogStore, QueryRecord
from repro.statsvc.sampling import StatsServiceCostModel, summary_error
from repro.statsvc.summaries import build_summary


def record(
    query_id,
    timestamp,
    template="t1",
    tables=("orders", "lineitem"),
    dollars=0.01,
):
    return QueryRecord(
        query_id=query_id,
        timestamp=timestamp,
        sql="SELECT ...",
        template=template,
        tables=tables,
        columns=tuple(f"{t}.key" for t in tables),
        join_edges=(("orders.o_orderkey", "lineitem.l_orderkey"),)
        if len(tables) > 1
        else (),
        filter_columns=("o_orderdate",),
        latency_s=1.0,
        machine_seconds=4.0,
        dollars=dollars,
        bytes_scanned=1e6,
        sla_seconds=5.0,
    )


@pytest.fixture()
def store():
    store = QueryLogStore()
    for i in range(100):
        store.append(record(i, float(i * 60), template="t1" if i % 2 else "t2"))
    return store


def test_log_ordering_enforced():
    store = QueryLogStore()
    store.append(record(1, 100.0))
    with pytest.raises(ReproError):
        store.append(record(2, 50.0))


def test_log_window(store):
    window = store.window(0.0, 600.0)
    assert len(window) == 10
    assert store.horizon == (0.0, 99 * 60.0)


def test_log_by_template(store):
    grouped = store.by_template()
    assert set(grouped) == {"t1", "t2"}
    assert len(grouped["t1"]) == 50


def test_sla_met_property():
    r = record(1, 0.0)
    assert r.sla_met is True


# --------------------------- summaries -------------------------------- #
def test_summary_counts(store):
    summary = build_summary(list(store))
    assert summary.num_queries == 100
    assert summary.table_access["orders"] == 100
    assert summary.attribute_access["orders.key"] == 100
    assert summary.template_counts["t1"] == 50
    assert summary.total_dollars == pytest.approx(1.0)


def test_sampled_summary_approximates(store):
    reference = build_summary(list(store))
    sampled = build_summary(list(store), sample_rate=0.5, seed=1)
    errors = summary_error(reference, sampled)
    assert errors["attribute_access"] < 0.5
    assert errors["template_counts"] < 0.5


def test_lower_sampling_rate_higher_error(store):
    reference = build_summary(list(store))
    mild = summary_error(reference, build_summary(list(store), sample_rate=0.8, seed=3))
    harsh = summary_error(reference, build_summary(list(store), sample_rate=0.05, seed=3))
    assert harsh["attribute_access"] >= mild["attribute_access"]


def test_invalid_sample_rate(store):
    with pytest.raises(ReproError):
        build_summary(list(store), sample_rate=0.0)


# --------------------------- join graph ------------------------------- #
def test_join_graph_weights(store):
    (edge,) = build_summary(list(store)).join_graph.edges()
    assert (edge.left, edge.right) == ("lineitem.l_orderkey", "orders.o_orderkey")
    assert edge.count == 100
    assert edge.total_dollars == pytest.approx(1.0)


# --------------------------- forecasting ------------------------------ #
def test_periodic_template_detected():
    store = QueryLogStore()
    for i in range(20):
        store.append(record(i, float(i) * 3600.0, template="daily"))
    forecaster = WorkloadForecaster()
    forecast = forecaster.forecast(store)["daily"]
    assert forecast.periodic
    assert forecast.period_s == pytest.approx(3600.0, rel=0.01)
    assert forecast.rate_per_hour == pytest.approx(1.0, rel=0.05)


def test_poisson_template_not_periodic():
    import numpy as np

    rng = np.random.default_rng(0)
    times = np.cumsum(rng.exponential(600.0, size=200))
    store = QueryLogStore()
    for i, t in enumerate(times):
        store.append(record(i, float(t), template="adhoc"))
    forecast = WorkloadForecaster().forecast(store)["adhoc"]
    assert not forecast.periodic
    # ~6 arrivals/hour
    assert forecast.rate_per_hour == pytest.approx(6.0, rel=0.8)


def test_forecast_dollar_rate():
    store = QueryLogStore()
    for i in range(10):
        store.append(record(i, float(i) * 1800.0, template="t", dollars=0.5))
    forecast = WorkloadForecaster().forecast(store)["t"]
    assert forecast.dollars_per_hour == pytest.approx(
        forecast.rate_per_hour * 0.5
    )


# --------------------------- cost model ------------------------------- #
def test_stats_service_cost_scales_with_rate(store):
    model = StatsServiceCostModel()
    summary = build_summary(list(store))
    full = model.total_dollars_per_hour(summary, records_per_hour=10_000)
    sampled_summary = build_summary(list(store), sample_rate=0.1)
    sampled = model.total_dollars_per_hour(sampled_summary, records_per_hour=10_000)
    assert sampled < full


def test_tiering_cheaper_with_more_cold(store):
    model = StatsServiceCostModel()
    summary = build_summary(list(store))
    hot = model.storage_dollars_per_hour(summary, hot_fraction=1.0)
    cold = model.storage_dollars_per_hour(summary, hot_fraction=0.0)
    assert cold < hot


# ---------------- forecasting edge cases (gate auto-apply) ------------ #
# TuningPolicy auto-apply is fed by these forecasts, so degenerate
# arrival patterns must produce sane (never-crashing, never-periodic)
# rates rather than garbage break-even horizons.
def test_forecast_single_arrival_template():
    store = QueryLogStore()
    store.append(record(1, 1200.0, template="once"))
    forecast = WorkloadForecaster().forecast(store)["once"]
    assert not forecast.periodic
    assert forecast.period_s is None
    assert forecast.observed_count == 1
    # One arrival in one (zero-span -> bin-sized) window: 6/hour at the
    # default 600 s bin.
    assert forecast.rate_per_hour == pytest.approx(6.0)


def test_forecast_duplicate_timestamps_not_periodic():
    store = QueryLogStore()
    for i in range(5):
        store.append(record(i, 500.0, template="burst"))
    forecast = WorkloadForecaster().forecast(store)["burst"]
    # All gaps are zero and get filtered; no periodicity claimed.
    assert not forecast.periodic
    assert forecast.period_s is None


def test_forecast_two_arrivals_below_min_observations():
    store = QueryLogStore()
    store.append(record(1, 0.0, template="pair"))
    store.append(record(2, 3600.0, template="pair"))
    periodic, period = WorkloadForecaster()._detect_period(
        __import__("numpy").array([0.0, 3600.0]), 0.0, 3600.0
    )
    assert (periodic, period) == (False, None)
    forecast = WorkloadForecaster().forecast(store)["pair"]
    assert not forecast.periodic


def test_detect_period_irregular_gaps_rejected():
    import numpy as np

    # Gap coefficient-of-variation far above the 0.25 threshold.
    times = np.array([0.0, 100.0, 2000.0, 2100.0, 9000.0, 9050.0])
    periodic, period = WorkloadForecaster()._detect_period(
        times, 0.0, 9050.0
    )
    assert not periodic and period is None


def test_detect_period_tolerates_small_jitter():
    import numpy as np

    rng = np.random.default_rng(7)
    times = np.cumsum(np.full(24, 3600.0) + rng.normal(0.0, 30.0, size=24))
    periodic, period = WorkloadForecaster()._detect_period(
        times, float(times[0]), float(times[-1] - times[0])
    )
    assert periodic
    assert period == pytest.approx(3600.0, rel=0.05)


def test_forecast_template_rejects_empty_records():
    with pytest.raises(ReproError):
        WorkloadForecaster().forecast_template("ghost", [], (0.0, 100.0))


def test_tenant_counts_by_template():
    store = QueryLogStore()
    for i in range(4):
        store.append(record(i, float(i * 60), template="hot"))
    assert store.tenant_counts() == {"default": 4}
    assert store.tenant_counts(templates={"hot"}) == {"default": 4}
    assert store.tenant_counts(templates={"cold"}) == {}
    view = store.for_tenant("default")
    assert view.tenant_counts({"hot"}) == {"default": 4}
    assert store.for_tenant("ghost").tenant_counts() == {}


def test_template_counts_on_store_and_tenant_view():
    store = QueryLogStore()
    for i in range(6):
        store.append(record(i, float(i * 60), template="hot" if i % 2 else "cold"))
    assert store.template_counts() == {"hot": 3, "cold": 3}
    # The per-tenant view mirrors the store's read API over its slice.
    assert store.for_tenant("default").template_counts() == {"hot": 3, "cold": 3}
    assert store.for_tenant("ghost").template_counts() == {}


def test_forecaster_rates_per_family():
    store = QueryLogStore()
    for i in range(12):
        store.append(record(i, float(i * 300), template="hot" if i % 2 else "cold"))
    rates = WorkloadForecaster().rates(store)
    assert set(rates) == {"hot", "cold"}
    forecasts = WorkloadForecaster().forecast(store)
    for family, rate in rates.items():
        assert rate == forecasts[family].rate_per_hour
        assert rate > 0
