"""Tests for nodes, pricing, billing, warm pool, and virtual warehouses."""

import pytest

from repro.compute.billing import BillingMeter, CostBreakdown
from repro.compute.node import NODE_SPECS, node_spec
from repro.compute.pricing import PriceModel, TSHIRT_SIZES, tshirt_for_nodes
from repro.compute.warmpool import WarmPool, WarmPoolConfig
from repro.errors import ComputeError


# --------------------------- nodes ----------------------------------- #
def test_node_specs_known():
    spec = node_spec("standard")
    assert spec.cores == 8
    assert spec.price_per_second == pytest.approx(spec.price_per_hour / 3600)


def test_unknown_node_spec():
    with pytest.raises(KeyError):
        node_spec("quantum")


def test_all_specs_valid():
    for spec in NODE_SPECS.values():
        assert spec.cores > 0 and spec.price_per_hour > 0


# --------------------------- pricing --------------------------------- #
def test_minimum_billing():
    model = PriceModel(minimum_billed_seconds=60.0)
    assert model.billed_seconds(10.0) == 60.0
    assert model.billed_seconds(90.0) == 90.0
    with pytest.raises(ValueError):
        model.billed_seconds(-1.0)


def test_lease_dollars_uses_minimum():
    model = PriceModel(minimum_billed_seconds=60.0)
    spec = node_spec("standard")
    assert model.lease_dollars(spec, 10.0) == pytest.approx(
        60.0 * spec.price_per_second
    )


def test_machine_time_dollars_no_minimum():
    model = PriceModel(minimum_billed_seconds=60.0)
    spec = node_spec("standard")
    assert model.machine_time_dollars(spec, 10.0) == pytest.approx(
        10.0 * spec.price_per_second
    )


def test_tshirt_ladder_doubles():
    sizes = list(TSHIRT_SIZES.values())
    for small, large in zip(sizes, sizes[1:]):
        assert large == 2 * small


def test_tshirt_for_nodes():
    assert tshirt_for_nodes(1) == "XS"
    assert tshirt_for_nodes(3) == "M"
    assert tshirt_for_nodes(1000) == "4XL"


# --------------------------- billing --------------------------------- #
def test_billing_lease_lifecycle():
    meter = BillingMeter(PriceModel(minimum_billed_seconds=1.0))
    spec = node_spec("standard")
    lease = meter.open_lease(spec, 0.0)
    meter.close_lease(lease, 100.0)
    report = meter.breakdown()
    assert report.machine_seconds == 100.0
    assert report.num_leases == 1
    assert report.compute_dollars == pytest.approx(100.0 * spec.price_per_second)


def test_billing_open_lease_requires_now():
    meter = BillingMeter()
    meter.open_lease(node_spec("standard"), 0.0)
    with pytest.raises(ComputeError):
        meter.breakdown()
    report = meter.breakdown(now=50.0)
    assert report.machine_seconds == 50.0


def test_billing_close_before_start_rejected():
    meter = BillingMeter()
    lease = meter.open_lease(node_spec("standard"), 10.0)
    with pytest.raises(ComputeError):
        meter.close_lease(lease, 5.0)


def test_billing_unknown_lease():
    with pytest.raises(ComputeError):
        BillingMeter().close_lease(99, 1.0)


def test_cost_breakdown_add():
    a = CostBreakdown(compute_dollars=1.0, machine_seconds=10.0, num_leases=1)
    b = CostBreakdown(compute_dollars=2.0, machine_seconds=20.0, num_leases=2)
    a.add(b)
    assert a.compute_dollars == 3.0
    assert a.machine_seconds == 30.0
    assert a.num_leases == 3
    assert a.total_dollars == 3.0


# --------------------------- warm pool ------------------------------- #
def test_warm_pool_acquire_release():
    pool = WarmPool(node_spec("standard"), WarmPoolConfig(capacity=4))
    latency = pool.acquire(3)
    assert latency == pool.config.warm_attach_latency_s
    assert pool.available == 1
    pool.release(3)
    assert pool.available == 4


def test_warm_pool_cold_start_when_exhausted():
    pool = WarmPool(node_spec("standard"), WarmPoolConfig(capacity=2))
    latency = pool.acquire(5)
    assert latency == pool.config.cold_start_latency_s
    assert pool.cold_starts == 3
    assert pool.warm_acquires == 2


def test_warm_pool_invalid_counts():
    pool = WarmPool(node_spec("standard"))
    with pytest.raises(ComputeError):
        pool.acquire(0)
    with pytest.raises(ComputeError):
        pool.release(0)

