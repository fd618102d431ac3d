"""Unit tests for the lock-order sanitizer (repro.testing.locks)."""

from __future__ import annotations

import threading

import pytest

from repro.core.service import QueryRequest
from repro.core.warehouse import CostIntelligentWarehouse
from repro.dop.constraints import sla_constraint
from repro.testing import (
    LockOrderError,
    LockOrderSanitizer,
    SanitizedLock,
    instrument_warehouse,
)
from repro.workloads.tpch_stats import synthetic_tpch_catalog


def make_pair(sanitizer):
    a = sanitizer.wrap(threading.Lock(), "a")
    b = sanitizer.wrap(threading.Lock(), "b")
    return a, b


def test_wrapper_preserves_lock_semantics():
    sanitizer = LockOrderSanitizer()
    lock = sanitizer.wrap(threading.Lock(), "l")
    assert isinstance(lock, SanitizedLock)
    assert not lock.locked()
    with lock:
        assert lock.locked()
        # non-blocking probe against a held lock fails cleanly and must
        # not corrupt the held-stack bookkeeping
        assert lock.acquire(False) is False
    assert not lock.locked()
    assert sanitizer.acquisitions == 1
    # wrapping an already-wrapped lock is a no-op
    assert sanitizer.wrap(lock, "l2") is lock


def test_consistent_order_is_clean():
    sanitizer = LockOrderSanitizer()
    a, b = make_pair(sanitizer)
    for _ in range(3):
        with a:
            with b:
                pass
    assert sanitizer.edges()["a"] == frozenset({"b"})
    assert sanitizer.violations == []
    sanitizer.assert_clean()


def test_opposite_orders_detected_without_interleaving():
    """a->b in one thread, b->a in another is a latent deadlock even
    when the threads never actually contend."""
    sanitizer = LockOrderSanitizer()
    a, b = make_pair(sanitizer)

    with a:
        with b:
            pass

    def reversed_order():
        with b:
            with a:
                pass

    worker = threading.Thread(target=reversed_order)
    worker.start()
    worker.join()

    assert len(sanitizer.violations) == 1
    assert "a -> b" in sanitizer.violations[0]
    assert "b -> a" in sanitizer.violations[0]
    with pytest.raises(LockOrderError):
        sanitizer.assert_clean()


def test_three_lock_cycle_detected():
    sanitizer = LockOrderSanitizer()
    a = sanitizer.wrap(threading.Lock(), "a")
    b = sanitizer.wrap(threading.Lock(), "b")
    c = sanitizer.wrap(threading.Lock(), "c")

    def ordered(first, second):
        with first:
            with second:
                pass

    for first, second in ((a, b), (b, c)):
        t = threading.Thread(target=ordered, args=(first, second))
        t.start()
        t.join()
    assert sanitizer.violations == []
    t = threading.Thread(target=ordered, args=(c, a))
    t.start()
    t.join()
    assert len(sanitizer.violations) == 1
    assert "a -> b" in sanitizer.violations[0]
    assert "c -> a" in sanitizer.violations[0]


def test_raise_on_cycle_mode():
    sanitizer = LockOrderSanitizer(raise_on_cycle=True)
    a, b = make_pair(sanitizer)
    with a:
        with b:
            pass
    with b:
        with pytest.raises(LockOrderError):
            a.acquire()


def test_reentrant_rlock_makes_no_self_edge():
    sanitizer = LockOrderSanitizer()
    r = sanitizer.wrap(threading.RLock(), "r")
    with r:
        with r:
            pass
    assert sanitizer.violations == []
    assert sanitizer.edges()["r"] == frozenset()


def test_describe_reports_graph():
    sanitizer = LockOrderSanitizer()
    a, b = make_pair(sanitizer)
    with a:
        with b:
            pass
    report = sanitizer.describe()
    assert report["locks"] == ["a", "b"]
    assert ("a", "b") in report["edges"]
    assert report["acquisitions"] == 2
    assert report["violations"] == []


def test_instrument_warehouse_covers_core_locks_and_serving_works():
    wh = CostIntelligentWarehouse(
        catalog=synthetic_tpch_catalog(0.1),
        retention_policy="cost-aware",
    )
    sanitizer = instrument_warehouse(wh)
    assert isinstance(wh.ledger.lock, SanitizedLock)
    for cache in (wh.plan_cache, wh.skeleton_cache, wh.binder.templates):
        assert isinstance(cache.lock, SanitizedLock)
    assert isinstance(wh.admission._lock, SanitizedLock)
    assert isinstance(wh.statsvc_breaker._lock, SanitizedLock)

    session = wh.session(tenant="t", constraint=sla_constraint(30.0))
    requests = [
        QueryRequest(
            sql="SELECT count(*) AS c FROM orders WHERE o_totalprice > 100",
            at_time=30.0 * i,
        )
        for i in range(4)
    ]
    handles = session.submit_many(requests, max_workers=2)
    assert all(h.done for h in handles)
    assert sanitizer.acquisitions > 0
    sanitizer.assert_clean()

    # idempotent: instrumenting again must not double-wrap
    again = instrument_warehouse(wh, sanitizer)
    assert again is sanitizer
    assert isinstance(wh.ledger.lock, SanitizedLock)
    assert not isinstance(wh.ledger.lock._inner_lock, SanitizedLock)
