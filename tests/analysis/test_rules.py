"""Fixture corpus: every architecture rule fires, suppresses, and
stays quiet on the idiomatic version of the same code."""

from __future__ import annotations

import ast
from dataclasses import dataclass

import pytest

from tests.analysis.shape_rules import CHECKS, justification


@dataclass(frozen=True)
class Fixture:
    path: str  # where the snippet pretends to live (drives scoping)
    bad: str  # yields >= 1 finding of the rule
    good: str  # idiomatic equivalent, clean for the rule

CORPUS: dict[str, Fixture] = {
    "bare-except": Fixture(
        path="src/repro/core/snippet.py",
        bad=(
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    except:\n"
            "        pass\n"
        ),
        good=(
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    except Exception:\n"
            "        pass\n"
        ),
    ),
    "wall-clock": Fixture(
        path="src/repro/core/snippet.py",
        bad=(
            "import time\n"
            "def f():\n"
            "    return time.time()\n"
        ),
        good=(
            "import time\n"
            "from repro.util.rng import derive_rng\n"
            "def f(seed):\n"
            "    started = time.perf_counter()\n"
            "    rng = derive_rng(seed, 'jitter')\n"
            "    return started, rng.random()\n"
        ),
    ),
    "float-billing": Fixture(
        path="src/repro/core/snippet.py",
        bad=(
            "class Stats:\n"
            "    def note(self, dollars):\n"
            "        self.retry_dollars += dollars\n"
        ),
        good=(
            "from repro.util.units import to_ledger_units\n"
            "class Stats:\n"
            "    def note(self, dollars):\n"
            "        self._retry_units += to_ledger_units(dollars)\n"
        ),
    ),
    "metric-name": Fixture(
        path="src/repro/core/snippet.py",
        bad=(
            "def f(self, tenant):\n"
            "    self.metrics.counter('totally_undeclared_metric', "
            "tenant=tenant)\n"
        ),
        good=(
            "def f(self, tenant):\n"
            "    self.metrics.counter('repro_queries_failed_total', "
            "tenant=tenant)\n"
        ),
    ),
    "stage-guard": Fixture(
        path="src/repro/core/snippet.py",
        bad=(
            "def f(guard, fn):\n"
            "    try:\n"
            "        return guard.run('bind', fn)\n"
            "    except Exception:\n"
            "        return None\n"
        ),
        good=(
            "def f(guard, fn):\n"
            "    try:\n"
            "        return guard.run('bind', fn)\n"
            "    except DeadlineExceededError:\n"
            "        return None\n"
        ),
    ),
    "naked-acquire": Fixture(
        path="src/repro/core/snippet.py",
        bad=(
            "def f(self):\n"
            "    self._lock.acquire()\n"
            "    try:\n"
            "        work()\n"
            "    finally:\n"
            "        self._lock.release()\n"
        ),
        good=(
            "def f(self):\n"
            "    with self._lock:\n"
            "        work()\n"
        ),
    ),
    "picklable-record": Fixture(
        path="src/repro/core/journal.py",
        bad=(
            "from dataclasses import dataclass\n"
            "from typing import Callable\n"
            "@dataclass(frozen=True)\n"
            "class BadRecord:\n"
            "    undo: Callable[[], None]\n"
        ),
        good=(
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class GoodRecord:\n"
            "    name: str\n"
            "    dollars: float\n"
            "    tables: tuple[str, ...]\n"
        ),
    ),
    "process-memo": Fixture(
        path="src/repro/sql/snippet.py",
        bad=(
            "import functools\n"
            "_SEEN = {}\n"
            "@functools.lru_cache(maxsize=None)\n"
            "def split(text):\n"
            "    return tuple(text.split())\n"
            "def remember(key, value):\n"
            "    _SEEN[key] = value\n"
        ),
        good=(
            "_LIMITS = {'small': 1}\n"
            "class Splitter:\n"
            "    def __init__(self):\n"
            "        self.seen = {}\n"
            "    def remember(self, key, value):\n"
            "        self.seen[key] = value\n"
            "def limit(name):\n"
            "    return _LIMITS[name]\n"
        ),
    ),
}


def findings_for(rule_id: str, source: str, path: str):
    """``(active, suppressed)`` ``(line, message)`` pairs of one check."""
    lines = source.splitlines()
    found = list(CHECKS[rule_id](path, ast.parse(source), lines))
    suppressed = [f for f in found if justification(rule_id, f[0], lines)]
    return [f for f in found if f not in suppressed], suppressed


def test_corpus_covers_every_registered_rule():
    assert set(CORPUS) == set(CHECKS)


@pytest.mark.parametrize("rule_id", sorted(CHECKS))
def test_every_rule_fires_and_suppresses(rule_id):
    fixture = CORPUS[rule_id]
    fired, _ = findings_for(rule_id, fixture.bad, fixture.path)
    assert fired, f"{rule_id}: bad fixture did not fire"
    for line, message in fired:
        assert message and line > 0

    # an inline justified lint-allow on each offending line suppresses
    lines = fixture.bad.splitlines()
    for line in sorted({line for line, _ in fired}):
        lines[line - 1] += f"  # lint-allow: {rule_id} corpus fixture"
    active, suppressed = findings_for(
        rule_id, "\n".join(lines) + "\n", fixture.path
    )
    assert active == [], f"{rule_id}: suppression did not take"
    assert suppressed, f"{rule_id}: suppression not reported"

    # the idiomatic version is clean with no suppression at all
    clean, _ = findings_for(rule_id, fixture.good, fixture.path)
    assert clean == [], f"{rule_id}: good fixture fired {clean}"


# --------------------------------------------------------------------- #
# Rule-specific edges
# --------------------------------------------------------------------- #
def test_bare_except_variants_and_testing_exemption():
    src = "try:\n    f()\nexcept BaseException:\n    pass\n"
    fired, _ = findings_for("bare-except", src, "src/repro/core/x.py")
    assert len(fired) == 1
    # repro/testing is the one package allowed to catch crashes
    fired, _ = findings_for("bare-except", src, "src/repro/testing/x.py")
    assert fired == []
    # tuple form with BaseException inside
    src = "try:\n    f()\nexcept (ValueError, BaseException):\n    pass\n"
    fired, _ = findings_for("bare-except", src, "src/repro/core/x.py")
    assert len(fired) == 1


def test_wall_clock_catches_randomness_and_scopes_to_deterministic_pkgs():
    bad_rng = "import random\nx = random.random()\n"
    fired, _ = findings_for("wall-clock", bad_rng, "src/repro/tuning/x.py")
    assert len(fired) == 1
    bad_np = "import numpy as np\nrng = np.random.default_rng()\n"
    fired, _ = findings_for("wall-clock", bad_np, "src/repro/statsvc/x.py")
    assert len(fired) == 1
    good_np = "import numpy as np\nrng = np.random.default_rng(42)\n"
    fired, _ = findings_for("wall-clock", good_np, "src/repro/statsvc/x.py")
    assert fired == []
    bad_global = "import numpy as np\nx = np.random.rand(3)\n"
    fired, _ = findings_for("wall-clock", bad_global, "src/repro/core/x.py")
    assert len(fired) == 1
    # out of scope: benchmarks and the engine may read the clock
    wall = "import time\nx = time.time()\n"
    fired, _ = findings_for("wall-clock", wall, "src/repro/bench/x.py")
    assert fired == []


def test_float_billing_ignores_non_dollar_accumulators():
    src = "class S:\n    def f(self, n):\n        self.rows += n\n"
    fired, _ = findings_for("float-billing", src, "src/repro/core/x.py")
    assert fired == []


def test_metric_name_flags_dynamic_names_and_skips_other_receivers():
    dynamic = (
        "def f(self, name):\n"
        "    self.metrics.counter(name)\n"
    )
    fired, _ = findings_for("metric-name", dynamic, "src/repro/core/x.py")
    assert len(fired) == 1
    assert "non-literal" in fired[0][1]
    # reads are audited too: a typo'd read returns zero forever
    read = "def f(self):\n    return self.metrics.value('no_such_metric')\n"
    fired, _ = findings_for("metric-name", read, "src/repro/core/x.py")
    assert len(fired) == 1
    # unrelated receivers with the same method names are not metrics
    benign = "def f(self):\n    self.votes.counter('yes')\n"
    fired, _ = findings_for("metric-name", benign, "src/repro/core/x.py")
    assert fired == []
    # the registry's own implementation is exempt (it validates at runtime)
    impl = (
        "class MetricsRegistry:\n"
        "    def value(self, name):\n"
        "        return self.registry.value(name)\n"
    )
    fired, _ = findings_for("metric-name", impl, "src/repro/obsvc/metrics.py")
    assert fired == []


def test_stage_guard_allows_unrelated_try_and_flags_variable_receiver():
    unrelated = (
        "def f():\n"
        "    try:\n"
        "        parse()\n"
        "    except Exception:\n"
        "        pass\n"
    )
    fired, _ = findings_for("stage-guard", unrelated, "src/repro/core/x.py")
    assert fired == []
    for call in ("self._faults.fire('crash_pre_write')", "faults.decide('bind')"):
        fault_point = (
            "def f(self, faults):\n"
            "    try:\n"
            f"        {call}\n"
            "    except BaseException:\n"
            "        pass\n"
        )
        fired, _ = findings_for("stage-guard", fault_point, "src/repro/core/x.py")
        assert len(fired) == 1, call
        allowed = fault_point.replace(
            "except BaseException:", "except BaseException:  # lint-allow: stage-guard why"
        )
        fired, suppressed = findings_for("stage-guard", allowed, "src/repro/core/x.py")
        assert fired == [] and len(suppressed) == 1, call
    # the same method names on another receiver are not fault points
    other = fault_point.replace("faults.decide('bind')", "self.rocket.fire('x')")
    fired, _ = findings_for("stage-guard", other, "src/repro/core/x.py")
    assert fired == []


def test_naked_acquire_ignores_compute_pool_leases():
    src = "def f(self, n):\n    self.pool.acquire(n)\n    self.pool.release(n)\n"
    fired, _ = findings_for("naked-acquire", src, "src/repro/compute/x.py")
    assert fired == []


def test_picklable_record_checks_error_init_annotations():
    bad = (
        "import threading\n"
        "class CustomStateError(Exception):\n"
        "    def __init__(self, message: str, lock: threading.Lock) -> None:\n"
        "        pass\n"
    )
    fired, _ = findings_for("picklable-record", bad, "src/repro/errors.py")
    assert len(fired) == 1
    assert "CustomStateError.lock" in fired[0][1]


def test_process_memo_reports_the_definition_and_skips_tests():
    src = (
        "from collections import OrderedDict\n"
        "from functools import cache\n"
        "_PARSES = OrderedDict()\n"
        "_NAMES = ('a', 'b')\n"
        "@cache\n"
        "def f(x):\n"
        "    _PARSES.move_to_end(x)\n"
        "    return x in _NAMES\n"
    )
    fired, _ = findings_for("process-memo", src, "src/repro/core/x.py")
    assert [line for line, _ in fired] == [5, 3]  # the decorator, the definition
    assert "_PARSES is written in f()" in fired[1][1]
    # tests may keep module-level state of their own
    fired, _ = findings_for("process-memo", src, "tests/core/test_x.py")
    assert fired == []
