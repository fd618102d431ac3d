"""The verdict rule of ``benchmarks/compare.py`` on fixed numbers."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from compare import quartiles, verdict, within_bound  # noqa: E402

PARENT = [100.0, 101.0, 99.0, 102.0, 98.0, 100.5, 99.5, 101.5, 98.5, 100.0]


def test_quartiles_of_ten_runs():
    assert quartiles(PARENT) == pytest.approx((99.125, 100.0, 100.875))


def test_nine_wins_and_a_gap_beyond_the_spread_is_better():
    change = [value * 1.05 for value in PARENT]
    change[3] = 90.0  # one loss still leaves nine wins in ten
    assert verdict(PARENT, change, "higher") == "better"
    assert verdict(change, PARENT, "higher") == "worse"
    # The same numbers read as times, where lower is better.
    assert verdict(PARENT, change, "lower") == "worse"


def test_eight_wins_are_inconclusive_however_large_the_gap():
    change = [value * 1.5 for value in PARENT]
    change[0] = change[1] = 50.0
    assert verdict(PARENT, change, "higher") == "inconclusive"


def test_a_gap_inside_the_parents_spread_is_inconclusive():
    # Ten wins, but the median moves by 0.5 against a spread of 1.75.
    change = [value + 0.5 for value in PARENT]
    assert verdict(PARENT, change, "higher") == "inconclusive"


def test_ties_count_for_neither_side():
    assert verdict(PARENT, list(PARENT), "higher") == "inconclusive"
    change = [value + 3.0 for value in PARENT]
    change[0] = PARENT[0]  # a tie: nine wins, no loss
    assert verdict(PARENT, change, "higher") == "better"
    assert verdict(PARENT, change, "lower") == "worse"


def test_unequal_run_counts_are_refused():
    with pytest.raises(ValueError):
        verdict(PARENT, PARENT[:9], "higher")


def test_within_bound_reads_the_better_direction():
    slower = [value * 0.9 for value in PARENT]
    assert within_bound(PARENT, slower, "higher", 0.15)
    assert not within_bound(PARENT, slower, "higher", 0.05)
    assert within_bound(PARENT, slower, "lower", 0.0)
