"""The verdict rule and the ``--record`` entry of ``benchmarks/compare.py``
on fixed numbers."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from compare import (  # noqa: E402
    SPEC,
    append_record,
    quartiles,
    record,
    verdict,
    within_bound,
)

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


def test_a_record_holds_every_metric_of_the_contract(tmp_path):
    """A fake pair of ten runs: the change is 5 % faster on every
    metric's better side, equal on the answers."""
    names = [metric["name"] for metric in SPEC["end_to_end"]]
    answers = {"modeled_dollars_per_query", "constraint_met_share"}

    def runs(scale_for):
        return [
            {"metrics": {name: value * scale_for(name) for name in names}}
            for value in PARENT
        ]

    better = {metric["name"]: metric["better"] for metric in SPEC["end_to_end"]}
    fake = {
        "parent": runs(lambda name: 1.0),
        "change": runs(
            lambda name: 1.0
            if name in answers
            else (1.05 if better[name] == "higher" else 0.95)
        ),
    }
    entry = record("window-tail format", "aaaaaaa", "bbbbbbb-dirty", "reports_batch", fake)
    assert (entry["label"], entry["parent"], entry["change"]) == (
        "window-tail format", "aaaaaaa", "bbbbbbb-dirty"
    )
    assert entry["workload"] == "reports_batch" and entry["pairs"] == 10
    assert set(entry["env"]) == {"cores", "python"}
    assert list(entry["metrics"]) == names
    qps = entry["metrics"]["serve_qps"]
    assert [qps["parent"][key] for key in ("q1", "median", "q3")] == pytest.approx(
        quartiles(PARENT)
    )
    assert qps["change"]["median"] == pytest.approx(105.0)
    assert (qps["wins"], qps["bound"], qps["within_bound"], qps["verdict"]) == (
        10, 0.15, True, "better"
    )
    met = entry["metrics"]["constraint_met_share"]
    assert (met["wins"], met["within_bound"], met["verdict"]) == (0, True, "inconclusive")

    path = tmp_path / "history.json"
    append_record(path, entry)
    append_record(path, entry)
    assert json.loads(path.read_text()) == [entry, entry]
