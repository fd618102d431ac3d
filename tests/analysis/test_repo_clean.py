"""The repo's own gate: src + tests are clean under the shipped
baseline."""

from __future__ import annotations

from pathlib import Path

from repro.analysis import Baseline, analyze_paths
from repro.analysis.__main__ import DEFAULT_BASELINE

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_repo_is_clean_under_shipped_baseline():
    baseline = Baseline.load(DEFAULT_BASELINE)
    report = analyze_paths(
        [REPO_ROOT / "src", REPO_ROOT / "tests"], baseline=baseline
    )
    assert report.findings == [], "\n" + "\n".join(
        f.render() for f in report.findings
    )
    # every baseline entry still earns its keep
    assert report.stale_baseline == [], [
        (e.rule, e.path) for e in report.stale_baseline
    ]
    # and the baseline stays an exception list, not a dumping ground
    assert len(baseline.entries) <= 3
