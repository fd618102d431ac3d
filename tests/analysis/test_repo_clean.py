"""The repo's own gate: src + tests are clean, with no baseline file."""

from __future__ import annotations

from pathlib import Path

from repro.analysis import analyze_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_repo_is_clean():
    report = analyze_paths([REPO_ROOT / "src", REPO_ROOT / "tests"])
    assert report.findings == [], "\n" + "\n".join(
        f.render() for f in report.findings
    )
