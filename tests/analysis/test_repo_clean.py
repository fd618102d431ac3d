"""The repo's own gate: src + tests pass every shape check, no baseline."""

from __future__ import annotations

from pathlib import Path

from tests.analysis.shape_rules import violations

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_repo_is_clean():
    files = [*(REPO_ROOT / "src").rglob("*.py"), *(REPO_ROOT / "tests").rglob("*.py")]
    assert len(files) > 150  # the walk really covered both trees
    found = [
        finding
        for path in sorted(files)
        for finding in violations(
            path.relative_to(REPO_ROOT).as_posix(), path.read_text(encoding="utf-8")
        )
    ]
    assert found == [], "\n" + "\n".join(found)
