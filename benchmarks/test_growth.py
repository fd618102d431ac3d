"""Smoke test of ``benchmarks/growth.py`` at 1,024 queries."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from growth import BATCH, CHECKPOINT_EVERY, format_rows, grow, main  # noqa: E402


def test_growth_reports_a_sealed_journal_at_every_mark():
    rows = [row for journaled in (True, False) for row in grow(journaled, (512, 1024), seed=1)]
    assert not any(row.failed for row in rows)
    assert [(row.run, row.queries) for row in rows] == [
        ("journaled", 512),
        ("journaled", 1024),
        ("journal-free", 512),
        ("journal-free", 1024),
    ]
    # The newest checkpoint and the records since: never more than one
    # interval and one batch, whatever was served before.
    journaled = rows[:2]
    assert all(1 <= row.retained <= CHECKPOINT_EVERY + BATCH for row in journaled)
    assert all(row.retained is None for row in rows[2:])
    assert all(row.heap_mb > 0 and row.checkpoint_mb > 0 for row in rows)
    assert len(format_rows(rows).splitlines()) == 1 + len(rows)


def test_growth_main_exits_zero(capsys):
    assert main(["--queries", str(BATCH)]) == 0
    assert "journal-free" in capsys.readouterr().out
