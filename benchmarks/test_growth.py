"""Smoke test of ``benchmarks/growth.py`` at 1,024 queries."""

from __future__ import annotations

import gc
import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from growth import BATCH, CHECKPOINT_EVERY, format_rows, grow, main  # noqa: E402

from repro.core.journal import Checkpoint  # noqa: E402
from repro.core.service import QueryHandle  # noqa: E402
from repro.sql.parameterize import parameterize_sql  # noqa: E402


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


def test_the_heap_is_read_with_nothing_of_the_run_held(monkeypatch):
    """At each heap read the last batch's handles, the previous mark's
    checkpoint entry and its pickled bytes are garbage: the only live
    checkpoint is the journal's newest."""
    read = tracemalloc.get_traced_memory
    seen = []

    def probe():
        objects = gc.get_objects()
        held_bytes = [
            name
            for name, value in sys._getframe(1).f_locals.items()
            if isinstance(value, bytes)
        ]
        seen.append(
            (
                sum(isinstance(o, QueryHandle) for o in objects),
                sum(isinstance(o, Checkpoint) for o in objects),
                held_bytes,
            )
        )
        return read()

    monkeypatch.setattr(tracemalloc, "get_traced_memory", probe)
    grow(True, (512, 1024), seed=1)
    assert seen == [(0, 1, []), (0, 1, [])]


def test_growth_main_exits_zero(capsys):
    # Nothing is parameterized in this process: a run cannot read its
    # heap with memos the other run filled.  (A seed no other test
    # serves, so a run here would miss.)
    misses = parameterize_sql.cache_info().misses
    assert main(["--queries", str(BATCH), "--seed", "3"]) == 0
    assert "journal-free" in capsys.readouterr().out
    assert parameterize_sql.cache_info().misses == misses
