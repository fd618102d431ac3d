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
from repro.statsvc.logs import WINDOW_RECORDS  # noqa: E402


def test_growth_reports_a_sealed_journal_at_every_mark():
    rows = [row for journaled in (True, False) for row in grow(journaled, (512, 1024), seed=1)]
    assert not any(row.failed for row in rows)
    assert [(row.run, row.queries) for row in rows] == [
        ("journaled", 512),
        ("journaled", 1024),
        ("journal-free", 512),
        ("journal-free", 1024),
    ]
    # The log window's records, the newest checkpoint and the records
    # since: never more than a window, one interval and one batch (with
    # a snapshot and a checkpoint per 256 queries among them), whatever
    # was served before.
    journaled = rows[:2]
    for row in journaled:
        window = min(row.queries, WINDOW_RECORDS)
        bound = window + CHECKPOINT_EVERY + BATCH + 2 * (row.queries // 256 + 1)
        assert window <= row.retained <= bound, (row.retained, bound)
        assert row.journal_mb > row.checkpoint_mb > 0
    assert all(row.retained is None and row.journal_mb is None for row in rows[2:])
    assert all(row.heap_mb > 0 and row.checkpoint_mb > 0 for row in rows)
    table = format_rows(rows).splitlines()
    assert len(table) == 1 + len(rows) and "journal_mb" in table[0].split()


def test_the_heap_is_read_with_nothing_of_the_run_held(monkeypatch):
    """At each heap read the last batch's handles, the sizing's
    checkpoint entries and pickled bytes are garbage: the only live
    checkpoints are those the journal retains (at 1,024 queries, the
    newest and the one inside its log window)."""
    read = tracemalloc.get_traced_memory
    seen = []

    def probe():
        objects = gc.get_objects()
        frame = sys._getframe(1).f_locals
        held_bytes = [name for name, value in frame.items() if isinstance(value, bytes)]
        retained = sum(
            isinstance(entry.record, Checkpoint)
            for entry in frame["warehouse"].journal.entries()
        )
        seen.append(
            (
                sum(isinstance(o, QueryHandle) for o in objects),
                sum(isinstance(o, Checkpoint) for o in objects),
                retained,
                held_bytes,
            )
        )
        return read()

    monkeypatch.setattr(tracemalloc, "get_traced_memory", probe)
    grow(True, (512, 1024), seed=1)
    assert seen == [(0, 1, 1, []), (0, 2, 2, [])]


def test_growth_main_exits_zero(capsys):
    # Nothing is parameterized in this process: a run cannot read its
    # heap with memos the other run filled.  (A seed no other test
    # serves, so a run here would miss.)
    misses = parameterize_sql.cache_info().misses
    assert main(["--queries", str(BATCH), "--seed", "3"]) == 0
    header, journaled, free = capsys.readouterr().out.splitlines()
    columns = header.split()
    assert float(journaled.split()[columns.index("journal_mb")]) > 0
    assert free.split()[columns.index("journal_mb")] == "-"
    assert parameterize_sql.cache_info().misses == misses
