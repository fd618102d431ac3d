"""A write-ahead journal that also keeps every record it was given.

:class:`~repro.core.journal.WriteAheadJournal` seals at each checkpoint,
so its ``entries()`` begin at the log window's oldest record.  A
reference that folds the whole history from LSN 1 — the generated
histories, the log-window and snapshot-identity tests — reads
:meth:`RecordingJournal.recorded` instead: every appended entry, in LSN
order, independent of the seal.
Recovery, saving and the retained entries are the journal's own.
"""

from __future__ import annotations

import threading

from repro.core.journal import JournalEntry, WriteAheadJournal


class RecordingJournal(WriteAheadJournal):
    """A :class:`WriteAheadJournal` that records every appended entry."""

    def __init__(self, *, checkpoint_every: int | None = None) -> None:
        super().__init__(checkpoint_every=checkpoint_every)
        self._recorded: list[JournalEntry] = []
        # Held across the journal's own append, so concurrent appends
        # are recorded in the LSN order they were stamped in.
        self._recording = threading.Lock()

    def append(self, record: object) -> JournalEntry:
        with self._recording:
            entry = super().append(record)
            self._recorded.append(entry)
        return entry

    def recorded(self) -> list[JournalEntry]:
        """Every entry appended to this object, sealed or retained, in
        LSN order."""
        with self._recording:
            return list(self._recorded)
