"""Memory and checkpoint size as the served history grows.

    python3 benchmarks/growth.py --queries 8192 --seed 1

Serves TPC-H report templates round-robin, every literal new, inline in
batches of 32, on two warehouses over a stats-only SF-100 catalog:

- ``journaled``: a write-ahead journal checkpointing every 512 records,
  snapshot collection every 256 queries;
- ``journal-free``: no journal, no collection.

After 512, 1,024, 2,048, 4,096 and 8,192 queries (those up to
``--queries``) it prints, per warehouse:

- ``heap_mb``: ``tracemalloc``'s traced heap after ``gc.collect()``
  (tracing starts before the catalog is built);
- ``checkpoint_mb``: the newest checkpoint's pickled bytes — journal-free,
  ``ledger.snapshot()``'s, which is what a checkpoint would carry.  A
  checkpoint holds no copy of the log window;
- ``journal_mb``: the retained entries' pickled bytes, which is what
  ``WriteAheadJournal.save`` writes: the window's records, the newest
  checkpoint and the records since (``-`` journal-free);
- ``retained``: the journal's retained entries (``-`` journal-free).

Each warehouse runs in a fresh interpreter, so neither heap is read with
process-wide memos (the SQL parameterizer's LRU, the perturbation draws)
that the other run filled.  The exit code is 1 if a query failed, else
0; no size is gated.
"""

from __future__ import annotations

import argparse
import gc
import multiprocessing
import pickle
import sys
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.journal import WriteAheadJournal  # noqa: E402
from repro.core.service import QueryRequest, QueryState  # noqa: E402
from repro.core.warehouse import CostIntelligentWarehouse  # noqa: E402
from repro.dop.constraints import sla_constraint  # noqa: E402
from repro.workloads.tpch_queries import instantiate, template_names  # noqa: E402
from repro.workloads.tpch_stats import synthetic_tpch_catalog  # noqa: E402

MARKS = (512, 1024, 2048, 4096, 8192)
BATCH = 32
CHECKPOINT_EVERY = 512
COLLECT_EVERY = 256
SCALE_FACTOR = 100.0
SLA = sla_constraint(20.0)


@dataclass(frozen=True)
class Row:
    """One warehouse's sizes after ``queries`` served queries."""

    run: str
    queries: int
    heap_mb: float
    checkpoint_mb: float
    journal_mb: float | None
    retained: int | None
    failed: int


def grow(journaled: bool, marks: tuple[int, ...], seed: int) -> list[Row]:
    """Serve up to ``marks[-1]`` queries on one fresh warehouse; one row
    per mark.  The heap is read with nothing of the run referenced but
    the warehouse: serving and sizing happen in helpers whose handles,
    checkpoint entries and pickled bytes die on return."""
    gc.collect()
    tracemalloc.start()
    try:
        catalog = synthetic_tpch_catalog(SCALE_FACTOR)
        journal = WriteAheadJournal(checkpoint_every=CHECKPOINT_EVERY) if journaled else None
        warehouse = CostIntelligentWarehouse(catalog=catalog, journal=journal)
        if journaled:
            warehouse.enable_collection(cadence_queries=COLLECT_EVERY)
        session = warehouse.session(tenant="reports", constraint=SLA)
        rows: list[Row] = []
        served = failed = 0
        for mark in marks:
            while served < mark:
                failed += serve_batch(session, served, seed)
                served += BATCH
            gc.collect()
            heap = tracemalloc.get_traced_memory()[0]
            checkpoint_bytes, journal_bytes, retained = durable_sizes(warehouse)
            rows.append(
                Row(
                    run="journaled" if journaled else "journal-free",
                    queries=served,
                    heap_mb=heap / 2**20,
                    checkpoint_mb=checkpoint_bytes / 2**20,
                    journal_mb=None if journal_bytes is None else journal_bytes / 2**20,
                    retained=retained,
                    failed=failed,
                )
            )
        return rows
    finally:
        tracemalloc.stop()


def serve_batch(session, start: int, seed: int) -> int:
    """Serve report instances ``start`` … ``start + BATCH - 1``; returns
    how many failed."""
    names = template_names()
    requests = [
        QueryRequest(sql=instantiate(names[i % len(names)], seed=seed * 2**20 + i))
        for i in range(start, start + BATCH)
    ]
    handles = session.submit_many(requests)
    return sum(handle.state is not QueryState.DONE for handle in handles)


def durable_sizes(
    warehouse: CostIntelligentWarehouse,
) -> tuple[int, int | None, int | None]:
    """The newest checkpoint's pickled bytes, the retained entries'
    pickled bytes and their count; journal-free,
    ``ledger.snapshot()``'s bytes and ``None`` twice."""
    journal = warehouse.journal
    if journal is None:
        return len(pickle.dumps(warehouse.ledger.snapshot())), None, None
    newest = journal.last_checkpoint()
    checkpoint = len(pickle.dumps(newest.record)) if newest is not None else 0
    entries = journal.entries()
    return checkpoint, len(pickle.dumps(entries)), len(entries)


def grow_in_child(journaled: bool, marks: tuple[int, ...], seed: int) -> list[Row]:
    """:func:`grow` in a fresh spawned interpreter."""
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        return pool.submit(grow, journaled, marks, seed).result()


def format_rows(rows: list[Row]) -> str:
    lines = [
        f"{'run':<13} {'queries':>7} {'heap_mb':>8} {'checkpoint_mb':>13} "
        f"{'journal_mb':>10} {'retained':>8}"
    ]
    for row in rows:
        journal = "-" if row.journal_mb is None else f"{row.journal_mb:.3f}"
        retained = "-" if row.retained is None else str(row.retained)
        lines.append(
            f"{row.run:<13} {row.queries:>7} {row.heap_mb:>8.2f} "
            f"{row.checkpoint_mb:>13.3f} {journal:>10} {retained:>8}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--queries", type=int, default=MARKS[-1])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    marks = tuple(mark for mark in MARKS if mark <= args.queries) or (args.queries,)
    rows = [
        row
        for journaled in (True, False)
        for row in grow_in_child(journaled, marks, args.seed)
    ]
    print(format_rows(rows))
    failed = sum(row.failed for row in rows if row.queries == marks[-1])
    if failed:
        print(f"{failed} queries failed", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
