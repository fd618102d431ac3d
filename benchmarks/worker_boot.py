"""What a planner worker process costs to boot and to keep.

    python3 benchmarks/worker_boot.py --boots 10 --queries 1600 --seed 1

On the ``mixed_durable_processes`` warehouse set-up of the end-to-end
benchmark (stats-only SF-100 catalog, journal, collection, four tenants
under admission budgets), in a fresh spawned interpreter, it prints:

- ``boot_s``: the median wall of ``--boots`` ``enable_sharding(workers=1)``
  calls (spawn, imports, spec unpickle, shard build, handshake), each
  pool closed again before the next;
- ``restart_s``: the median wall of ``--boots`` crash restarts
  (``PlannerWorkerPool._restart``) of a live one-worker pool;
- ``hwm_mb``: after ``--queries`` queries of the workload's mix served
  through that pool, the live worker's peak resident set (``VmHWM`` in
  ``/proc/<pid>/status``);
- ``numpy``: whether numpy's files are mapped into the worker
  (``/proc/<pid>/maps``).

The last two read ``-`` where there is no ``/proc`` (not Linux).  The
end-to-end harness cannot see either: its ``peak_rss_mb`` reads the
coordinator and its reaped children, and a worker is alive until the
run closes its pool.  The exit code is 1 if a query failed, else 0; no
figure is gated.
"""

from __future__ import annotations

import argparse
import multiprocessing
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE / "e2e"))

WORKLOAD = "mixed_durable_processes"


@dataclass(frozen=True)
class Boot:
    """One set-up's worker figures (``None``: no ``/proc`` to read)."""

    boots: int
    boot_s: float
    restart_s: float
    served: int
    failed: int
    hwm_mb: float | None
    numpy_mapped: bool | None


def timed(action) -> float:
    started = time.perf_counter()
    action()
    return time.perf_counter() - started


def worker_memory(pid: int) -> tuple[float | None, bool | None]:
    """The process's ``VmHWM`` in MB and whether numpy is mapped into it."""
    proc = Path(f"/proc/{pid}")
    if not proc.is_dir():
        return None, None
    status = (proc / "status").read_text().splitlines()
    (hwm_kb,) = [int(line.split()[1]) for line in status if line.startswith("VmHWM:")]
    mapped = "/numpy/" in (proc / "maps").read_text()
    return hwm_kb / 1024, mapped


def measure(boots: int, queries: int, seed: int) -> Boot:
    """Boot, restart and load one planner worker on a fresh set-up.

    Imports here, not at the top: a spawned worker re-imports the
    spawning process's main module, which would otherwise load the
    warehouse and numpy into every worker this script measures."""
    from e2e_workloads import WORKLOADS, deploy, generate_calls, with_count

    from repro.core.service import QueryState

    workload = with_count(WORKLOADS[WORKLOAD], queries, warmup=0)
    deployment = deploy(workload, workers=0)
    warehouse = deployment.warehouse
    try:
        boot_s = []
        for _ in range(boots):
            boot_s.append(timed(lambda: warehouse.enable_sharding(workers=1)))
            warehouse.disable_sharding()
        warehouse.enable_sharding(workers=1)
        pool = warehouse.worker_pool
        restart_s = [timed(lambda: pool._restart(0)) for _ in range(boots)]
        _, calls = generate_calls(workload, seed)
        handles = [handle for call in calls for handle in deployment.serve(call)]
        failed = sum(handle.state is not QueryState.DONE for handle in handles)
        hwm_mb, numpy_mapped = worker_memory(pool._procs[0].pid)
    finally:
        deployment.close()
    return Boot(
        boots=boots,
        boot_s=statistics.median(boot_s),
        restart_s=statistics.median(restart_s),
        served=len(handles),
        failed=failed,
        hwm_mb=hwm_mb,
        numpy_mapped=numpy_mapped,
    )


def measure_in_child(boots: int, queries: int, seed: int) -> Boot:
    """:func:`measure` in a fresh spawned interpreter."""
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        return pool.submit(measure, boots, queries, seed).result()


def format_boot(boot: Boot) -> str:
    hwm = "-" if boot.hwm_mb is None else f"{boot.hwm_mb:.1f}"
    mapped = "-" if boot.numpy_mapped is None else ("yes" if boot.numpy_mapped else "no")
    return "\n".join(
        (
            f"{'boots':>5} {'boot_s':>7} {'restart_s':>9} {'served':>6} "
            f"{'hwm_mb':>7} {'numpy':>5}",
            f"{boot.boots:>5} {boot.boot_s:>7.3f} {boot.restart_s:>9.3f} "
            f"{boot.served:>6} {hwm:>7} {mapped:>5}",
        )
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--boots", type=int, default=10)
    parser.add_argument("--queries", type=int, default=1600)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    boot = measure_in_child(args.boots, args.queries, args.seed)
    print(format_boot(boot))
    if boot.failed:
        print(f"{boot.failed} queries failed", file=sys.stderr)
    return 1 if boot.failed else 0


if __name__ == "__main__":
    sys.exit(main())
