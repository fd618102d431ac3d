"""Hits and lookups of every plan-cache level and estimator memo on one
benchmark workload: which tables answer lookups, and which only store.

    python3 benchmarks/memo_traffic.py --workload reports_batch --seed 1

Imports the workload definitions of ``benchmarks/e2e`` (unchanged),
deploys the workload inline — no planner worker processes, so every
walk's counters land in this process — and serves its warm-up pass and
its measured calls through the public serving API.  It then prints, per
plan-cache level and per ``obsvc.metrics.TIMING_CACHE_KINDS`` memo, the
hits and lookups, the same with live entries and capacity for each
process-wide memo (``obsvc.metrics.PROCESS_MEMOS``), and for the DOP
search:

- ``searches``: calls of ``DopPlanner.plan``;
- ``repeats``: searches of a DAG already searched under the same
  constraint, overrides, ``max_dop`` and strictness — all a per-DAG
  plan memo could ever answer;
- ``monitor replans``: the DOP monitor's full replans, and how many of
  them searched (only those with learned cardinalities do);

and ``simulations run``: calls of ``DistributedSimulator.run``, the
simulated executions no plan's ``simulations`` table answered.

A table whose hits stay at zero on every workload answers no lookup.
The exit code is 1 if a query failed, else 0; nothing is timed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from weakref import WeakKeyDictionary

HERE = Path(__file__).resolve().parent


class CallCounts:
    """Counts DOP searches, monitor replans and simulator runs by
    wrapping the three methods for the length of one run."""

    def __init__(self) -> None:
        self.searches = 0
        self.repeats = 0
        self.replans = 0
        self.learned_replans = 0
        self.simulations = 0
        self._searched: WeakKeyDictionary = WeakKeyDictionary()

    def install(self) -> None:
        from repro.cost.estimator import overrides_key
        from repro.dop.planner import DopPlanner
        from repro.monitor.policies import PipelineDopMonitor
        from repro.sim.distsim import DistributedSimulator

        plan, full_replan = DopPlanner.plan, PipelineDopMonitor._full_replan
        run = DistributedSimulator.run

        def counted_plan(planner, dag, constraint, overrides=None):
            key = (
                constraint,
                overrides_key(overrides),
                planner.max_dop,
                planner.enforce_sla_strictly,
            )
            keys = self._searched.setdefault(dag, set())
            self.searches += 1
            self.repeats += key in keys
            keys.add(key)
            return plan(planner, dag, constraint, overrides)

        def counted_replan(monitor, obs):
            before, learned = monitor.replans, bool(monitor.learned)
            decision = full_replan(monitor, obs)
            if monitor.replans > before:
                self.replans += 1
                self.learned_replans += learned
            return decision

        def counted_run(simulator):
            self.simulations += 1
            return run(simulator)

        DopPlanner.plan = counted_plan
        PipelineDopMonitor._full_replan = counted_replan
        DistributedSimulator.run = counted_run


def ratio_row(name: str, hits: int, lookups: int) -> str:
    rate = hits / lookups if lookups else 0.0
    return f"  {name:<18} {hits:>10,} hits / {lookups:>10,} lookups  ({rate:.3f})"


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE / "e2e")]
    import e2e_workloads

    from repro import QueryState
    from repro.obsvc.metrics import TIMING_CACHE_KINDS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", default="reports_batch", choices=sorted(e2e_workloads.WORKLOADS)
    )
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    workload = e2e_workloads.WORKLOADS[args.workload]
    warmup, calls = e2e_workloads.generate_calls(workload, args.seed)
    counts = CallCounts()
    counts.install()
    dep = e2e_workloads.deploy(workload, workers=0)
    try:
        handles = [h for call in warmup + calls for h in dep.serve(call)]
        report = dep.warehouse.describe_caches()
        levels = [name for name, _ in dep.warehouse.planning.levels()]
    finally:
        dep.close()
    failed = sum(handle.state is not QueryState.DONE for handle in handles)

    print(f"{args.workload} seed {args.seed}: {len(handles):,} queries, {failed} failed")
    print("plan-cache levels")
    for name in levels:
        level = report[f"{name}_cache"]
        print(ratio_row(name, level["hits"], level["hits"] + level["misses"]))
    print("estimator memos")
    memos = report["timing_cache"]
    for kind in TIMING_CACHE_KINDS:
        hits = memos[f"{kind}_hits"]
        print(ratio_row(kind, hits, hits + memos[f"{kind}_computations"]))
    print("process-wide memos (entries / capacity)")
    for name, memo in report["process_memos"].items():
        row = ratio_row(name, memo["hits"], memo["hits"] + memo["misses"])
        print(f"{row}  {memo['entries']:,} / {memo['capacity']:,}")
    print("DOP search")
    print(f"  searches {counts.searches:,}, repeats {counts.repeats:,}")
    print(
        f"  monitor replans {counts.replans:,}, "
        f"of which searched {counts.learned_replans:,}"
    )
    print("simulator")
    print(f"  simulations run {counts.simulations:,}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
