"""Slice-interleaved A/B of two source trees: the developer's inner loop.

    python3 benchmarks/ab_slices.py --a /root/scratch/parent --b . \\
        --workload reports_batch --seed 1 --queries 3200

Two long-lived child processes, one per tree, each import *their tree's*
``src/`` and ``benchmarks/e2e`` modules, ``deploy()`` the workload and
serve the warm-up pass of the same ``generate_calls(workload, seed)``.
The driver then hands out the measured calls in slices of two, to one
side and then the other (the order flips every slice), and sums wall and
CPU seconds per side.  One side runs at a time, so a slow stretch of the
box hits both equally: A/A (``--a . --b .``) reads 1.008 where whole-run
pairs spread by ±10 %, and a 2 % effect resolves in about 90 s.  The two
sides must agree on a digest of DOPs and dollars.

This is not the gate.  A claimed gain is judged by ten alternating pairs
of ``benchmarks/e2e/run.py``; this tells you in a minute and a half
whether a candidate is worth those twenty runs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

SLICE_CALLS = 2


def child(tree: Path, workload_name: str, seed: int, queries: int) -> None:
    """Serve slices of the tree's own build on request: one
    ``start stop`` line in, one ``{"wall": s, "cpu": s}`` line out; an
    empty line ends the run and answers with the digest."""
    sys.path[:0] = [str(tree / "src"), str(tree / "benchmarks" / "e2e")]
    import e2e_measure
    import e2e_workloads

    workload = e2e_workloads.with_count(e2e_workloads.WORKLOADS[workload_name], queries)
    warmup, calls = e2e_workloads.generate_calls(workload, seed)
    dep = e2e_workloads.deploy(workload)

    def cpu_seconds() -> float:  # this process and its planner workers
        return e2e_measure.own_cpu_seconds() + e2e_measure.children_cpu_seconds()

    try:
        e2e_measure.serve_pass(dep, warmup)
        served = e2e_measure.Pass()
        print(json.dumps({"calls": len(calls)}), flush=True)
        for line in sys.stdin:
            if not line.strip():
                break
            start, stop = map(int, line.split())
            cpu, wall = cpu_seconds(), perf_counter()
            handles = [h for call in calls[start:stop] for h in dep.serve(call)]
            wall, cpu = perf_counter() - wall, cpu_seconds() - cpu
            served.fold(handles)
            print(json.dumps({"wall": wall, "cpu": cpu}), flush=True)
        print(json.dumps({"digest": served.digest, "failed": served.failed}), flush=True)
    finally:
        dep.close()


class Side:
    """One tree's child process and its running totals."""

    def __init__(self, name: str, tree: Path, args: argparse.Namespace) -> None:
        self.name, self.wall, self.cpu = name, 0.0, 0.0
        self.process = subprocess.Popen(
            [sys.executable, __file__, "--child", str(tree.resolve())]
            + ["--workload", args.workload, "--seed", str(args.seed)]
            + ["--queries", str(args.queries)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": "0"},
        )

    def ask(self, line: str = "") -> dict:
        self.process.stdin.write(line + "\n")
        self.process.stdin.flush()
        return self.answer()

    def answer(self) -> dict:
        reply = self.process.stdout.readline()
        if not reply:
            raise SystemExit(f"side {self.name} died (exit {self.process.wait()})")
        return json.loads(reply)

    def serve(self, start: int, stop: int) -> None:
        reply = self.ask(f"{start} {stop}")
        self.wall += reply["wall"]
        self.cpu += reply["cpu"]


def drive(args: argparse.Namespace) -> int:
    sides = [Side("A", args.a, args), Side("B", args.b, args)]
    try:
        counts = {side.answer()["calls"] for side in sides}  # both warmed up
        if len(counts) != 1:
            raise SystemExit(f"the two trees generated different call counts: {counts}")
        for index, start in enumerate(range(0, counts.pop(), SLICE_CALLS)):
            for side in sides if index % 2 == 0 else reversed(sides):
                side.serve(start, start + SLICE_CALLS)
        ends = [side.ask() for side in sides]
    finally:
        for side in sides:
            side.process.stdin.close()
            side.process.wait()
    a, b = sides
    for side, end in zip(sides, ends):
        print(
            f"{side.name}: wall {side.wall:.3f} s  cpu {side.cpu:.3f} s  "
            f"failed {end['failed']}  digest {end['digest'][:8]}"
        )
    print(f"B/A wall {b.wall / a.wall:.3f}  cpu {b.cpu / a.cpu:.3f}")
    if ends[0] != ends[1] or ends[0]["failed"]:
        print("the sides disagree on DOPs or dollars, or a query failed", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", type=Path, help="source tree of side A (the parent)")
    parser.add_argument("--b", type=Path, help="source tree of side B (the change)")
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--workload", default="reports_batch")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--queries", type=int, default=3200)
    args = parser.parse_args(argv)
    if args.child is not None:
        child(args.child, args.workload, args.seed, args.queries)
        return 0
    if args.a is None or args.b is None:
        parser.error("--a and --b are required")
    return drive(args)


# The guard is load-bearing: ``mixed_durable_processes`` starts planner
# workers with the spawn context, which re-imports this file in each.
if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
