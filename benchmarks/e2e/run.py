"""End-to-end serving benchmark: one command, one workload, one seed.

    python3 benchmarks/e2e/run.py --workload reports_batch --seed 1
    python3 benchmarks/e2e/run.py --workload reports_batch --seed 1 --trace 1

Builds a warehouse, serves a fixed number of generated queries through
the public serving API from one closed-loop client, checks the outputs,
and prints every metric by name with its unit; the last line of standard
output is the result as one JSON object.  ``--trace 1`` makes the
separate traced pass that yields the per-layer table instead and writes
its spans to ``benchmarks/e2e/out/trace_<workload>.json``.  See
``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter, sleep

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SPEC = REPO / "BENCHMARK.json"


def calibrate(rounds: int = 5) -> float:
    """Median milliseconds of a fixed pure-python loop: how fast the
    box is right now, independent of the program under test."""
    times = []
    for _ in range(rounds):
        start = perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append(1e3 * (perf_counter() - start))
    return statistics.median(times)


def commit() -> str:
    """The checked-out commit, read without running git (the driver's
    checkout is not a repository: then ``unknown``)."""
    try:
        head = (REPO / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (REPO / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def address_randomization() -> bool | None:
    """Whether this process runs with randomised addresses (``None``
    where /proc does not say)."""
    try:
        flags = int(Path("/proc/self/personality").read_text(), 16)
    except (OSError, ValueError):
        return None
    return not flags & 0x0040000


def environment(nproc: int, calibration_before_ms: float) -> dict:
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "hashseed": os.environ.get("PYTHONHASHSEED"),
        "address_randomization": address_randomization(),
        "commit": commit(),
        "loadavg": os.getloadavg(),
        "calibration_ms_before": calibration_before_ms,
        "calibration_ms_after": calibrate(),
    }


def pin_layout_and_reexec(argv: list[str]) -> None:
    """Start over with the two sources of run-to-run ordering pinned,
    for this process and the workers it spawns: ``PYTHONHASHSEED=0``
    (str hashes order sets and dicts inside the program) and address
    randomisation off (``id()``-hashed sets do too: without this, one
    seed in ten flipped one query's dollars in the 8th digit from run to
    run).  Where the kernel refuses, only the hash seed is pinned."""
    os.environ["PYTHONHASHSEED"] = "0"
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        ADDR_NO_RANDOMIZE = 0x0040000
        libc.personality(libc.personality(0xFFFFFFFF) | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass
    os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv])


def child_pids() -> list[int]:
    """Live and unreaped processes whose parent is this one."""
    own = os.getpid()
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat.rpartition(")")[2].split()[1]) == own:
            found.append(int(entry.name))
    return found


def end_processes(pids: list[int], grace_s: float) -> None:
    """SIGTERM, then after ``grace_s`` SIGKILL; returns once every one
    of these children has ended and been reaped."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = perf_counter() + grace_s
        while pids and (sig == signal.SIGKILL or perf_counter() < deadline):
            for pid in list(pids):
                try:
                    if os.waitpid(pid, os.WNOHANG)[0]:
                        pids.remove(pid)
                except ChildProcessError:  # reaped through its own handle
                    pids.remove(pid)
            if pids:
                sleep(0.01)
        if not pids:
            return


def stop_children(grace_s: float = 5.0) -> list[int]:
    """Stop every process this one started and wait until each has
    ended; returns the pids that had to be signalled.

    The planner workers are stopped and joined by ``Deployment.close``.
    What that leaves is multiprocessing's resource tracker, which the
    spawn context starts beside the first worker and which would
    otherwise outlive this process by the moment it takes to notice the
    closed pipe.  A worker still here (the run was interrupted between
    a pool's start and the ``try`` that closes it) is ended first: it
    holds the tracker's pipe open, and the tracker ignores SIGTERM.
    """
    tracker = None
    try:
        from multiprocessing import resource_tracker

        tracker = resource_tracker._resource_tracker
        tracker_pid = tracker._pid
    except (ImportError, AttributeError):
        tracker_pid = None
    signalled = [pid for pid in child_pids() if pid != tracker_pid]
    end_processes(list(signalled), grace_s)
    if tracker_pid is not None:
        try:
            tracker._stop()  # closes its pipe and waits for it
        except (AttributeError, OSError):
            pass  # the sweep below ends it instead
    rest = child_pids()
    end_processes(list(rest), grace_s)
    return signalled + rest


def _terminated(signum, frame):
    """SIGTERM/SIGINT unwind like an exception, so ``main`` still stops
    the workers on its way out."""
    raise SystemExit(128 + signum)


def parse_args(argv: list[str]) -> argparse.Namespace:
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        default=spec["run_seconds"],
        help="scales the fixed query count; the run is never time-boxed",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.spec = spec
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        pin_layout_and_reexec(argv)

    signal.signal(signal.SIGTERM, _terminated)
    signal.signal(signal.SIGINT, _terminated)
    try:
        code = run(args)
    finally:
        # On every path out: no process of this run outlives it, and a
        # second signal does not interrupt the stopping.
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        leftover = stop_children()
    if leftover:
        print(f"processes had to be signalled at exit: {leftover}", file=sys.stderr)
    return code


def run(args: argparse.Namespace) -> int:
    sys.path[:0] = [str(REPO / "src"), str(HERE)]
    try:
        import e2e_measure
        import e2e_workloads
    except ImportError as exc:
        print(f"cannot import the program under test from {REPO / 'src'}: {exc}", file=sys.stderr)
        return 2

    calibration_before = calibrate()
    workload = e2e_workloads.scaled(e2e_workloads.WORKLOADS[args.workload], args.seconds)
    warmup, calls = e2e_workloads.generate_calls(workload, args.seed)
    try:
        if args.trace:
            report = e2e_measure.trace(workload, warmup, calls)
        else:
            report = e2e_measure.measure(workload, warmup, calls)
    except e2e_measure.CheckFailed as exc:
        print(f"CHECK FAILED ({args.workload}, seed {args.seed}): {exc}", file=sys.stderr)
        return 1
    report["workload"] = args.workload
    report["seed"] = args.seed
    report["env"] = environment(e2e_workloads.cores(), calibration_before)

    declared = args.spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    measured = report["metrics"]
    if set(measured) != set(units):
        print(
            f"metric names differ from BENCHMARK.json: {sorted(set(measured) ^ set(units))}",
            file=sys.stderr,
        )
        return 1
    if args.trace:
        spans = report.pop("spans")
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        (out / f"trace_{args.workload}.json").write_text(
            json.dumps(
                {
                    **report,
                    "span_fields": ["layer", "entry", "start", "end", "parent", "call_id"],
                    "spans": spans,
                }
            )
        )
        report["not_applicable"] = sorted(
            name
            for name, value in measured.items()
            if value is None and name.rpartition(".")[0] not in report["missing_layers"]
        )

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, value in report.items():
        if key not in ("metrics", "entries"):  # entries: see the trace file
            print(f"  {key}: {value}")
    width = max(map(len, units))
    for name, unit in units.items():
        value = measured[name]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{name:<{width}}  {shown:>12}  {unit}")

    correct = report["failed"] == 0
    result = {
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        # The result line carries numbers only: a layer that is missing
        # or not exercised by this workload (listed above) reads 0.
        "metrics": {
            name: {"value": 0.0 if measured[name] is None else measured[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
