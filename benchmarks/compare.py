"""Alternated parent/change pairs of the end-to-end benchmark, and a verdict.

    python3 benchmarks/compare.py --parent HEAD~1 --workload reports_batch --pairs 10

Puts the parent's committed files (``git archive <rev>``) and a copy of
the working tree (tracked and untracked files, ignores excluded) side by
side under one temporary directory, so neither side pays for a
different location.  Then runs ``benchmarks/e2e/run.py`` once per side
for seeds 1..N, the parent first on odd seeds and the change first on
even ones, and prints:

- one row per seed with both sides' ``serve_qps``, ``query_ms_p50`` and
  ``cpu_ms_per_query``;
- per end-to-end metric of ``BENCHMARK.json``: each side's median and
  quartiles, the change's wins, whether the change's median is inside
  the metric's declared bound, and the verdict of :func:`verdict`.

It exits 1 when a run fails or when the two sides differ on any seed in
the run's digest, ``modeled_dollars_per_query`` or
``constraint_met_share`` (a speed change must not move an answer).
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
#: Metrics whose values must be equal to the bit on both sides.
ANSWERS = ("modeled_dollars_per_query", "constraint_met_share")
#: Metrics shown per seed.
ROW_METRICS = ("serve_qps", "query_ms_p50", "cpu_ms_per_query")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: list[float], change: list[float], better: str) -> str:
    """``"better"``, ``"worse"`` or ``"inconclusive"`` for paired runs
    (``parent[i]`` beside ``change[i]``) of a metric where ``better`` is
    ``"higher"`` or ``"lower"``.

    A side wins a pair by a strict margin; ties count for neither.  The
    change is better when it wins at least nine tenths of the pairs and
    its median beats the parent's by more than the parent's
    interquartile range; worse under the mirrored rule.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("verdict needs the same positive number of runs per side")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    q1, median, q3 = quartiles(parent)
    gain = sign * (statistics.median(change) - median)
    if wins >= 0.9 * len(parent) and gain > q3 - q1:
        return "better"
    if losses >= 0.9 * len(parent) and -gain > q3 - q1:
        return "worse"
    return "inconclusive"


def within_bound(parent: list[float], change: list[float], better: str, bound: float) -> bool:
    """Whether the change's median is no worse than the parent's by more
    than ``bound`` (a fraction of the parent's median)."""
    base, value = statistics.median(parent), statistics.median(change)
    if better == "higher":
        return value >= base * (1.0 - bound)
    return value <= base * (1.0 + bound)


def export_parent(rev: str, dest: Path) -> None:
    archive = subprocess.run(
        ["git", "-C", str(REPO), "archive", "--format=tar", rev],
        check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)


def copy_working_tree(dest: Path) -> None:
    listed = subprocess.run(
        ["git", "-C", str(REPO), "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    for name in filter(None, listed.split("\0")):
        source = REPO / name
        if source.is_file():  # a deleted tracked file is still listed
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def run_once(tree: Path, workload: str, seed: int, seconds: float | None) -> dict:
    """One ``run.py`` run: its metrics, digest and failure count."""
    command = [sys.executable, "benchmarks/e2e/run.py", "--workload", workload, "--seed", str(seed)]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{tree.name} seed {seed} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(lines[-1])
    digest = next(line.split(": ", 1)[1] for line in lines if line.startswith("  digest: "))
    return {
        "digest": digest,
        "failed": result["failed"],
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None, help="passed on to run.py")
    args = parser.parse_args(argv)

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="compare-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        export_parent(args.parent, trees["parent"])
        copy_working_tree(trees["change"])
        for seed in range(1, args.pairs + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(trees[side], args.workload, seed, args.seconds))
            row = "  ".join(
                f"{name} {runs['parent'][-1]['metrics'][name]:.4g} -> "
                f"{runs['change'][-1]['metrics'][name]:.4g}"
                for name in ROW_METRICS
            )
            print(f"seed {seed:2d} ({order[0]} first)  {row}", flush=True)

    print(f"\n{args.workload}, {args.pairs} pairs, parent {args.parent}")
    print(f"{'metric':<28}{'parent q1/median/q3':>34}{'change q1/median/q3':>34}  wins  bound  verdict")
    for metric in SPEC["end_to_end"]:
        name, better = metric["name"], metric["better"]
        parent = [run["metrics"][name] for run in runs["parent"]]
        change = [run["metrics"][name] for run in runs["change"]]
        wins = sum((c > p) if better == "higher" else (c < p) for p, c in zip(parent, change))
        inside = within_bound(parent, change, better, metric["bound"])
        print(
            f"{name:<28}{'/'.join(f'{v:.4g}' for v in quartiles(parent)):>34}"
            f"{'/'.join(f'{v:.4g}' for v in quartiles(change)):>34}"
            f"  {wins:>2}/{args.pairs}  {'ok ' if inside else 'OUT'}  "
            f"{verdict(parent, change, better)}"
        )

    differing = [
        seed
        for seed, (p, c) in enumerate(zip(runs["parent"], runs["change"]), start=1)
        if p["digest"] != c["digest"]
        or any(p["metrics"][name] != c["metrics"][name] for name in ANSWERS)
        or p["failed"]
        or c["failed"]
    ]
    if differing:
        print(f"answers differ or queries failed on seeds {differing}", file=sys.stderr)
        return 1
    print("digests, dollars and met share equal on every seed; failed = 0")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
