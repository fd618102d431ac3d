"""A/A control: two interleaved sets of runs of the same code.

    python3 benchmarks/e2e/aa.py [--runs 10] [--workload NAME ...]

Run ``i`` of either set uses seed ``i``, so the deterministic outputs
(digest, modeled dollars, constraint share) must agree to the last bit
between the sets while the timings show the box's noise floor.  Writes
``AA.json`` beside this file: per workload and end-to-end metric each
set's median and quartiles, its spread (interquartile range over the
median, across seeds), the relative disagreement of the two medians in
the metric's worse direction, the bound from ``BENCHMARK.json`` and a
verdict.  Later performance claims are judged against this record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int) -> dict:
    """One end-to-end run; returns its metric values and digest."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)],
        capture_output=True,
        text=True,
        check=True,
    )
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    digest = next(line.split(": ", 1)[1] for line in lines if line.startswith("  digest: "))
    return {"seed": seed, "digest": digest, "values": values}


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def compare(workload: str, set_a: list[dict], set_b: list[dict]) -> dict:
    metrics = {}
    for spec in SPEC["end_to_end"]:
        name, bound = spec["name"], spec["bound"]
        a = summarize([run["values"][name] for run in set_a])
        b = summarize([run["values"][name] for run in set_b])
        worse = b["median"] - a["median"] if spec["better"] == "lower" else a["median"] - b["median"]
        disagreement = worse / a["median"]
        # setup_s is exempt from the spread rule, as in the driver.
        steady = name == "setup_s" or max(a["spread"], b["spread"]) <= bound
        metrics[name] = {
            "unit": spec["unit"],
            "bound": bound,
            "a": a,
            "b": b,
            "disagreement": disagreement,
            "verdict": "agree" if abs(disagreement) <= bound and steady else "disagree",
        }
    return {
        "runs_per_set": len(set_a),
        "digests_identical": [r["digest"] for r in set_a] == [r["digest"] for r in set_b],
        "metrics": metrics,
        "runs": {"a": set_a, "b": set_b},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set (>= 5)")
    parser.add_argument(
        "--workload", action="append", choices=[w["name"] for w in SPEC["workloads"]]
    )
    args = parser.parse_args()
    if args.runs < 5:
        parser.error("--runs must be at least 5")
    report = {}
    ok = True
    for workload in args.workload or [w["name"] for w in SPEC["workloads"]]:
        set_a, set_b = [], []
        for seed in range(1, args.runs + 1):
            # Interleaved, alternating which set goes first.
            for target in (set_a, set_b) if seed % 2 else (set_b, set_a):
                target.append(run_once(workload, seed))
                print(f"{workload} seed {seed}: {target[-1]['values']}", flush=True)
        report[workload] = compare(workload, set_a, set_b)
        ok &= report[workload]["digests_identical"]
        for name, row in report[workload]["metrics"].items():
            ok &= row["verdict"] == "agree"
            print(
                f"{workload:<24} {name:<26} a={row['a']['median']:.6g} "
                f"b={row['b']['median']:.6g} spread={max(row['a']['spread'], row['b']['spread']):.4f} "
                f"disagreement={row['disagreement']:+.4f} bound={row['bound']} {row['verdict']}"
            )
    path = HERE / "AA.json"
    merged = json.loads(path.read_text()) if path.exists() else {}
    merged.update(report)
    path.write_text(json.dumps(merged, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
