"""Tests of the benchmark itself: generators, span accounting, the
declared names, and a small smoke of every workload's checks."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import e2e_measure  # noqa: E402
import e2e_trace  # noqa: E402
import e2e_workloads  # noqa: E402

SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def smoke(name: str, count: int = 64) -> tuple:
    workload = e2e_workloads.with_count(e2e_workloads.WORKLOADS[name], count, warmup=32)
    return workload, *e2e_workloads.generate_calls(workload, seed=5)


@pytest.mark.parametrize("name", list(e2e_workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    workload = e2e_workloads.WORKLOADS[name]
    first = e2e_workloads.generate_sql(workload, 3, 200)
    assert first == e2e_workloads.generate_sql(workload, 3, 200)
    assert first != e2e_workloads.generate_sql(workload, 4, 200)
    warmup, calls = e2e_workloads.generate_calls(e2e_workloads.with_count(workload, 128), 3)
    assert sum(len(c.requests) for c in warmup) == workload.warmup
    assert sum(len(c.requests) for c in calls) == 128
    assert {c.tenant for c in calls} == set(workload.tenants)


def test_scaling_keeps_whole_batches_and_the_call_floor():
    reports = e2e_workloads.WORKLOADS["reports_batch"]
    assert e2e_workloads.scaled(reports, e2e_workloads.REFERENCE_SECONDS) == reports
    small = e2e_workloads.scaled(reports, 1)
    assert small.count == 200 * reports.batch
    assert e2e_workloads.scaled(reports, 40).count == 2 * reports.count


def test_self_time_accounting_sums_to_the_root():
    spans = [
        # layer, entry, start, end, parent, call id
        ["core.service", "submit_many", 0.0, 10.0, -1, 1],
        ["sql.binder", "bind", 1.0, 3.0, 0, 1],
        ["core.bioptimizer", "optimize", 3.0, 9.0, 0, 1],
        ["dop.planner", "plan", 4.0, 6.0, 2, 1],
        ["dop.planner", "plan", 6.5, 8.0, 2, 1],
        ["core.service", "submit_many", 20.0, 21.0, -1, 2],
    ]
    accounts = e2e_trace.account(spans)
    layers = accounts["layers"]
    assert accounts["root_s"] == 11.0
    assert layers["core.service"] == {"self_s": 3.0, "calls": 2}
    assert layers["sql.binder"] == {"self_s": 2.0, "calls": 1}
    assert layers["core.bioptimizer"] == {"self_s": 2.5, "calls": 1}
    assert layers["dop.planner"] == {"self_s": 3.5, "calls": 2}
    assert sum(row["self_s"] for row in layers.values()) == accounts["root_s"]


def test_speed_is_the_slices_mean_time_over_the_reference():
    ref = e2e_measure.REFERENCE_SLICE_S
    speed = e2e_measure.Speed.of([(1.5 * ref, ref), (2.5 * ref, 2.0 * ref)])
    assert (speed.wall, speed.cpu) == pytest.approx((2.0, 1.5))
    wall, cpu = e2e_measure.calibration_slice()
    assert 0.0 < cpu <= wall * 1.5


def test_missing_symbol_marks_its_layer_and_restores_the_rest():
    from repro.sql import parser

    original = parser.parse
    probes = (
        ("sql.parser", "repro.sql.parser", "parse"),
        ("gone.function", "repro.sql.parser", "no_such_function"),
        ("gone.method", "repro.sql.binder", "Binder.no_such_method"),
        ("gone.module", "repro.no_such_module", "anything"),
    )
    with e2e_trace.Tracer(probes) as tracer:
        assert parser.parse is not original
        parser.parse("SELECT count(*) AS c FROM orders")
    assert parser.parse is original
    assert tracer.missing == ["gone.function", "gone.method", "gone.module"]
    assert [span[0] for span in tracer.spans] == ["sql.parser"]


def test_benchmark_json_matches_the_contract_and_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert [w["name"] for w in SPEC["workloads"]] == list(e2e_workloads.WORKLOADS)
    for declared in SPEC["workloads"]:
        assert 0 < len(declared["why"]) <= 200 and "\n" not in declared["why"]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    layers = {m["name"].rpartition(".")[0] for m in SPEC["per_layer"]}
    assert set(e2e_trace.LAYERS) <= layers


@pytest.mark.parametrize("name", list(e2e_workloads.WORKLOADS))
def test_smoke_run_passes_its_checks_and_repeats(name, monkeypatch, tmp_path):
    monkeypatch.setattr(e2e_measure, "SETUPS", 2)
    monkeypatch.setattr(e2e_measure, "OUT_DIR", tmp_path)
    workload, warmup, calls = smoke(name)
    report = e2e_measure.measure(workload, warmup, calls)
    assert (report["attempted"], report["failed"]) == (64, 0)
    assert set(report["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value in report["metrics"].values())
    # At reference speed = as timed, adjusted by the window's speed factor.
    assert report["metrics"]["query_ms_p50"] == pytest.approx(
        report["as_timed"]["query_ms_p50"] / report["speed"]["wall"]
    )
    assert report["slices"] == 2  # one before the first call, one per 64 queries
    # The durable workload pins coordinator and workers apart; close() undoes it.
    assert os.sched_getaffinity(0) == set(e2e_workloads.ALLOWED_CPUS)
    # One more fresh set-up of the same seed repeats the outputs bit for bit.
    dep, _, warm = e2e_measure.set_up(workload, warmup)
    try:
        again = e2e_measure.serve_pass(dep, calls)
    finally:
        dep.close()
    assert (warm.digest, again.digest) == (report["warmup_digest"], report["digest"])


def test_smoke_trace_fills_the_layer_table(monkeypatch, tmp_path):
    monkeypatch.setattr(e2e_measure, "TRIPLE_QUERIES", 32)
    monkeypatch.setattr(e2e_measure, "OUT_DIR", tmp_path)
    # trace() serves the first quarter of the measured calls.
    workload, warmup, calls = smoke("mixed_durable_processes", count=256)
    report = e2e_measure.trace(workload, warmup, calls)
    assert report["attempted"] == 64
    metrics = report["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert report["missing_layers"] == []
    assert report["layer_sum_ms_per_query"] == pytest.approx(
        report["traced_wall_ms_per_query"], rel=0.02
    )
    # Everything but the single-submit tail latencies applies here.
    assert [n for n, v in metrics.items() if v is None] == [
        "core.service.query_ms_p95",
        "core.service.query_ms_p99",
    ]
    assert metrics["core.sharding.restarts"] == 0
    assert metrics["core.governance.throttled_share"] == 0.0


def test_run_stops_every_process_it_started():
    # In a process of its own: the sweep ends all children of its caller.
    script = (
        "import subprocess, sys, run\n"
        "from multiprocessing import resource_tracker\n"
        # Like a worker, the stray holds the tracker's pipe open: the
        # tracker cannot end before it does.
        "held = resource_tracker.getfd()\n"
        "stray = subprocess.Popen(\n"
        "    [sys.executable, '-c', 'import time; time.sleep(60)'], pass_fds=[held])\n"
        "assert len(run.child_pids()) == 2, run.child_pids()\n"
        "assert run.stop_children(grace_s=2.0) == [stray.pid]\n"
        "assert run.child_pids() == []\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=HERE, capture_output=True, text=True, timeout=30
    )
    assert done.returncode == 0, done.stderr
