"""Smoke test of ``benchmarks/worker_boot.py`` at one boot and one batch."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from worker_boot import main  # noqa: E402


def test_worker_boot_prints_one_row_and_exits_zero(capsys):
    assert main(["--boots", "1", "--queries", "32", "--seed", "1"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    figures = dict(zip(header.split(), row.split()))
    assert list(figures) == ["boots", "boot_s", "restart_s", "served", "hwm_mb", "numpy"]
    assert figures["boots"] == "1" and figures["served"] == "32"
    assert float(figures["boot_s"]) > 0 and float(figures["restart_s"]) > 0
    # A planner worker runs only the planning code: numpy is never mapped.
    assert figures["numpy"] in ("no", "-")
    assert figures["hwm_mb"] == "-" or float(figures["hwm_mb"]) > 0
