"""Byte/time/money unit constants and human-readable formatting.

The simulator and cost models work in SI base units throughout: bytes,
seconds, and dollars.  These helpers exist so that module code never
hard-codes magic ``1 << 30`` style constants and so that reports printed by
the benchmark harness are readable.
"""

from __future__ import annotations

KB: int = 1024
MB: int = 1024 * KB
GB: int = 1024 * MB
TB: int = 1024 * GB

SECONDS_PER_HOUR: float = 3600.0
HOURS_PER_MONTH: float = 730.0  # convention used by cloud storage pricing

# --------------------------------------------------------------------- #
# Fixed-point billing units
# --------------------------------------------------------------------- #
#: Ledger units per dollar.  A power of two: multiplying a float dollar
#: amount by it is exact (exponent shift), and 2^80 sits far enough
#: below the 53-bit mantissa of any plausible dollar amount (anything
#: >= 2^-27 dollars) that the conversion is *lossless* — ``round()``
#: never discards a set bit, so a one-charge bill reads back the exact
#: float that was charged.  Integer accumulation (Python ints are
#: arbitrary precision) is then exact and order-independent, which is
#: what makes a crash-recovery replay reproduce live totals to the
#: last bit.  Every authoritative dollar balance in the repo — tenant
#: bills, journal replay, resilience retry metering — accumulates in
#: these units; the ``float-billing`` check in
#: ``tests/analysis/shape_rules.py`` rejects float ``+=`` on
#: ``*_dollars`` state outside these helpers.
LEDGER_SCALE = 1 << 80


def to_ledger_units(dollars: float) -> int:
    """Exact-by-construction conversion of a dollar amount to units."""
    return round(dollars * LEDGER_SCALE)


def from_ledger_units(units: int) -> float:
    """The float dollar value of an integral unit balance."""
    return units / LEDGER_SCALE


def fmt_duration(seconds: float) -> str:
    """Render a duration, scaling between ms, s, min, and h."""
    if seconds < 0:
        return f"-{fmt_duration(-seconds)}"
    if seconds < 1.0:
        return f"{seconds * 1000:.1f} ms"
    if seconds < 120.0:
        return f"{seconds:.2f} s"
    if seconds < 2 * SECONDS_PER_HOUR:
        return f"{seconds / 60.0:.1f} min"
    return f"{seconds / SECONDS_PER_HOUR:.2f} h"


def fmt_dollars(dollars: float) -> str:
    """Render a dollar amount; sub-cent values keep 4 significant decimals."""
    if dollars != 0 and abs(dollars) < 0.01:
        return f"${dollars:.4f}"
    return f"${dollars:,.2f}"
