from repro.util.units import GB, KB, MB, TB, fmt_dollars, fmt_duration


def test_unit_constants_are_powers_of_1024():
    assert KB == 1024
    assert MB == KB * 1024
    assert GB == MB * 1024
    assert TB == GB * 1024


def test_fmt_duration_scales():
    assert fmt_duration(0.0015).endswith("ms")
    assert fmt_duration(12.0) == "12.00 s"
    assert fmt_duration(600.0) == "10.0 min"
    assert fmt_duration(7200.0).endswith("h")


def test_fmt_duration_negative():
    assert fmt_duration(-5.0) == "-5.00 s"


def test_fmt_dollars_subcent_precision():
    assert fmt_dollars(0.0004) == "$0.0004"
    assert fmt_dollars(12.5) == "$12.50"
    assert fmt_dollars(0.0) == "$0.00"
    assert fmt_dollars(1234.5) == "$1,234.50"
