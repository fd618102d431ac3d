"""Path scoping and ``lint-allow`` suppressions of the shape checks."""

from __future__ import annotations

import ast

from tests.analysis.shape_rules import bare_except, justification, violations, wall_clock

BAD_CORE = (
    "import time\n"
    "\n"
    "def now():\n"
    "    return time.time()\n"
)


def test_module_classification():
    """Scope keys on the repo-relative path: ``bare-except`` covers tests
    and top-level modules but not ``repro/testing``; ``wall-clock`` covers
    the deterministic packages (``obsvc`` included) and nothing else."""
    bare = "try:\n    f()\nexcept:\n    pass\n"

    def fires(check, source, path):
        return bool(list(check(path, ast.parse(source), source.splitlines())))

    assert fires(bare_except, bare, "tests/core/test_x.py")
    assert fires(bare_except, bare, "src/repro/errors.py")
    assert not fires(bare_except, bare, "src/repro/testing/x.py")
    assert fires(wall_clock, BAD_CORE, "src/repro/obsvc/x.py")
    assert not fires(wall_clock, BAD_CORE, "src/repro/errors.py")
    assert not fires(wall_clock, BAD_CORE, "tests/core/test_x.py")


def test_suppression_with_justification_suppresses():
    source = BAD_CORE.replace(
        "return time.time()",
        "return time.time()  # lint-allow: wall-clock fixture clock shim",
    )
    assert violations("src/repro/core/x.py", source) == []
    assert justification("wall-clock", 4, source.splitlines()) == "fixture clock shim"


def test_suppression_without_justification_does_not_suppress():
    # built by concatenation so this test file's own source line does
    # not itself read as a malformed suppression to the repo-wide run
    source = BAD_CORE.replace(
        "return time.time()",
        "return time.time()  # lint-allow: " + "wall-clock",
    )
    found = violations("src/repro/core/x.py", source)
    assert len(found) == 2 and "[wall-clock]" in found[0]
    assert "has no justification" in found[1]


def test_wrong_rule_suppression_does_not_suppress():
    source = BAD_CORE.replace(
        "return time.time()",
        "return time.time()  # lint-allow: bare-except some reason",
    )
    found = violations("src/repro/core/x.py", source)
    assert len(found) == 1 and "[wall-clock]" in found[0]
