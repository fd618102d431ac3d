"""Engine mechanics: path classification, suppressions, CLI."""

from __future__ import annotations

import json

import pytest

from repro.analysis import (
    analyze_paths,
    check_module,
    module_from_source,
    normalize_path,
)
from repro.analysis.__main__ import main

BAD_CORE = (
    "import time\n"
    "\n"
    "def now():\n"
    "    return time.time()\n"
)


def test_normalize_path_is_checkout_independent():
    assert (
        normalize_path("/home/a/repo/src/repro/core/x.py")
        == normalize_path("/tmp/elsewhere/src/repro/core/x.py")
        == "repro/core/x.py"
    )
    assert normalize_path("tests/core/test_x.py") == "tests/core/test_x.py"
    assert normalize_path("scratch/loose.py") == "scratch/loose.py"


def test_module_classification():
    core = module_from_source("x = 1\n", "src/repro/core/x.py")
    assert core.subpackage == "core" and core.in_repro
    assert not core.is_testing and not core.is_tests
    testing = module_from_source("x = 1\n", "src/repro/testing/x.py")
    assert testing.is_testing
    tests = module_from_source("x = 1\n", "tests/core/test_x.py")
    assert tests.is_tests and not tests.in_repro
    top = module_from_source("x = 1\n", "src/repro/errors.py")
    assert top.subpackage == "" and top.in_repro


def test_suppression_with_justification_suppresses():
    source = BAD_CORE.replace(
        "return time.time()",
        "return time.time()  # lint-allow: wall-clock fixture clock shim",
    )
    module = module_from_source(source, "src/repro/core/x.py")
    active, suppressed = check_module(module)
    assert active == []
    assert len(suppressed) == 1
    finding, justification = suppressed[0]
    assert finding.rule == "wall-clock"
    assert justification == "fixture clock shim"


def test_suppression_without_justification_does_not_suppress():
    # built by concatenation so this test file's own source line does
    # not itself read as a malformed suppression to the repo-wide run
    source = BAD_CORE.replace(
        "return time.time()",
        "return time.time()  # lint-allow: " + "wall-clock",
    )
    module = module_from_source(source, "src/repro/core/x.py")
    active, suppressed = check_module(module)
    assert suppressed == []
    rules_fired = {f.rule for f in active}
    assert rules_fired == {"wall-clock", "suppression-format"}


def test_wrong_rule_suppression_does_not_suppress():
    source = BAD_CORE.replace(
        "return time.time()",
        "return time.time()  # lint-allow: bare-except some reason",
    )
    module = module_from_source(source, "src/repro/core/x.py")
    active, suppressed = check_module(module)
    assert suppressed == []
    assert [f.rule for f in active] == ["wall-clock"]


def make_tree(tmp_path):
    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text(BAD_CORE)
    (pkg / "good.py").write_text("import time\nd = time.perf_counter()\n")
    return tmp_path / "src"


def test_unparsable_file_becomes_parse_error_finding(tmp_path):
    src = tmp_path / "src" / "repro" / "core"
    src.mkdir(parents=True)
    (src / "broken.py").write_text("def f(:\n")
    report = analyze_paths([src])
    assert [f.rule for f in report.findings] == ["parse-error"]


def test_missing_path_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        analyze_paths([tmp_path / "nonexistent"])


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
def test_cli_strict_exit_codes(tmp_path, capsys):
    src = make_tree(tmp_path)

    assert main([str(src)]) == 0  # advisory
    assert main([str(src), "--strict"]) == 1
    out = capsys.readouterr().out
    assert "[wall-clock]" in out

    clean = src / "repro" / "core" / "good.py"
    assert main([str(clean), "--strict"]) == 0


def test_cli_json_output(tmp_path, capsys):
    src = make_tree(tmp_path)
    assert main([str(src), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_checked"] == 2
    assert [f["rule"] for f in payload["findings"]] == ["wall-clock"]


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in (
        "bare-except",
        "wall-clock",
        "float-billing",
        "metric-name",
        "stage-guard",
        "naked-acquire",
        "picklable-record",
    ):
        assert rule_id in out


def test_cli_usage_error_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["--no-such-flag"])
    assert excinfo.value.code == 2
