"""Engine mechanics: fingerprints, suppressions, baseline, CLI."""

from __future__ import annotations

import json

import pytest

from repro.analysis import (
    Baseline,
    BaselineEntry,
    Finding,
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


def test_fingerprint_survives_line_moves_but_not_line_edits():
    base = Finding(
        rule="wall-clock",
        path="repro/core/x.py",
        line=4,
        message="m",
        line_text="    return time.time()",
    )
    moved = Finding(
        rule="wall-clock",
        path="repro/core/x.py",
        line=40,
        message="m",
        line_text="\t    return time.time()  ",
    )
    edited = Finding(
        rule="wall-clock",
        path="repro/core/x.py",
        line=4,
        message="m",
        line_text="    return time.time_ns()",
    )
    assert base.fingerprint == moved.fingerprint
    assert base.fingerprint != edited.fingerprint


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


def test_baseline_round_trip(tmp_path):
    entry = BaselineEntry(
        rule="float-billing",
        path="repro/statsvc/summaries.py",
        fingerprint="90d0d9ff127032db",
        justification="sampled estimate, not a ledger",
    )
    baseline = Baseline([entry])
    target = tmp_path / "baseline.json"
    baseline.save(target)
    loaded = Baseline.load(target)
    assert loaded.entries == [entry]
    # missing file -> empty baseline, not an error
    assert Baseline.load(tmp_path / "absent.json").entries == []


def test_baseline_requires_justification(tmp_path):
    target = tmp_path / "baseline.json"
    target.write_text(
        json.dumps(
            {
                "version": 1,
                "findings": [
                    {
                        "rule": "wall-clock",
                        "path": "repro/core/x.py",
                        "fingerprint": "abc",
                        "justification": "   ",
                    }
                ],
            }
        )
    )
    with pytest.raises(ValueError, match="justification"):
        Baseline.load(target)
    target.write_text(json.dumps({"version": 99, "findings": []}))
    with pytest.raises(ValueError, match="version"):
        Baseline.load(target)


def make_tree(tmp_path):
    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text(BAD_CORE)
    (pkg / "good.py").write_text("import time\nd = time.perf_counter()\n")
    return tmp_path / "src"


def test_analyze_paths_applies_baseline_and_reports_stale(tmp_path):
    src = make_tree(tmp_path)
    report = analyze_paths([src])
    assert [f.rule for f in report.findings] == ["wall-clock"]
    assert report.files_checked == 2

    matched = report.findings[0]
    baseline = Baseline(
        [
            BaselineEntry(
                rule=matched.rule,
                path=matched.path,
                fingerprint=matched.fingerprint,
                justification="grandfathered in the fixture",
            ),
            BaselineEntry(
                rule="wall-clock",
                path="repro/core/gone.py",
                fingerprint="dead0000dead0000",
                justification="already fixed",
            ),
        ]
    )
    baselined = analyze_paths([src], baseline=baseline)
    assert baselined.findings == []
    assert len(baselined.baselined) == 1
    assert [e.path for e in baselined.stale_baseline] == ["repro/core/gone.py"]


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
    empty = tmp_path / "empty-baseline.json"

    assert main([str(src), "--baseline", str(empty)]) == 0  # advisory
    assert main([str(src), "--strict", "--baseline", str(empty)]) == 1
    out = capsys.readouterr().out
    assert "[wall-clock]" in out

    clean = src / "repro" / "core" / "good.py"
    assert main([str(clean), "--strict", "--baseline", str(empty)]) == 0


def test_cli_json_output(tmp_path, capsys):
    src = make_tree(tmp_path)
    empty = tmp_path / "empty-baseline.json"
    assert main([str(src), "--json", "--baseline", str(empty)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_checked"] == 2
    assert [f["rule"] for f in payload["findings"]] == ["wall-clock"]
    assert payload["findings"][0]["fingerprint"]


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


def test_cli_corrupt_baseline_exits_2(tmp_path):
    bad = tmp_path / "baseline.json"
    bad.write_text(json.dumps({"version": 1, "findings": [{"rule": "x"}]}))
    with pytest.raises(SystemExit) as excinfo:
        main([str(make_tree(tmp_path)), "--baseline", str(bad)])
    assert excinfo.value.code == 2
