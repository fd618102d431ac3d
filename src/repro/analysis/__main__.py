"""CLI: ``python -m repro.analysis [paths...] [options]``.

Exit codes: 0 clean (or advisory mode), 1 findings under ``--strict``,
2 usage error.  ``--json`` emits the machine-readable report (the CI
lint job archives it); the default output is one
``path:line: [rule] message`` line per finding.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis import rules as _rules  # noqa: F401  (registers rules)
from repro.analysis.engine import RULES, analyze_paths


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST lint enforcing the repo's architecture contracts",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to check (default: src tests)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on any finding (CI mode)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the machine-readable report on stdout",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print registered rule ids and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id in sorted(RULES):
            print(f"{rule_id}: {RULES[rule_id].description}")
        return 0

    try:
        report = analyze_paths(args.paths)
    except FileNotFoundError as exc:
        parser.exit(2, f"error: {exc}\n")

    if args.as_json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        for finding in report.findings:
            print(finding.render())
        print(
            f"{len(report.findings)} finding(s) in {report.files_checked} "
            f"file(s) ({len(report.suppressed)} suppressed)",
            file=sys.stderr,
        )
    if args.strict and report.findings:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
