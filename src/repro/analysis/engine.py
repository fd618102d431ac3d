"""Engine of the repo lint: module model, rule registry, suppressions,
baseline, and the path walker.

The engine is deliberately small and dependency-free (stdlib ``ast``
only).  It knows nothing about the repo's invariants — those live in
:mod:`repro.analysis.rules` — it only provides the machinery:

- :class:`ModuleSource` — one parsed file: source, AST with a parent
  map (for enclosing-scope qualnames), normalized repo-relative path,
  package classification, and the per-line suppression table;
- :class:`Rule` + :func:`register` — the rule registry.  A rule is a
  class with a ``rule_id``, a ``description``, an ``applies_to(module)``
  scope predicate, and a ``check(module)`` generator of findings;
- :class:`Finding` — one violation, with a line-number-independent
  ``fingerprint`` (hash of rule + path + stripped source line) so
  baseline entries survive unrelated edits above them;
- :class:`Baseline` — the grandfathered-findings file.  Every entry
  must carry a non-empty justification; matching findings are reported
  separately and do not fail ``--strict``;
- :func:`check_module` / :func:`analyze_paths` — run the registry over
  one module or a path tree and fold in suppressions and the baseline.

Suppressions are per line: ``# lint-allow: <rule-id> <justification>``
on the offending line.  A justification is mandatory — a
``lint-allow`` comment naming only the rule does not suppress and
instead raises a ``suppression-format`` finding, so silent opt-outs
cannot accrete.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "Baseline",
    "BaselineEntry",
    "Finding",
    "ModuleSource",
    "Report",
    "Rule",
    "RULES",
    "analyze_paths",
    "check_module",
    "dotted_name",
    "iter_python_files",
    "module_from_source",
    "normalize_path",
    "register",
]

_SUPPRESS_RE = re.compile(
    r"#\s*lint-allow:\s*(?P<rule>[a-z0-9-]+)(?:[ \t]+(?P<reason>\S.*))?"
)


def normalize_path(path: "Path | str") -> str:
    """Stable repo-relative posix path for fingerprints.

    ``/anything/src/repro/core/x.py`` -> ``repro/core/x.py`` and
    ``/anything/tests/core/test_x.py`` -> ``tests/core/test_x.py``, so
    fingerprints do not depend on the checkout location or the CLI's
    working directory.
    """
    parts = Path(path).as_posix().split("/")
    for anchor in ("repro", "tests"):
        if anchor in parts:
            return "/".join(parts[len(parts) - 1 - parts[::-1].index(anchor) :])
    return Path(path).as_posix()


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``.

    Chains hanging off calls or subscripts (``f().x``) are not simple
    names and return ``None`` — rules that key on receivers only care
    about directly named objects.
    """
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return f"{base}.{node.attr}" if base is not None else None
    return None


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source line."""

    rule: str
    path: str  # normalized (see normalize_path)
    line: int
    message: str
    line_text: str = ""

    @property
    def fingerprint(self) -> str:
        """Line-number-independent identity used by the baseline."""
        payload = f"{self.rule}\0{self.path}\0{self.line_text.strip()}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class ModuleSource:
    """A parsed module plus the classification the rules key on."""

    def __init__(self, path: "Path | str", source: str) -> None:
        self.path = Path(path)
        self.norm = normalize_path(path)
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        # line -> {rule_id: justification}; None justification means the
        # comment was malformed (missing reason) and must not suppress.
        self.suppressions: dict[int, dict[str, str | None]] = {}
        for lineno, text in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(text)
            if match:
                self.suppressions.setdefault(lineno, {})[
                    match.group("rule")
                ] = match.group("reason")

    # -- path classification ------------------------------------------ #
    @property
    def subpackage(self) -> str:
        """``core`` for ``repro/core/x.py``; ``""`` for top-level/other."""
        parts = self.norm.split("/")
        if parts[0] == "repro" and len(parts) > 2:
            return parts[1]
        return ""

    @property
    def in_repro(self) -> bool:
        return self.norm.split("/")[0] == "repro"

    @property
    def is_testing(self) -> bool:
        return self.subpackage == "testing"

    @property
    def is_tests(self) -> bool:
        return self.norm.split("/")[0] == "tests"

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def suppression_for(self, rule_id: str, lineno: int) -> str | None:
        """The justification if *lineno* carries a valid suppression."""
        return (self.suppressions.get(lineno) or {}).get(rule_id)


def module_from_source(source: str, path: "Path | str") -> ModuleSource:
    """Build a :class:`ModuleSource` without touching the filesystem
    (fixture corpora pass fake paths like ``src/repro/core/x.py``)."""
    return ModuleSource(path, source)


# --------------------------------------------------------------------- #
# Rule registry
# --------------------------------------------------------------------- #
class Rule:
    """Base class: subclass, set ``rule_id``/``description``, implement
    ``check``, and decorate with :func:`register`."""

    rule_id: str = ""
    description: str = ""

    def applies_to(self, module: ModuleSource) -> bool:
        return True

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: ModuleSource, node: "ast.AST | int", message: str
    ) -> Finding:
        lineno = node if isinstance(node, int) else getattr(node, "lineno", 1)
        return Finding(
            rule=self.rule_id,
            path=module.norm,
            line=lineno,
            message=message,
            line_text=module.line_text(lineno),
        )


RULES: dict[str, Rule] = {}


def register(cls: type) -> type:
    """Class decorator adding one instance of *cls* to the registry."""
    rule = cls()
    if not rule.rule_id:
        raise ValueError(f"{cls.__name__} has no rule_id")
    if rule.rule_id in RULES:
        raise ValueError(f"duplicate rule id {rule.rule_id!r}")
    RULES[rule.rule_id] = rule
    return cls


# --------------------------------------------------------------------- #
# Baseline
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class BaselineEntry:
    rule: str
    path: str
    fingerprint: str
    justification: str

    def matches(self, finding: Finding) -> bool:
        return (
            self.rule == finding.rule
            and self.path == finding.path
            and self.fingerprint == finding.fingerprint
        )


class Baseline:
    """Grandfathered findings, each with a mandatory justification."""

    VERSION = 1

    def __init__(self, entries: Iterable[BaselineEntry] = ()) -> None:
        self.entries: list[BaselineEntry] = list(entries)

    @classmethod
    def load(cls, path: "Path | str") -> "Baseline":
        path = Path(path)
        if not path.exists():
            return cls()
        payload = json.loads(path.read_text(encoding="utf-8"))
        if payload.get("version") != cls.VERSION:
            raise ValueError(
                f"unsupported baseline version {payload.get('version')!r} "
                f"in {path}"
            )
        entries = []
        for raw in payload.get("findings", []):
            justification = str(raw.get("justification", "")).strip()
            if not justification:
                raise ValueError(
                    f"baseline entry {raw.get('rule')}:{raw.get('path')} in "
                    f"{path} has no justification; every grandfathered "
                    "finding must say why it is kept"
                )
            entries.append(
                BaselineEntry(
                    rule=str(raw["rule"]),
                    path=str(raw["path"]),
                    fingerprint=str(raw["fingerprint"]),
                    justification=justification,
                )
            )
        return cls(entries)

    def save(self, path: "Path | str") -> None:
        payload = {
            "version": self.VERSION,
            "findings": [
                {
                    "rule": e.rule,
                    "path": e.path,
                    "fingerprint": e.fingerprint,
                    "justification": e.justification,
                }
                for e in self.entries
            ],
        }
        Path(path).write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )

    def match(self, finding: Finding) -> BaselineEntry | None:
        for entry in self.entries:
            if entry.matches(finding):
                return entry
        return None


# --------------------------------------------------------------------- #
# Running
# --------------------------------------------------------------------- #
@dataclass
class Report:
    """Outcome of one analysis run."""

    findings: list[Finding]  # active: not suppressed, not baselined
    suppressed: list[tuple[Finding, str]]  # (finding, justification)
    baselined: list[tuple[Finding, BaselineEntry]]
    stale_baseline: list[BaselineEntry]  # entries that matched nothing
    files_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_json(self) -> dict:
        return {
            "files_checked": self.files_checked,
            "findings": [f.to_json() for f in self.findings],
            "suppressed": len(self.suppressed),
            "baselined": len(self.baselined),
            "stale_baseline": [
                {"rule": e.rule, "path": e.path, "fingerprint": e.fingerprint}
                for e in self.stale_baseline
            ],
        }


def check_module(
    module: ModuleSource, rules: "Iterable[Rule] | None" = None
) -> tuple[list[Finding], list[tuple[Finding, str]]]:
    """Run the registry over one module.

    Returns ``(active, suppressed)``; the baseline is applied by the
    caller (:func:`analyze_paths`) because it is a repo-level artifact.
    Malformed suppression comments (no justification) surface as
    ``suppression-format`` findings, which cannot themselves be
    suppressed.
    """
    active: list[Finding] = []
    suppressed: list[tuple[Finding, str]] = []
    for rule in rules if rules is not None else RULES.values():
        if not rule.applies_to(module):
            continue
        for finding in rule.check(module):
            justification = module.suppression_for(finding.rule, finding.line)
            if justification:
                suppressed.append((finding, justification))
            else:
                active.append(finding)
    for lineno, per_rule in sorted(module.suppressions.items()):
        for rule_id, reason in sorted(per_rule.items()):
            if reason is None:
                active.append(
                    Finding(
                        rule="suppression-format",
                        path=module.norm,
                        line=lineno,
                        message=(
                            f"lint-allow for {rule_id!r} has no "
                            "justification; write '# lint-allow: "
                            f"{rule_id} <why>'"
                        ),
                        line_text=module.line_text(lineno),
                    )
                )
    active.sort(key=lambda f: (f.path, f.line, f.rule))
    return active, suppressed


def iter_python_files(paths: Iterable["Path | str"]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
    seen: set[Path] = set()
    unique = []
    for f in files:
        resolved = f.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(f)
    return unique


def analyze_paths(
    paths: Iterable["Path | str"],
    baseline: "Baseline | None" = None,
    rules: "Iterable[Rule] | None" = None,
) -> Report:
    """Run the registry over every ``*.py`` under *paths* and fold in
    the baseline.  A file that fails to parse becomes a ``parse-error``
    finding rather than aborting the run."""
    baseline = baseline or Baseline()
    active: list[Finding] = []
    suppressed: list[tuple[Finding, str]] = []
    baselined: list[tuple[Finding, BaselineEntry]] = []
    matched_entries: set[int] = set()
    files = iter_python_files(paths)
    for file_path in files:
        try:
            module = ModuleSource(
                file_path, file_path.read_text(encoding="utf-8")
            )
        except SyntaxError as exc:
            active.append(
                Finding(
                    rule="parse-error",
                    path=normalize_path(file_path),
                    line=exc.lineno or 1,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        module_active, module_suppressed = check_module(module, rules)
        suppressed.extend(module_suppressed)
        for finding in module_active:
            entry = baseline.match(finding)
            if entry is not None:
                baselined.append((finding, entry))
                matched_entries.add(id(entry))
            else:
                active.append(finding)
    stale = [e for e in baseline.entries if id(e) not in matched_entries]
    active.sort(key=lambda f: (f.path, f.line, f.rule))
    return Report(
        findings=active,
        suppressed=suppressed,
        baselined=baselined,
        stale_baseline=stale,
        files_checked=len(files),
    )
