"""Engine of the repo lint: module model, rule registry, suppressions,
and the path walker.

The engine is deliberately small and dependency-free (stdlib ``ast``
only).  It knows nothing about the repo's invariants — those live in
:mod:`repro.analysis.rules` — it only provides the machinery:

- :class:`ModuleSource` — one parsed file: source, AST with a parent
  map (for enclosing-scope qualnames), normalized repo-relative path,
  package classification, and the per-line suppression table;
- :class:`Rule` + :func:`register` — the rule registry.  A rule is a
  class with a ``rule_id``, a ``description``, an ``applies_to(module)``
  scope predicate, and a ``check(module)`` generator of findings;
- :class:`Finding` — one violation at one source line;
- :func:`check_module` / :func:`analyze_paths` — run the registry over
  one module or a path tree and fold in suppressions.

Suppressions are per line: ``# lint-allow: <rule-id> <justification>``
on the offending line.  A justification is mandatory — a
``lint-allow`` comment naming only the rule does not suppress and
instead raises a ``suppression-format`` finding, so silent opt-outs
cannot accrete.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
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
    """Stable repo-relative posix path for rule scoping and reports.

    ``/anything/src/repro/core/x.py`` -> ``repro/core/x.py`` and
    ``/anything/tests/core/test_x.py`` -> ``tests/core/test_x.py``, so
    classification does not depend on the checkout location or the
    CLI's working directory.
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

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class ModuleSource:
    """A parsed module plus the classification the rules key on."""

    def __init__(self, path: "Path | str", source: str) -> None:
        self.path = Path(path)
        self.norm = normalize_path(path)
        self.source = source
        self.tree = ast.parse(source, filename=str(path))
        # line -> {rule_id: justification}; None justification means the
        # comment was malformed (missing reason) and must not suppress.
        self.suppressions: dict[int, dict[str, str | None]] = {}
        for lineno, text in enumerate(source.splitlines(), start=1):
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
# Running
# --------------------------------------------------------------------- #
@dataclass
class Report:
    """Outcome of one analysis run."""

    findings: list[Finding]  # active: not suppressed
    suppressed: list[tuple[Finding, str]]  # (finding, justification)
    files_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_json(self) -> dict:
        return {
            "files_checked": self.files_checked,
            "findings": [f.to_json() for f in self.findings],
            "suppressed": len(self.suppressed),
        }


def check_module(
    module: ModuleSource, rules: "Iterable[Rule] | None" = None
) -> tuple[list[Finding], list[tuple[Finding, str]]]:
    """Run the registry over one module.

    Returns ``(active, suppressed)``.  Malformed suppression comments
    (no justification) surface as ``suppression-format`` findings, which
    cannot themselves be suppressed.
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
    paths: Iterable["Path | str"], rules: "Iterable[Rule] | None" = None
) -> Report:
    """Run the registry over every ``*.py`` under *paths*.  A file that
    fails to parse becomes a ``parse-error`` finding rather than
    aborting the run."""
    active: list[Finding] = []
    suppressed: list[tuple[Finding, str]] = []
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
        active.extend(module_active)
        suppressed.extend(module_suppressed)
    active.sort(key=lambda f: (f.path, f.line, f.rule))
    return Report(findings=active, suppressed=suppressed, files_checked=len(files))
