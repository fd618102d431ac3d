"""Production code cannot reach the slow reference paths.

``repro.testing`` holds fault injection, the lock sanitizer and the
parity references (``repro.testing.reference``); nothing outside it (and
outside the ``repro.analysis`` linter, which is tooling) may import it.
"""

import ast
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).parent
EXEMPT = {"testing", "analysis"}


def imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module or ""
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


def test_no_production_module_imports_repro_testing():
    offenders = []
    checked = 0
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        relative = path.relative_to(PACKAGE_ROOT)
        if relative.parts[0] in EXEMPT:
            continue
        checked += 1
        for module in imported_modules(ast.parse(path.read_text())):
            if module == "repro.testing" or module.startswith("repro.testing."):
                offenders.append(f"{relative}: {module}")
    assert checked > 50  # the walk really covered the package
    assert not offenders, offenders
