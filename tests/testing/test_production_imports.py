"""Module-boundary facts of the production package, read off its AST.

- Production code cannot reach the slow reference paths:
  ``repro.testing`` holds fault injection, the lock sanitizer and the
  parity references (``repro.testing.reference``); nothing outside it (and
  outside the ``repro.analysis`` linter, which is tooling) may import it.
- Every production module is reached by some production path.
- Only ``core/resilience.py``'s fault port draws from a fault plan.
- Only the ledger appends to the journal; the planner-worker modules
  never touch coordinator authority; the warehouse constructor's keyword
  surface is frozen.  (Until PR 21 these three were AST lint rules with
  registries and fixtures; each is one fact about module boundaries.)
- One production module creates threads: ``core/service.py``.
"""

import ast
import inspect
from pathlib import Path

import repro
from repro.core.warehouse import CostIntelligentWarehouse

PACKAGE_ROOT = Path(repro.__file__).parent
REPO_ROOT = PACKAGE_ROOT.parents[1]
EXEMPT = {"testing", "analysis"}


def module_name(path: Path) -> str:
    parts = list(path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def from_imports(tree: ast.AST):
    """``(module, name)`` per absolute import (``name`` is ``None`` for
    ``import module``); the package uses no relative imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            for alias in node.names:
                yield node.module, alias.name


def imported_modules(tree: ast.AST):
    for module, name in from_imports(tree):
        yield module
        if name is not None:
            yield f"{module}.{name}"


TREES = {
    path: ast.parse(path.read_text()) for path in sorted(PACKAGE_ROOT.rglob("*.py"))
}
PRODUCTION = {
    path: tree
    for path, tree in TREES.items()
    if path.relative_to(PACKAGE_ROOT).parts[0] not in EXEMPT
}


def test_no_production_module_imports_repro_testing():
    offenders = []
    for path, tree in PRODUCTION.items():
        for module in imported_modules(tree):
            if module == "repro.testing" or module.startswith("repro.testing."):
                offenders.append(f"{path.relative_to(PACKAGE_ROOT)}: {module}")
    assert len(PRODUCTION) > 50  # the walk really covered the package
    assert not offenders, offenders


def test_every_production_module_is_reachable():
    """Each module is imported by another production module, a benchmark
    or an example.  A package ``__init__`` re-exporting it does not
    count — but an importer that reads a name *through* a package is
    followed to the module that defines the name."""
    modules = {module_name(path): path for path in TREES}
    reexports = {
        module_name(path): {name: module for module, name in from_imports(tree)}
        for path, tree in TREES.items()
        if path.name == "__init__.py"
    }

    def resolve(module: str, name: "str | None") -> str:
        while name is not None:
            if f"{module}.{name}" in modules:
                return f"{module}.{name}"
            if name not in reexports.get(module, ()):
                break
            module = reexports[module][name]
        return module

    candidates = {
        module_name(path): tree
        for path, tree in PRODUCTION.items()
        if path.name not in ("__init__.py", "__main__.py")
    }
    importers = list(candidates.items()) + [
        (None, ast.parse(path.read_text()))
        for directory in ("benchmarks", "examples")
        for path in sorted((REPO_ROOT / directory).rglob("*.py"))
    ]
    assert len(importers) > len(candidates) + 20  # benchmarks and examples found
    reached = set()
    for importer, tree in importers:
        for module, name in from_imports(tree):
            target = resolve(module, name)
            if target != importer:
                reached.add(target)
    unreached = sorted(set(candidates) - reached)
    assert unreached == [], unreached


def test_only_the_fault_port_draws_from_a_fault_plan():
    """Every fault and crash point goes through
    :class:`~repro.core.resilience.FaultPort`: installing a plan reaches
    all of them, and a seeded schedule's draws happen in one place."""
    sites = sorted(
        str(path.relative_to(PACKAGE_ROOT))
        for path, tree in PRODUCTION.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "draw"
    )
    assert sites == ["core/resilience.py"], sites


def test_the_thread_executor_is_the_only_thread_creator():
    """Every lock in the package has exactly one in-tree concurrent
    caller: ``submit_many``'s thread executor.  When that adapter goes,
    this assertion flips, and the remaining locks guard against user
    threads only."""
    pool_importers = set()
    for path, tree in PRODUCTION.items():
        relative = str(path.relative_to(PACKAGE_ROOT))
        if any(m.startswith("concurrent.futures") for m in imported_modules(tree)):
            pool_importers.add(relative)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                called = ast.unparse(node.func)
                assert called not in ("threading.Thread", "Thread"), relative
    assert pool_importers == {"core/service.py"}


def test_only_the_ledger_appends_to_the_journal():
    """"Journal, then apply through the one transition function" holds
    only if nothing writes the journal around ``Ledger.commit`` — and the
    kill-point matrix crashes through every journaled write by crashing
    through the ledger's."""
    sites = []
    for path, tree in TREES.items():
        relative = path.relative_to(PACKAGE_ROOT)
        if relative.parts[0] == "testing":
            continue
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "append"
                and "journal" in ast.unparse(node.func.value).lower()
            ):
                sites.append(str(relative))
    assert sites and set(sites) == {"core/ledger.py"}, sites


def test_planner_worker_modules_never_touch_coordinator_authority():
    """Workers bind and optimize; every journal append, bill, admission
    decision and statistics-log write stays in the coordinator's ordered
    finalize.  A restarted worker replays its in-flight tasks, so any
    side effect it performed would run twice."""
    coordinator = (
        "repro.core.journal",
        "repro.core.ledger",
        "repro.core.service",
        "repro.core.warehouse",
        "repro.statsvc",
        "repro.obsvc",
    )
    for relative in ("core/sharding_worker.py", "core/planning.py"):
        tree = TREES[PACKAGE_ROOT / relative]
        imported = set(imported_modules(tree))
        assert len(imported) > 3, relative
        offenders = [
            module
            for module in imported
            if any(module == p or module.startswith(p + ".") for p in coordinator)
        ]
        assert not offenders, (relative, offenders)
        names = {
            getattr(node, "id", None) or getattr(node, "attr", None)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        assert "TenantBill" not in names, relative


def test_warehouse_constructor_keywords_are_frozen():
    """The constructor is the narrow waist of the public API: serving
    features extend ``Session`` / ``ServingScheduler``, tuning features
    ``TuningService`` / ``TuningPolicy``.  A new keyword is an API
    decision made by editing this set."""
    assert set(inspect.signature(CostIntelligentWarehouse.__init__).parameters) == {
        "self",
        "database",
        "catalog",
        "hardware",
        "estimator",
        "sim_config",
        "max_dop",
        "explore_bushy",
        "plan_cache_size",
        "tuning_policy",
        "retention_policy",
        "tenant_budgets",
        "resilience",
        "journal",
    }
