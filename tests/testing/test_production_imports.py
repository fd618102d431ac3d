"""Module-boundary facts of the production package, read off its AST.

- Production code cannot reach the slow reference paths:
  ``repro.testing`` holds fault injection, the lock sanitizer and the
  parity references (``repro.testing.reference``); nothing outside it
  may import it.
- Every production module is reached by some production path.
- Only ``core/resilience.py``'s fault port draws from a fault plan.
- Only the ledger appends to the journal; the planner-worker modules
  never touch coordinator authority; the warehouse constructor's keyword
  surface is frozen.  (Until PR 21 these three were AST lint rules with
  registries and fixtures; each is one fact about module boundaries.)
- Only the ledger's transitions charge a ``TenantBill`` or count on it.
- One production module creates threads: ``core/service.py``.
- Every third-party module the package imports is declared in
  ``pyproject.toml``, so a clean install imports it.
"""

import ast
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import repro
from repro.core.warehouse import CostIntelligentWarehouse

PACKAGE_ROOT = Path(repro.__file__).parent
REPO_ROOT = PACKAGE_ROOT.parents[1]
EXEMPT = {"testing"}


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


def lazy_names(tree: ast.AST) -> dict[str, str]:
    """The ``{name: defining module}`` table a package ``__init__``
    resolves its public names from on first read (PEP 562)."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and [
            ast.unparse(target) for target in node.targets
        ] == ["_DEFINED_IN"]:
            return ast.literal_eval(node.value)
    return {}


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
    count — but an importer that reads a name *through* a package, by
    an import or from its lazy table, is followed to the module that
    defines the name."""
    modules = {module_name(path): path for path in TREES}
    reexports = {
        module_name(path): {
            **{name: module for module, name in from_imports(tree)},
            **lazy_names(tree),
        }
        for path, tree in TREES.items()
        if path.name == "__init__.py"
    }
    assert reexports["repro"]["load_tpch"] == "repro.workloads.tpch_data"

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


def test_the_ledger_journals_only_through_commit():
    """Inside the ledger, the journal append sits only in ``_append``
    (the probe-bracketed write) and ``checkpoint`` (a snapshot, not a
    transition), and ``_append`` is called only from ``commit`` — so no
    record is journaled without being applied by the same call."""
    tree = TREES[PACKAGE_ROOT / "core" / "ledger.py"]
    ledger = next(
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "Ledger"
    )
    appends, callers = set(), set()
    for method in ledger.body:
        if not isinstance(method, ast.FunctionDef):
            continue
        for node in ast.walk(method):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            target = ast.unparse(node.func.value)
            if node.func.attr == "append" and "journal" in target.lower():
                appends.add(method.name)
            if node.func.attr == "_append" and target == "self":
                callers.add(method.name)
    assert appends == {"_append", "checkpoint"}, appends
    assert callers == {"commit"}, callers


def test_only_the_ledger_charges_or_counts_on_a_bill():
    """A bill is a tenant's account, kept by the ledger's transitions
    alone: a charge or count made anywhere else is one that crash
    replay, which re-runs only the transitions, would not make."""
    tree = TREES[PACKAGE_ROOT / "core" / "ledger.py"]
    bill = next(
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "TenantBill"
    )
    mutators = {
        node.name
        for node in bill.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith(("charge", "count"))
    }
    assert mutators == {
        "charge_served",
        "charge_background",
        "charge_retry",
        "count_verdict",
        "count_unfolded",
    }
    # No other definition shares a name, so a call by name is a bill's.
    namesakes = [
        f"{path.relative_to(PACKAGE_ROOT)}:{node.lineno}"
        for path, tree in PRODUCTION.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and node.name in mutators
        and node not in bill.body
    ]
    assert namesakes == [], namesakes
    sites = {
        str(path.relative_to(PACKAGE_ROOT))
        for path, tree in PRODUCTION.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in mutators
    }
    assert sites == {"core/ledger.py"}, sites


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


def declared_dependencies() -> set[str]:
    """The import names in ``pyproject.toml``'s ``dependencies`` (version
    specifiers stripped; no declared package renames its module)."""
    text = (REPO_ROOT / "pyproject.toml").read_text()
    (listed,) = re.findall(r"^dependencies = \[(.*?)\]", text, re.M | re.S)
    return {
        re.split(r"[<>=!~\[; ]", name.strip(), maxsplit=1)[0]
        for name in re.findall(r"\"([^\"]+)\"", listed)
    }


def test_every_imported_package_is_declared():
    """A production import is the standard library, ``repro`` itself or a
    declared dependency: anything else fails ``import repro`` on a clean
    ``pip install``."""
    allowed = set(sys.stdlib_module_names) | {"repro"} | declared_dependencies()
    assert "numpy" in allowed
    undeclared = sorted(
        f"{path.relative_to(PACKAGE_ROOT)}: {module}"
        for path, tree in PRODUCTION.items()
        for module, _ in from_imports(tree)
        if module.split(".")[0] not in allowed
    )
    assert not undeclared, undeclared


def test_importing_the_package_loads_no_undeclared_package():
    """Checked in a fresh interpreter, where ``networkx`` (installed in
    the development environment, declared nowhere) would show up if any
    production module pulled it in.  Importing ``repro`` loads nothing
    (its names resolve lazily), so the probe imports every module."""
    probe = (
        "import importlib, pkgutil, sys, repro\n"
        "for module in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    if not module.name.startswith('repro.testing'):\n"
        "        importlib.import_module(module.name)\n"
        "print('networkx' in sys.modules, sum(m.startswith('repro.') for m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(PACKAGE_ROOT.parent)},
    )
    networkx, loaded = out.stdout.split()
    assert networkx == "False"
    assert int(loaded) > 50  # the walk really imported the package


#: Every ``repro`` module a planner worker process loads: what the
#: worker entrypoint imports plus what unpickling its spec and tasks and
#: serving them pulls in.  No coordinator module and no numpy.
WORKER_MODULES = {
    "repro",
    "repro.catalog",
    "repro.catalog.catalog",
    "repro.catalog.schema",
    "repro.catalog.statistics",
    "repro.compute",
    "repro.compute.node",
    "repro.core",
    "repro.core.bioptimizer",
    "repro.core.plan_cache",
    "repro.core.planning",
    "repro.core.sharding",
    "repro.core.sharding_worker",
    "repro.cost",
    "repro.cost.curve",
    "repro.cost.estimate",
    "repro.cost.estimator",
    "repro.cost.hardware",
    "repro.cost.query_simulator",
    "repro.cost.regression",
    "repro.cost.volumes",
    "repro.dop",
    "repro.dop.cofinish",
    "repro.dop.constraints",
    "repro.dop.planner",
    "repro.errors",
    "repro.optimizer",
    "repro.optimizer.bushy",
    "repro.optimizer.cardinality",
    "repro.optimizer.dag_planner",
    "repro.optimizer.join_order",
    "repro.plan",
    "repro.plan.expressions",
    "repro.plan.physical",
    "repro.plan.pipelines",
    "repro.plan.predicates",
    "repro.sql",
    "repro.sql.ast_nodes",
    "repro.sql.binder",
    "repro.sql.lexer",
    "repro.sql.parameterize",
    "repro.sql.parser",
    "repro.storage",
    "repro.storage.micropartition",
    "repro.storage.objectstore",
    "repro.tuning",
    "repro.tuning.mv",
    "repro.util",
    "repro.util.units",
}

WORKER_PROBE = """
import json, pickle, sys
from repro.core.sharding_worker import PlannerShard
spec, tasks = pickle.load(sys.stdin.buffer)
shard = PlannerShard(spec)
replies = [shard.serve(task) for task in tasks]
failed = [reply for reply in replies if reply[0] != "done"]
assert not failed and len(replies) == len(tasks), failed
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("repro", "numpy"))))
"""


def test_a_planner_worker_loads_only_the_planning_modules():
    """The runtime twin of
    ``test_planner_worker_modules_never_touch_coordinator_authority``: a
    fresh interpreter that imports only the worker entrypoint, builds a
    shard from a real spec (with an applied MV, so the rewrite runs) and
    serves TPC-H and ad-hoc tasks loads exactly ``WORKER_MODULES``.  A
    new import that drags a coordinator module or numpy into the worker
    fails here and names the module."""
    import pickle

    from repro.core.sharding import PlannerWorkerPool, StageTask
    from repro.dop.constraints import sla_constraint
    from repro.sql.parameterize import parameterize_sql
    from repro.statsvc.forecast import TemplateForecast
    from repro.tuning.mv import mv_candidate_from_query
    from repro.tuning.service import Recommendation
    from repro.workloads.adhoc import AdhocQueryGenerator
    from repro.workloads.tpch_queries import instantiate, template_names
    from repro.workloads.tpch_stats import synthetic_tpch_catalog

    warehouse = CostIntelligentWarehouse(catalog=synthetic_tpch_catalog(1.0))
    mv_sql = (
        "SELECT n_name, sum(c_acctbal) AS bal, count(*) AS cnt "
        "FROM customer, nation WHERE c_nationkey = n_nationkey "
        "AND n_regionkey = {r} GROUP BY n_name"
    )
    bound = warehouse.binder.bind_sql(mv_sql.format(r=1))
    candidate = mv_candidate_from_query(bound, warehouse.catalog, name="mv_probe")
    forecast = TemplateForecast(
        template="fam",
        rate_per_hour=120.0,
        periodic=True,
        period_s=30.0,
        observed_count=10,
        avg_dollars=0.01,
        avg_machine_seconds=10.0,
    )
    report = warehouse.tuning.whatif.evaluate_mv(candidate, {"fam": (bound, forecast)})
    rec = Recommendation(rec_id=1, report=report)
    warehouse.tuning.accept(rec)
    warehouse.tuning.apply(rec)
    spec = PlannerWorkerPool(warehouse, workers=1)._spec(0)
    assert [mv.name for mv in spec.applied_mvs] == ["mv_probe"]

    queries = [mv_sql.format(r=2)]
    queries += [instantiate(name, seed=3) for name in template_names()]
    queries += AdhocQueryGenerator(seed=5).batch(8)
    tasks = [
        StageTask(
            task_id=task_id,
            sql=sql,
            constraint=sla_constraint(20.0),
            template_key=parameterize_sql(sql).template_key,
            stats_version=warehouse.catalog.version,
        )
        for task_id, sql in enumerate(queries)
    ]
    out = subprocess.run(
        [sys.executable, "-c", WORKER_PROBE],
        input=pickle.dumps((spec, tasks)),
        capture_output=True,
        check=True,
        env={"PYTHONPATH": str(PACKAGE_ROOT.parent)},
    )
    loaded = set(json.loads(out.stdout))
    assert "numpy" not in loaded
    assert sorted(loaded - WORKER_MODULES) == []
    assert sorted(WORKER_MODULES - loaded) == []
