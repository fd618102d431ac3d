"""The eight shape rules: plain AST checks over ``src`` and ``tests``.

``test_repo_clean.py`` runs every check over both trees; ``test_rules.py``
holds each to a snippet that fires it and one that stays clean.  A check
takes the repo-relative posix path (``src/repro/core/x.py``,
``tests/core/test_x.py``), the parsed module and its source lines, and
yields one ``(line, message)`` pair per offence.

======================  =================================================
``bare-except``         no ``except:`` / ``except BaseException:`` outside
                        ``repro/testing``, ``tests/`` included (would
                        swallow ``SimulatedCrashError``)
``wall-clock``          no wall-clock reads or unseeded randomness in
                        ``core``/``tuning``/``statsvc``/``obsvc``
                        (virtual time + ``derive_rng``; ``perf_counter``
                        allowed)
``float-billing``       no float ``+=`` on ``*_dollars`` balances in the
                        same packages (ledger units via ``repro.util.units``)
``metric-name``         every metric emitted or read through a registry
                        is a literal name declared in
                        ``repro.obsvc.metrics.REGISTERED_METRICS``
``stage-guard``         no broad ``try/except`` around the
                        bind/optimize/simulate fault points outside
                        ``StageGuard``
``naked-acquire``       locks held via ``with`` only, never
                        ``.acquire()``/``.release()``
``picklable-record``    journal records and ``ReproError`` fields
                        restricted to picklable plain-data types
``process-memo``        no ``lru_cache`` / ``cache`` decorator and no
                        module-level container written inside a function
                        in ``src`` without its measured reason
======================  =================================================

Checks key on the repo's own idioms (``faults.fire``, ``*_dollars``,
``*lock*.acquire``) instead of inferring types, so a hit is a near-certain
contract breach.  A deliberate, reviewed exception is silenced on its own
line, and the reason is mandatory (a ``lint-allow`` naming only the rule
does not suppress and is itself a violation); there is no baseline file::

    summary.total_dollars += d  # lint-allow: float-billing sampled estimate

**Adding a check.**  Write a function with the signature above, scope it
on ``path`` (:func:`package`), add it to :data:`CHECKS`, and give it a
``bad``/``good`` pair in ``test_rules.py``'s ``CORPUS``.  Prefer syntactic
checks over clever inference: a false positive is fine as long as its
suppression is one obvious line.  Facts about module boundaries are
assertions in ``tests/testing/test_production_imports.py``; the runtime
complement, a cycle-free lock order, is :mod:`repro.testing.locks`.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.obsvc.metrics import REGISTERED_METRICS

Findings = Iterator[tuple[int, str]]

DETERMINISTIC_PACKAGES = frozenset({"core", "tuning", "statsvc", "obsvc"})
_ALLOW = re.compile(r"#\s*lint-allow:\s*(?P<rule>[a-z0-9-]+)(?:[ \t]+(?P<why>\S.*))?")
_DERIVE_RNG = "use repro.util.rng.derive_rng(seed, ...)"


def package(path: str) -> str:
    """``core`` for ``src/repro/core/x.py``; ``""`` for top-level modules
    and for everything outside ``src/repro``."""
    parts = path.split("/")
    return parts[2] if parts[:2] == ["src", "repro"] and len(parts) > 3 else ""


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None`` (``f().x``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return f"{base}.{node.attr}" if base is not None else None
    return None


def _handler_names(handler: ast.ExceptHandler) -> list[str | None]:
    """Dotted names caught by one handler (``None`` = bare except)."""
    if handler.type is None:
        return [None]
    if isinstance(handler.type, ast.Tuple):
        return [dotted_name(el) for el in handler.type.elts]
    return [dotted_name(handler.type)]


def _method_calls(tree: ast.AST, methods) -> Iterator[tuple[ast.Call, str]]:
    """Calls of ``receiver.method(...)`` for *methods*, with the receiver."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in methods
        ):
            yield node, dotted_name(node.func.value) or ""


def bare_except(path: str, tree: ast.AST, lines: list[str]) -> Findings:
    """A simulated ``kill -9`` (``SimulatedCrashError``, a
    ``BaseException``) must unwind every frame; only ``repro/testing``,
    which drives the crashes, may catch it."""
    if package(path) == "testing":
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            for name in _handler_names(node):
                if name is None or name.split(".")[-1] == "BaseException":
                    what = "bare except" if name is None else f"except {name}"
                    yield node.lineno, f"{what} swallows SimulatedCrashError; catch Exception"


_WALL_CLOCK_CALLS = frozenset(
    {"time.time", "time.time_ns", "datetime.now", "datetime.datetime.now",
     "datetime.utcnow", "datetime.datetime.utcnow", "datetime.today",
     "datetime.date.today", "date.today"}
)


def wall_clock(path: str, tree: ast.AST, lines: list[str]) -> Findings:
    """Modeled state reads workload time (``at_time``) and ``derive_rng``
    only, or replay cannot reproduce billing, admission and tuning;
    ``time.perf_counter`` measures host durations and is allowed."""
    if package(path) not in DETERMINISTIC_PACKAGES:
        return
    for node in ast.walk(tree):
        name = dotted_name(node.func) if isinstance(node, ast.Call) else None
        if name is None:
            continue
        if name in _WALL_CLOCK_CALLS:
            yield node.lineno, f"{name}() reads the wall clock; use at_time or perf_counter"
        elif name.startswith("random."):
            yield node.lineno, f"{name}() is unseeded randomness; {_DERIVE_RNG}"
        elif name in ("default_rng", "np.random.default_rng", "numpy.random.default_rng"):
            if not node.args and not node.keywords:
                yield node.lineno, f"default_rng() without a seed; {_DERIVE_RNG}"
        elif name.startswith(("np.random.", "numpy.random.")):
            yield node.lineno, f"{name}() uses numpy's global RNG; {_DERIVE_RNG}"


def float_billing(path: str, tree: ast.AST, lines: list[str]) -> Findings:
    """Float accumulation drifts with order, so a crash-recovery replay
    would not reproduce a live balance bit for bit."""
    if package(path) not in DETERMINISTIC_PACKAGES:
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
            name = getattr(node.target, "attr", None) or getattr(node.target, "id", "")
            if name == "dollars" or name.endswith("_dollars"):
                yield node.lineno, f"float += on {name!r}; accumulate ledger units"


def metric_name(path: str, tree: ast.AST, lines: list[str]) -> Findings:
    """The registry rejects an undeclared name only on paths a test runs.
    Reads are audited too: a typo'd read returns zero forever."""
    if not path.startswith("src/repro/") or package(path) == "testing":
        return
    if path == "src/repro/obsvc/metrics.py":  # validates at runtime itself
        return
    methods = {"counter", "histogram", "source", "value", "sourced"}
    for node, receiver in _method_calls(tree, methods):
        tail = receiver.lower().rsplit(".", 1)[-1]
        if "metric" not in tail and "registry" not in tail:
            continue
        first = node.args[0] if node.args else None
        if not isinstance(first, ast.Constant) or not isinstance(first.value, str):
            yield node.lineno, f"{receiver}.{node.func.attr}() with a non-literal name"
        elif first.value not in REGISTERED_METRICS:
            yield node.lineno, f"undeclared metric {first.value!r}; add it to REGISTERED_METRICS"


_BROAD_CATCHES = frozenset(
    {"BaseException", "Exception", "TransientError", "InjectedFault", "ReproError"}
)


def _is_fault_point(node: ast.AST) -> bool:
    """A guarded stage's ``run`` or a fault port's ``fire`` / ``decide``."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    receiver = (dotted_name(node.func.value) or "").lower()
    if node.func.attr in ("fire", "decide"):
        return "fault" in receiver
    if node.func.attr == "run":
        first = node.args[0] if node.args else None
        stage = isinstance(first, ast.Constant) and first.value in (
            "bind", "optimize", "simulate"
        )
        return stage or "guard" in receiver
    return False


def stage_guard(path: str, tree: ast.AST, lines: list[str]) -> Findings:
    """``StageGuard.run`` owns retries, deadline charging and typed error
    translation; a broad catch around a fault point double-retries or
    hides ``InjectedFault``.  Narrow typed catches stay legal."""
    if package(path) not in ("core", "tuning") or path == "src/repro/core/resilience.py":
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Try):
            continue
        faults = [
            call.lineno
            for stmt in node.body
            for call in ast.walk(stmt)
            if _is_fault_point(call)
        ]
        for handler in node.handlers if faults else ():
            for name in _handler_names(handler):
                caught = name.split(".")[-1] if name else None
                if caught is None or caught in _BROAD_CATCHES:
                    yield handler.lineno, (
                        f"except {caught or ''} around the fault point on line "
                        f"{faults[0]}; only StageGuard may catch broadly"
                    )


def naked_acquire(path: str, tree: ast.AST, lines: list[str]) -> Findings:
    """A crash between ``acquire()`` and ``release()`` leaks the lock and
    deadlocks every later request; ``with`` cannot."""
    if not path.startswith("src/repro/"):
        return
    for node, receiver in _method_calls(tree, ("acquire", "release")):
        if "lock" in receiver.lower():  # not compute-pool leases
            yield node.lineno, f"naked {receiver}.{node.func.attr}(); use `with {receiver}:`"


#: Process-local types, word-bounded so "Blocked" or "CallableSpec" pass.
_UNPICKLABLE_TOKENS = re.compile(
    r"\b(Callable|Lock|RLock|Thread|Condition|Generator|Iterator|"
    r"TextIO|BinaryIO|socket|weakref|Queue|FaultPlan|Session|"
    r"ThreadPoolExecutor)\b"
)


def picklable_record(path: str, tree: ast.AST, lines: list[str]) -> Findings:
    """Recovery unpickles the journal in a fresh process, so dataclass
    fields and ``*Error.__init__`` parameters there hold plain data."""
    if path not in ("src/repro/core/journal.py", "src/repro/errors.py"):
        return
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        fields = []
        if any(
            (dotted_name(d) or dotted_name(getattr(d, "func", ast.Pass())))
            in ("dataclass", "dataclasses.dataclass")
            for d in cls.decorator_list
        ):
            fields += [
                (stmt.target.id, stmt.annotation)
                for stmt in cls.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            ]
        if cls.name.endswith("Error"):
            fields += [
                (arg.arg, arg.annotation)
                for stmt in cls.body
                if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"
                for arg in stmt.args.posonlyargs + stmt.args.args + stmt.args.kwonlyargs
                if arg.annotation is not None
            ]
        for field, node in fields:
            annotation = ast.unparse(node)
            match = _UNPICKLABLE_TOKENS.search(annotation)
            if match:
                yield node.lineno, (
                    f"{cls.name}.{field} annotated {annotation!r}: "
                    f"{match.group(1)} cannot pickle into the recovery process"
                )


_MEMO_DECORATORS = frozenset(
    {"lru_cache", "functools.lru_cache", "cache", "functools.cache"}
)
_CONTAINER_LITERALS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
_CONTAINER_CALLS = frozenset(
    {"dict", "list", "set", "OrderedDict", "collections.OrderedDict",
     "defaultdict", "collections.defaultdict", "deque", "collections.deque",
     "Counter", "collections.Counter", "WeakKeyDictionary", "WeakValueDictionary",
     "weakref.WeakKeyDictionary", "weakref.WeakValueDictionary"}
)
_MUTATORS = frozenset(
    {"append", "appendleft", "extend", "insert", "add", "update", "setdefault",
     "pop", "popleft", "popitem", "clear", "remove", "discard", "move_to_end"}
)


def _module_containers(tree: ast.Module) -> dict[str, int]:
    """Module-level names bound to a fresh container, with their line."""
    found = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        is_container = isinstance(value, _CONTAINER_LITERALS) or (
            isinstance(value, ast.Call) and dotted_name(value.func) in _CONTAINER_CALLS
        )
        for target in targets if is_container else ():
            if isinstance(target, ast.Name):
                found[target.id] = stmt.lineno
    return found


def _written_names(func: ast.AST) -> Iterator[str]:
    """Names whose object ``func`` mutates: ``name[k] = v``,
    ``del name[k]``, ``name[k] += v`` and ``name.<mutator>(...)``.  A
    local that shadows a module-level name counts too (suppress it)."""
    for node in ast.walk(func):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            target = node.value
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATORS
        ):
            target = node.func.value
        else:
            continue
        if isinstance(target, ast.Name):
            yield target.id


def process_memo(path: str, tree: ast.AST, lines: list[str]) -> Findings:
    """A memo at module scope belongs to the interpreter, not to a
    warehouse: nothing bounds it per warehouse, resets it or reports it
    unless someone wires that by hand, and every warehouse and test in
    the process shares it.  One that stays names the measurement that
    keeps it."""
    if not path.startswith("src/repro/"):
        return
    containers = _module_containers(tree)
    writers: dict[str, str] = {}
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in func.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            name = dotted_name(target)
            if name in _MEMO_DECORATORS:
                yield decorator.lineno, (
                    f"@{name} on {func.name}() is a process-wide memo; "
                    "give it an owner or state its measured reason"
                )
        for name in _written_names(func):
            if name in containers:
                writers.setdefault(name, func.name)
    for name, writer in sorted(writers.items()):
        yield containers[name], (
            f"module-level {name} is written in {writer}(): a process-wide "
            "memo; give it an owner or state its measured reason"
        )


CHECKS = {
    "bare-except": bare_except,
    "wall-clock": wall_clock,
    "float-billing": float_billing,
    "metric-name": metric_name,
    "stage-guard": stage_guard,
    "naked-acquire": naked_acquire,
    "picklable-record": picklable_record,
    "process-memo": process_memo,
}


def justification(rule: str, line: int, lines: list[str]) -> str | None:
    """The reason of a ``# lint-allow: <rule> <why>`` on *line*, if any."""
    match = _ALLOW.search(lines[line - 1])
    return match["why"] if match and match["rule"] == rule else None


def violations(path: str, source: str) -> list[str]:
    """Every unsuppressed finding in one file as ``path:line: [rule]
    message``; a ``lint-allow`` with no reason is one too."""
    tree = ast.parse(source, filename=path)
    lines = source.splitlines()
    found = [
        f"{path}:{line}: [{rule}] {message}"
        for rule, check in CHECKS.items()
        for line, message in check(path, tree, lines)
        if not justification(rule, line, lines)
    ]
    for line, text in enumerate(lines, start=1):
        match = _ALLOW.search(text)
        if match and not match["why"]:
            found.append(f"{path}:{line}: lint-allow for {match['rule']!r} has no justification")
    return found
