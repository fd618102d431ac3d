"""Outside-in tracing: spans around calls into each layer's public entry.

Nothing under ``src/`` knows about this.  A :class:`Tracer` replaces
public functions and methods with timing wrappers for the length of the
traced pass and restores them afterwards.  A span is ``(layer, entry,
start, end, parent index, call id)``; spans of one ``Session.submit`` /
``submit_many`` call share its call id.  A layer's *self* time is its
spans' duration minus the part their child spans cover, so the layers'
self times add up to the time spent in the root (service) spans.

Probes name symbols by dotted path and are resolved at install time: a
symbol that no longer exists marks its layer missing (metrics ``None``)
without failing the run, so refactors need not edit these files.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

ROOT_LAYER = "core.service"

#: (layer, module, attribute path).  One-part paths are module functions
#: (patched in every ``repro`` namespace that imported them); two-part
#: paths are plain methods patched on the class.
PROBES: tuple[tuple[str, str, str], ...] = (
    (ROOT_LAYER, "repro.core.service", "Session.submit"),
    (ROOT_LAYER, "repro.core.service", "Session.submit_many"),
    ("sql.parameterize", "repro.sql.parameterize", "parameterize_sql"),
    ("sql.parser", "repro.sql.parser", "parse"),
    ("sql.parser", "repro.sql.parser", "parse_parameterized"),
    ("sql.binder", "repro.sql.binder", "Binder.bind"),
    ("core.plan_cache", "repro.core.plan_cache", "PlanCache.lookup"),
    ("core.plan_cache", "repro.core.plan_cache", "PlanCache.store"),
    ("core.plan_cache", "repro.core.plan_cache", "SkeletonCache.lookup"),
    ("core.plan_cache", "repro.core.plan_cache", "SkeletonCache.store"),
    ("core.plan_cache", "repro.core.plan_cache", "BindingCache.lookup"),
    ("core.plan_cache", "repro.core.plan_cache", "BindingCache.store"),
    ("optimizer.join_order", "repro.optimizer.join_order", "order_joins"),
    ("optimizer.bushy", "repro.optimizer.bushy", "bushy_variants"),
    ("optimizer.dag_planner", "repro.optimizer.dag_planner", "DagPlanner.plan_with_tree"),
    ("dop.planner", "repro.dop.planner", "DopPlanner.plan"),
    ("core.bioptimizer", "repro.core.bioptimizer", "BiObjectiveOptimizer.optimize"),
    ("sim.distsim", "repro.sim.distsim", "DistributedSimulator.run"),
    ("core.governance", "repro.core.governance", "AdmissionController.check"),
    ("statsvc.logs", "repro.statsvc.logs", "QueryLogStore.append"),
    ("core.journal", "repro.core.journal", "WriteAheadJournal.append"),
    ("core.journal", "repro.core.warehouse", "CostIntelligentWarehouse.checkpoint"),
    ("obsvc.collector", "repro.obsvc.collector", "SnapshotCollector.maybe_collect"),
    ("core.sharding", "repro.core.sharding", "PlannerWorkerPool.dispatch"),
    ("core.sharding", "repro.core.sharding", "PlannerWorkerPool.result_for"),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in PROBES))


class Tracer:
    """Installs the probes, keeps spans in memory, restores on exit."""

    def __init__(self, probes: tuple[tuple[str, str, str], ...] = PROBES) -> None:
        self.probes = probes
        #: ``[layer, entry, start, end, parent, call_id]`` per span.
        self.spans: list[list] = []
        #: What crossed the process boundary: ``dispatch()``'s keyword
        #: arguments and ``result_for()``'s return values, kept so their
        #: pickled sizes can be taken after the pass, outside every span.
        self.wire: dict[str, list] = {"task": [], "reply": []}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._calls = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- install / restore ---------------------------------------------- #
    def __enter__(self) -> "Tracer":
        for layer, module_name, path in self.probes:
            try:
                module = importlib.import_module(module_name)
                owner = module
                *parents, name = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = vars(owner)[name] if parents else getattr(owner, name)
            except (ImportError, AttributeError, KeyError):
                if layer not in self.missing:
                    self.missing.append(layer)
                continue
            wrapper = self._wrap(layer, f"{module_name}.{path}", original)
            if parents:
                self._patch(owner, name, original, wrapper)
                continue
            for namespace in list(sys.modules.values()):
                if (
                    getattr(namespace, "__name__", "").split(".")[0] == "repro"
                    and vars(namespace).get(name) is original
                ):
                    self._patch(namespace, name, original, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _patch(self, owner, name: str, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._undo.append((owner, name, original))

    def _wrap(self, layer: str, entry: str, fn):
        spans, stack, wire = self.spans, self._stack, self.wire
        root = layer == ROOT_LAYER
        keep_task = entry.endswith("PlannerWorkerPool.dispatch")
        keep_reply = entry.endswith("PlannerWorkerPool.result_for")

        def probe(*args, **kwargs):
            if root:
                self._calls += 1
            span = [layer, entry, 0.0, 0.0, stack[-1] if stack else -1, self._calls]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if keep_task:
                wire["task"].append(kwargs)
            elif keep_reply:
                wire["reply"].append(result)
            return result

        functools.update_wrapper(probe, fn)
        for attr in ("cache_clear", "cache_info"):  # lru_cache'd functions
            if hasattr(fn, attr):
                setattr(probe, attr, getattr(fn, attr))
        return probe

    def reset(self) -> None:
        """Forget everything recorded so far (end of the warm-up pass)."""
        self.spans.clear()
        self.wire["task"].clear()
        self.wire["reply"].clear()
        self._calls = 0


def account(spans: list) -> dict:
    """Self-time accounting over ``[layer, entry, start, end, parent,
    call_id]`` spans.

    Returns per-layer ``self_s`` / ``calls``, per-entry ``self_s`` /
    ``calls``, and ``root_s`` — the summed duration of parentless spans,
    which the layers' self times add up to exactly (a child's interval
    lies inside its parent's, and siblings on one thread never overlap).
    """
    covered = [0.0] * len(spans)
    for layer, entry, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    layers: dict[str, dict] = defaultdict(lambda: {"self_s": 0.0, "calls": 0})
    entries: dict[str, dict] = defaultdict(lambda: {"self_s": 0.0, "calls": 0})
    root_s = 0.0
    for index, (layer, entry, start, end, parent, _) in enumerate(spans):
        self_s = (end - start) - covered[index]
        for row in (layers[layer], entries[entry]):
            row["self_s"] += self_s
            row["calls"] += 1
        if parent < 0:
            root_s += end - start
    return {"layers": dict(layers), "entries": dict(entries), "root_s": root_s}
