"""Static architecture lint for the repro warehouse.

``python -m repro.analysis --strict src tests`` is a CI gate: it runs
seven AST rules that machine-enforce the contracts the warehouse's
correctness rests on — contracts that previously existed only as
ROADMAP prose.  The rules (see :mod:`repro.analysis.rules`):

======================  =================================================
``bare-except``         no ``except:`` / ``except BaseException:`` outside
                        ``repro/testing`` (would swallow
                        ``SimulatedCrashError``)
``wall-clock``          no wall-clock reads or unseeded randomness in
                        ``core``/``tuning``/``statsvc`` (virtual time +
                        ``derive_rng`` only; ``perf_counter`` allowed)
``float-billing``       no float ``+=`` on ``*_dollars`` balances
                        (integral ledger units via ``repro.util.units``)
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
======================  =================================================

Rules inspect code *shape*.  Three contracts that are facts about
module boundaries — ``journal.append`` is called only inside
``repro/core/ledger.py``; ``core/sharding_worker.py`` and
``core/planning.py`` import nothing of the journal / ledger / service /
warehouse / ``statsvc`` / ``obsvc`` layers and never name ``TenantBill``;
the ``CostIntelligentWarehouse.__init__`` keyword set is frozen — were
rules until PR 21 and are now assertions over the import graph in
``tests/testing/test_production_imports.py``.

**Adding a rule.**  Subclass :class:`~repro.analysis.engine.Rule` in
:mod:`repro.analysis.rules`, set ``rule_id`` (kebab-case) and
``description``, scope it with ``applies_to(module)`` (key on
``module.subpackage`` / ``module.norm``), yield findings from
``check(module)``, and decorate with ``@register``.  Every rule needs a
fixture pair in ``tests/analysis/test_rules.py`` — one snippet that
fires it and one that stays clean — plus the registry self-test
(``test_every_rule_fires_and_suppresses``) picks it up automatically.
Prefer syntactic checks keyed on the repo's own idioms over clever
inference: a rule that can false-positive is fine as long as the
suppression story is one obvious line.

**Suppression policy.**  A deliberate, reviewed exception is silenced
in place::

    summary.total_dollars += d  # lint-allow: float-billing sampled estimate

The justification is mandatory; a ``lint-allow`` comment naming only
the rule does not suppress and raises a ``suppression-format`` finding
instead.

**Baseline policy.**  ``baseline.json`` (next to this file) holds
grandfathered findings from before a rule existed, each with a
mandatory one-line justification.  Entries match on a hash of
rule + path + stripped source line, so they survive unrelated edits
but die with the offending line — fix the code and the entry goes
stale (reported as a warning; delete it).  New code never goes in the
baseline: suppress inline with a reason or fix it.

The runtime counterpart to this static lint is the lock-order
sanitizer in :mod:`repro.testing.locks`, which checks the one contract
an AST cannot see: a cycle-free lock acquisition order across threads.
"""

from repro.analysis import rules as rules  # registers the rule set
from repro.analysis.engine import (
    RULES,
    Baseline,
    BaselineEntry,
    Finding,
    ModuleSource,
    Report,
    Rule,
    analyze_paths,
    check_module,
    module_from_source,
    normalize_path,
    register,
)

__all__ = [
    "Baseline",
    "BaselineEntry",
    "Finding",
    "ModuleSource",
    "RULES",
    "Report",
    "Rule",
    "analyze_paths",
    "check_module",
    "module_from_source",
    "normalize_path",
    "register",
    "rules",
]
