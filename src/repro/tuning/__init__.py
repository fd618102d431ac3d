"""Cost-oriented auto-tuning (paper §4).

Uses the dollar as the common metric: a tuning action is worthwhile when
the computation it saves (``x`` $/hour, from workload forecasts and the
cost estimator) exceeds what it costs to store and maintain (``y``
$/hour), i.e. ``x − y > 0`` — plus a one-time application cost that sets
the break-even horizon.  The What-If Service evaluates proposals against
a hypothetical catalog overlay; accepted jobs run on background compute.

Architecture (mirrors the serving layer's request model)
--------------------------------------------------------

Tuning is a long-lived service, not a one-shot call.  The pipeline:

1. *Candidates* (:mod:`~repro.tuning.mv`, :mod:`~repro.tuning.clustering`)
   are value objects derived from the Statistics Service's summaries and
   template bindings.
2. The *What-If Service* (:mod:`~repro.tuning.whatif`) prices each
   candidate against a catalog overlay and emits a
   :class:`~repro.tuning.whatif.TuningReport` that **carries the
   candidate object** — nothing downstream parses action-name strings.
3. The *advisor* (:mod:`~repro.tuning.advisor`) greedily accepts
   profitable reports under a storage budget.
4. The *TuningService* (:mod:`~repro.tuning.service`) wraps each report
   in a typed :class:`~repro.tuning.service.TuningAction`
   (:class:`~repro.tuning.service.MaterializeView` /
   :class:`~repro.tuning.service.Recluster`) inside a
   :class:`~repro.tuning.service.Recommendation` with an explicit
   lifecycle (``PROPOSED -> ACCEPTED -> APPLYING -> APPLIED / REJECTED /
   ROLLED_BACK / FAILED``).  ``apply()`` runs on *background compute*
   (:mod:`~repro.tuning.background`), which captures an
   :class:`~repro.core.journal.UndoSnapshot` of prior state before it
   mutates so ``rollback()`` restores bit-identical plans and catalog entries.
   Every apply/rollback flushes the warehouse's plan/skeleton/binding
   caches and meters its dollars into the originating tenants' bills.
5. A :class:`~repro.tuning.service.TuningPolicy` (cadence, storage
   budget, tenant scope, forecast-fed auto-apply gates) lets the serving
   layer drive recurring cycles between batches.
"""

from repro.tuning.mv import MVCandidate, mv_candidate_from_query, try_rewrite
from repro.tuning.clustering import ReclusterCandidate, recluster_one_time_cost
from repro.tuning.whatif import TuningReport, WhatIfService
from repro.tuning.advisor import AutoTuningAdvisor
from repro.tuning.background import BackgroundComputeService
from repro.tuning.service import (
    MaterializeView,
    Recluster,
    Recommendation,
    RecommendationState,
    ResizeWarehouse,
    TuningAction,
    TuningPolicy,
    TuningService,
)

__all__ = [
    "MVCandidate",
    "mv_candidate_from_query",
    "try_rewrite",
    "ReclusterCandidate",
    "recluster_one_time_cost",
    "TuningReport",
    "WhatIfService",
    "AutoTuningAdvisor",
    "BackgroundComputeService",
    "TuningAction",
    "MaterializeView",
    "Recluster",
    "ResizeWarehouse",
    "Recommendation",
    "RecommendationState",
    "TuningPolicy",
    "TuningService",
]
