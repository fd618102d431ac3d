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
   The candidate *is* the tuning action: its ``name`` and ``kind``
   are the action's, and no wrapper or copy of it exists.
3. The *advisor* (:mod:`~repro.tuning.advisor`) greedily accepts
   profitable reports under a storage budget.
4. The *TuningService* (:mod:`~repro.tuning.service`) holds each report
   in a :class:`~repro.tuning.service.Recommendation` (whose ``action``
   is the report's candidate) with an explicit
   lifecycle (``PROPOSED -> ACCEPTED -> APPLYING -> APPLIED ->
   ROLLING_BACK -> ROLLED_BACK``, with ``REJECTED`` and ``FAILED``
   beside), held by the warehouse ledger so that a recovered warehouse
   lists and rolls back what it applied.  ``apply()`` runs on
   *background compute* (:mod:`~repro.tuning.background`, the one place
   that branches on the candidate's type), which captures an
   :class:`~repro.core.journal.UndoSnapshot` of prior state before it
   mutates so ``rollback()`` restores bit-identical plans and catalog entries.
   Every apply/rollback flushes the warehouse's plan and skeleton
   caches (its catalog change re-binds every template) and meters its dollars into the originating tenants' bills.
5. A :class:`~repro.tuning.service.TuningPolicy` (cadence, storage
   budget, tenant scope, forecast-fed auto-apply gates) lets the serving
   layer drive recurring cycles between batches.
"""
