"""Background compute: applies accepted tuning actions (paper Fig. 3).

"Once the What-if Service accepts a tuning proposal ... the job is sent
to the background compute for execution."  Separate compute keeps tuning
work from contending with foreground queries (the §4 argument for why
auto-tuning is more solvable in the cloud); its spend is metered in a
ledger so experiments can report foreground vs background dollars.

Before anything mutates, :meth:`BackgroundComputeService.capture_undo`
builds an :class:`~repro.core.journal.UndoSnapshot` — plain data saying
exactly how to physically reverse the action (and what that reversal
will cost).  The :class:`~repro.tuning.service.TuningService` journals
that snapshot ahead of the mutation, hands the same snapshot to the
``apply_*`` method (which reads the physical flag and, for a recluster,
the prior stored table from it) and holds it on the applied
:class:`~repro.tuning.service.Recommendation`;
:meth:`BackgroundComputeService.rollback` executes it.  Tuning actions
stay revisitable as the workload drifts instead of being
fire-and-forget.  Every job first fires the ``tuning_apply`` fault
point through the warehouse's :class:`~repro.core.resilience.FaultPort`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.catalog import Catalog
from repro.core.journal import UndoSnapshot
from repro.core.resilience import FaultPort
from repro.engine.database import Database
from repro.engine.local_executor import LocalExecutor
from repro.errors import TuningError
from repro.optimizer.dag_planner import DagPlanner
from repro.sql.binder import Binder
from repro.tuning.clustering import ReclusterCandidate, improved_depth
from repro.tuning.mv import (
    MVCandidate,
    mv_build_sql,
    mv_schema,
    register_hypothetical_mv,
)
from repro.tuning.whatif import TuningReport


@dataclass
class LedgerEntry:
    """One executed background job and what it cost."""

    action_name: str
    kind: str
    dollars: float
    applied_physically: bool


@dataclass
class BackgroundComputeService:
    """Executes accepted tuning actions against the database/catalog."""

    database: Database | None = None
    catalog: Catalog | None = None
    #: One entry per committed apply / rollback.  Written by the
    #: warehouse ledger when the commit record lands
    #: (:meth:`repro.core.ledger.Ledger.apply`); the
    #: :class:`~repro.tuning.service.TuningService` passes the ledger's
    #: own list here so this stays the place to read background spend.
    ledger: list[LedgerEntry] = field(default_factory=list)
    #: Fires the ``tuning_apply`` fault point before any job (apply or
    #: rollback) mutates state, so an injected failure models background
    #: compute dying *before* the action landed — nothing is
    #: half-applied.  The :class:`~repro.tuning.service.TuningService`
    #: passes the warehouse's port.
    faults: FaultPort = field(default_factory=FaultPort)

    def __post_init__(self) -> None:
        if self.database is None and self.catalog is None:
            raise TuningError("background compute needs a database or catalog")
        if self.catalog is None and self.database is not None:
            self.catalog = self.database.catalog

    @property
    def total_spend(self) -> float:
        return sum(e.dollars for e in self.ledger)

    # ------------------------------------------------------------------ #
    def capture_undo(
        self, candidate: "MVCandidate | ReclusterCandidate", report: TuningReport
    ) -> UndoSnapshot:
        """Snapshot, before anything mutates, how to reverse applying
        ``candidate`` — the prior catalog entry and stored table for a
        recluster, so a later rollback restores bit-identical state
        regardless of what else happened in between."""
        assert self.catalog is not None
        database = self.database
        if isinstance(candidate, MVCandidate):
            return UndoSnapshot(
                action_name=candidate.name,
                kind="materialized-view",
                dollars=0.0,  # dropping a view is metadata-only
                physical=database is not None
                and all(t in database.table_names for t in candidate.base_tables),
                base_tables=tuple(candidate.base_tables),
            )
        physical = database is not None and candidate.table in database.table_names
        return UndoSnapshot(
            action_name=candidate.name,
            kind="recluster",
            dollars=report.one_time_dollars,  # sorting back is another rewrite
            physical=physical,
            table=candidate.table,
            prior_entry=self.catalog.table(candidate.table),
            prior_stored=database.stored_table(candidate.table) if physical else None,
        )

    def apply_mv(self, candidate: MVCandidate, undo: UndoSnapshot) -> None:
        """Materialize an accepted MV (physically when data is present);
        ``undo`` is the snapshot :meth:`capture_undo` took for it."""
        self.faults.fire("tuning_apply")
        if undo.physical:
            self._materialize_mv(candidate)
        else:
            register_hypothetical_mv(self.catalog, candidate, self.catalog)

    def _materialize_mv(self, candidate: MVCandidate) -> None:
        assert self.database is not None
        binder = Binder(self.database.catalog)
        build_query = binder.bind_sql(mv_build_sql(candidate))
        plan = DagPlanner(self.database.catalog).plan(build_query)
        result = LocalExecutor(self.database).execute(plan)
        schema = mv_schema(candidate, self.database.catalog)
        columns = {
            name: result.batch.column(name) for name in schema.column_names
        }
        dictionaries = {}
        for name in candidate.group_by:
            for table in candidate.base_tables:
                source = self.database.catalog.table(table).dictionaries.get(name)
                if source is not None:
                    dictionaries[name] = source
        self.database.create_table(schema, columns, dictionaries=dictionaries)
        self.database.catalog.register_view(candidate.to_view_def(mv_build_sql(candidate)))

    # ------------------------------------------------------------------ #
    def apply_recluster(
        self, candidate: ReclusterCandidate, undo: UndoSnapshot
    ) -> None:
        """Physically re-sort the table (or update the overlay stats);
        ``undo`` is the snapshot :meth:`capture_undo` took for it."""
        self.faults.fire("tuning_apply")
        if undo.physical:
            self.database.replace_table_storage(
                candidate.table, undo.prior_stored.recluster(candidate.key)
            )
        else:
            self.catalog.set_clustering(
                candidate.table,
                candidate.key,
                improved_depth(self.catalog, candidate.table),
            )

    # ------------------------------------------------------------------ #
    def rollback(self, undo: UndoSnapshot) -> None:
        """Execute an undo snapshot."""
        self.faults.fire("tuning_apply")
        undo.apply(self.database, self.catalog)
