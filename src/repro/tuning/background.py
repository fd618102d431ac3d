"""Background compute: applies accepted tuning actions (paper Fig. 3).

"Once the What-if Service accepts a tuning proposal ... the job is sent
to the background compute for execution."  Separate compute keeps tuning
work from contending with foreground queries (the §4 argument for why
auto-tuning is more solvable in the cloud).  Its spend is metered by
the warehouse ledger when an apply or rollback commits, into the
originating tenants' background dollars, so experiments can report
foreground vs background spend.

A tuning action is its candidate (:class:`~repro.tuning.mv.MVCandidate`
or :class:`~repro.tuning.clustering.ReclusterCandidate`), and this
service is the one place that branches on the candidate's type.  Before
anything mutates, :meth:`BackgroundComputeService.capture_undo` builds
an :class:`~repro.core.journal.UndoSnapshot` — plain data saying how to
physically reverse the action (and what that reversal will cost), or a
:class:`~repro.errors.TuningError` for a candidate type it cannot
execute.  The :class:`~repro.tuning.service.TuningService` journals that
snapshot ahead of the mutation, hands it with the candidate to
:meth:`BackgroundComputeService.apply` (which refuses a view whose name
the catalog holds, then reads the physical flag and, for a recluster,
the prior stored table from the snapshot) and holds it on the applied
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
class BackgroundComputeService:
    """Executes accepted tuning actions against the database/catalog."""

    database: Database | None = None
    catalog: Catalog | None = None
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

    # ------------------------------------------------------------------ #
    # The one dispatch on the candidate's type: a new action kind is a
    # candidate type with a branch in capture_undo and apply.
    # ------------------------------------------------------------------ #
    def capture_undo(self, report: TuningReport) -> UndoSnapshot:
        """Snapshot, before anything mutates, how to reverse applying
        ``report.candidate`` — the prior catalog entry and stored table
        for a recluster, so a later rollback restores bit-identical
        state regardless of what else happened in between.  A candidate
        of any other type raises :class:`TuningError`."""
        assert self.catalog is not None
        candidate, database = report.candidate, self.database
        if isinstance(candidate, MVCandidate):
            return UndoSnapshot(
                dollars=0.0,  # dropping a view is metadata-only
                physical=database is not None
                and all(t in database.table_names for t in candidate.base_tables),
            )
        if isinstance(candidate, ReclusterCandidate):
            table = candidate.table
            physical = database is not None and table in database.table_names
            return UndoSnapshot(
                dollars=report.one_time_dollars,  # sorting back is another rewrite
                physical=physical,
                prior_entry=self.catalog.table(table),
                prior_stored=database.stored_table(table) if physical else None,
            )
        raise TuningError(
            f"no background executor for {type(candidate).__name__} actions"
        )

    def apply(
        self, candidate: "MVCandidate | ReclusterCandidate", undo: UndoSnapshot
    ) -> None:
        """Apply ``candidate``, whose ``undo`` :meth:`capture_undo`
        took.  A view whose name the catalog already holds raises
        :class:`TuningError` before anything mutates."""
        if isinstance(candidate, MVCandidate):
            name = candidate.name
            if self.catalog.has_view(name) or self.catalog.has_table(name):
                raise TuningError(
                    f"{name!r} already exists in the catalog; roll the prior "
                    "application back (or rename the candidate) first"
                )
            self.apply_mv(candidate, undo)
        else:
            self.apply_recluster(candidate, undo)

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
    def rollback(
        self, candidate: "MVCandidate | ReclusterCandidate", undo: UndoSnapshot
    ) -> None:
        """Reverse applying ``candidate`` by executing its undo snapshot."""
        self.faults.fire("tuning_apply")
        undo.apply(candidate, self.database, self.catalog)
