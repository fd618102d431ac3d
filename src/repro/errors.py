"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish subsystems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class TransientError(ReproError):
    """A failure that may succeed on retry (dependency blip, injected
    fault, ...).  The resilience layer's :class:`~repro.core.resilience.
    RetryPolicy` retries *only* subclasses of this marker: deterministic
    user errors (:class:`BindError`, :class:`ParseError`, an infeasible
    constraint) re-fail identically on every attempt and propagate
    immediately instead of burning retry dollars."""


def _restore_error(cls: type, detail: str, state: dict) -> Exception:
    """Rebuild a repro error from its pickled state.

    Errors with required keyword-only constructor arguments (e.g.
    :class:`AdmissionDeniedError`'s ``tenant``) cannot use the default
    ``cls(*args)`` exception reconstruction; this bypasses ``__init__``
    and restores the already-formatted message plus the attribute dict.
    """
    error = cls.__new__(cls)
    Exception.__init__(error, detail)
    error.__dict__.update(state)
    return error


class CatalogError(ReproError):
    """Schema or metadata problem (unknown table/column, duplicate name...)."""


class StorageError(ReproError):
    """Object-store or micro-partition level failure."""


class ComputeError(ReproError):
    """Elastic-compute layer failure (pool exhausted, invalid resize...)."""


class SqlError(ReproError):
    """SQL front-end failure. Carries an optional source position."""

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class ParseError(SqlError):
    """Raised by the lexer/parser on malformed SQL text."""


class BindError(SqlError):
    """Raised by the binder when names cannot be resolved."""


class PlanError(ReproError):
    """Invalid logical/physical plan construction or transformation."""


class OptimizerError(ReproError):
    """Optimizer failure (no feasible plan, search error...)."""


class EstimationError(ReproError):
    """Cost-estimation failure (missing calibration, invalid input...)."""


class InfeasibleConstraintError(OptimizerError):
    """No plan satisfies the user's latency SLA or budget constraint.

    The optimizer attaches the best achievable value so callers can report
    "tightest achievable" to the user, mirroring the paper's goal of making
    trade-offs explicit.
    """

    def __init__(self, message: str, best_achievable: float | None = None) -> None:
        super().__init__(message)
        self.best_achievable = best_achievable


class ExecutionError(ReproError):
    """Local engine or distributed-simulation failure at run time."""


class DeadlineExceededError(ReproError):
    """A serving stage (or the whole request) ran past its deadline.

    Carries the stage that tripped and the configured/elapsed seconds.
    An ``optimize`` deadline is special-cased by the serving layer: it
    falls back to degraded-mode planning instead of failing the query.
    """

    def __init__(
        self,
        message: str,
        *,
        stage: str | None = None,
        deadline_s: float | None = None,
        elapsed_s: float | None = None,
    ) -> None:
        super().__init__(message)
        self.stage = stage
        self.deadline_s = deadline_s
        self.elapsed_s = elapsed_s


class RetryExhaustedError(ReproError):
    """A transient failure persisted through every allowed retry attempt.

    Terminal (deliberately *not* a :class:`TransientError`: the budget
    of attempts is spent).  Carries the stage, the attempt count, and a
    picklable summary of the last underlying failure.
    """

    def __init__(
        self,
        message: str,
        *,
        stage: str | None = None,
        attempts: int | None = None,
        cause_type: str | None = None,
        cause_message: str | None = None,
    ) -> None:
        super().__init__(message)
        self.stage = stage
        self.attempts = attempts
        self.cause_type = cause_type
        self.cause_message = cause_message


class QueryFailedError(ReproError):
    """One submission failed inside the serving layer.

    Carries enough context to identify the failing item in a batch —
    its position, a prefix of its SQL, and the underlying cause — so a
    ``submit_many`` over hundreds of queries reports *which* one broke
    instead of a bare subsystem error.

    The cause chain is carried in picklable form (``cause_type`` /
    ``cause_message`` strings plus the failing ``stage``) so handles can
    cross process boundaries; :attr:`cause` additionally keeps the live
    exception object in-process (for callers that want the concrete
    ``BindError`` / ``ParseError``), but is dropped on pickling.
    """

    def __init__(
        self,
        message: str,
        *,
        index: int | None = None,
        sql: str | None = None,
        cause: BaseException | None = None,
        stage: str | None = None,
    ) -> None:
        prefix = None
        if sql is not None:
            prefix = sql if len(sql) <= 80 else sql[:77] + "..."
        where = "query" if index is None else f"query #{index}"
        detail = f"{where} failed: {message}" if message else f"{where} failed"
        if prefix is not None:
            detail = f"{detail} [sql: {prefix}]"
        super().__init__(detail)
        self.index = index
        self.sql = sql
        self.sql_prefix = prefix
        self.stage = stage
        self.cause = cause
        self.cause_type = type(cause).__name__ if cause is not None else None
        self.cause_message = str(cause) if cause is not None else None
        if cause is not None:
            self.__cause__ = cause

    def __reduce__(self):
        # The live cause may hold an unpicklable traceback/lock graph
        # (and AdmissionDeniedError has required keyword arguments the
        # default ``cls(*args)`` reconstruction cannot supply); pickle
        # the formatted message and the attribute dict minus the live
        # exception object.
        state = {k: v for k, v in self.__dict__.items() if k != "cause"}
        state["cause"] = None
        detail = self.args[0] if self.args else ""
        return (_restore_error, (type(self), detail, state))


class AdmissionDeniedError(QueryFailedError):
    """Admission control refused a submission: the tenant's dollar
    budget is exhausted.

    Raised (well — carried on the :class:`~repro.core.service.QueryHandle`,
    whose terminal state becomes ``DENIED``) when a tenant's
    :class:`~repro.core.ledger.TenantBill` total spend (serving plus
    background tuning) has reached its configured
    :class:`~repro.core.governance.TenantBudget`.  Subclasses
    :class:`QueryFailedError` so batch error reporting
    (``fail_fast=False`` per-handle carrying, index + SQL prefix) works
    unchanged; carries the tenant and the dollar figures so callers can
    show *whose* budget blocked *what*.
    """

    def __init__(
        self,
        message: str,
        *,
        tenant: str,
        spent_dollars: float | None = None,
        budget_dollars: float | None = None,
        index: int | None = None,
        sql: str | None = None,
    ) -> None:
        super().__init__(message, index=index, sql=sql)
        self.tenant = tenant
        self.spent_dollars = spent_dollars
        self.budget_dollars = budget_dollars


class DurabilityError(ReproError):
    """Base class for write-ahead journal / crash-recovery failures."""


class JournalError(DurabilityError):
    """The write-ahead journal rejected an operation (unknown record
    type, appending to a closed journal, a corrupt serialized file)."""


class RecoveryError(DurabilityError):
    """Crash recovery could not restore a consistent warehouse (replay
    onto a non-fresh warehouse, a journal/catalog mismatch, an in-doubt
    recommendation whose undo snapshot is unusable)."""


class TuningError(ReproError):
    """Auto-tuning / what-if service failure."""


class TuningStateError(TuningError):
    """Invalid :class:`~repro.tuning.service.Recommendation` lifecycle
    transition (e.g. applying a rejected recommendation, or rolling back
    one that was never applied).  Carries the states so callers can show
    the user what the recommendation would have needed to be in."""

    def __init__(self, message: str, *, state: str | None = None) -> None:
        super().__init__(message)
        self.state = state


class WorkloadError(ReproError):
    """Workload generation failure (bad scale factor, unknown template...)."""
