"""User constraints for bi-objective optimization.

The paper "downgrades" Pareto-front search into constrained single-
objective optimization: users state either a latency SLA (minimize
dollars subject to it) or a cloud budget (minimize latency subject to
it).  A constraint object carries exactly one of the two.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cost.estimate import CostEstimate
from repro.errors import OptimizerError


@dataclass(frozen=True)
class Constraint:
    """Either ``latency_sla`` seconds or ``budget`` dollars (exactly one)."""

    latency_sla: float | None = None
    budget: float | None = None

    def __post_init__(self) -> None:
        if (self.latency_sla is None) == (self.budget is None):
            raise OptimizerError(
                "specify exactly one of latency_sla or budget"
            )
        if self.latency_sla is not None and self.latency_sla <= 0:
            raise OptimizerError(f"latency SLA must be positive: {self.latency_sla}")
        if self.budget is not None and self.budget <= 0:
            raise OptimizerError(f"budget must be positive: {self.budget}")

    def __hash__(self) -> int:
        # Not the dataclass's field-tuple hash: that folds in
        # ``hash(None)``, which CPython <= 3.11 derives from the object's
        # address, so a constraint (and every plan-cache key holding
        # one) would hash differently from process to process even under
        # a fixed ``PYTHONHASHSEED``.  0.0 stands for the unset side (both
        # bounds must be positive).
        return hash((self.latency_sla or 0.0, self.budget or 0.0))

    @property
    def is_sla(self) -> bool:
        return self.latency_sla is not None

    # ------------------------------------------------------------------ #
    # Objective / feasibility
    # ------------------------------------------------------------------ #
    def objective(self, estimate: CostEstimate) -> float:
        """The quantity to minimize under this constraint."""
        return estimate.total_dollars if self.is_sla else estimate.latency

    def bound_value(self, estimate: CostEstimate) -> float:
        """The constrained quantity."""
        return estimate.latency if self.is_sla else estimate.total_dollars

    def bound(self) -> float:
        return self.latency_sla if self.is_sla else self.budget  # type: ignore[return-value]

    def satisfied(self, estimate: CostEstimate, *, slack: float = 1.0) -> bool:
        return self.bound_value(estimate) <= self.bound() * slack

    def describe(self) -> str:
        if self.is_sla:
            return f"min $ s.t. latency <= {self.latency_sla:.3g}s"
        return f"min latency s.t. cost <= ${self.budget:.4g}"


def sla_constraint(seconds: float) -> Constraint:
    """Minimize dollars subject to ``latency <= seconds``."""
    return Constraint(latency_sla=seconds)


def budget_constraint(dollars: float) -> Constraint:
    """Minimize latency subject to ``cost <= dollars``."""
    return Constraint(budget=dollars)
