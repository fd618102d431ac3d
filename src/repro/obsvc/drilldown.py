"""Tenant → template family → pipeline → operator spend decomposition.

The navigator is a pure view over one
:class:`~repro.obsvc.history.CostSnapshot`: every level is an exact
integral partition of the level above (ledger units, never floats), so
``sum(operators) == sum(pipelines) == sum(templates) == tenant total``
holds **bitwise** — :meth:`DrillDownNavigator.reconcile` asserts it
and the generated chaos histories drive it with faults injected.

Shape borrowed from the FinOps drill-down dashboards cited in the
paper's related work: start at the fleet, follow the biggest number
down four levels, end at the one operator to optimize.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.obsvc.history import CostSnapshot, TenantCostSlice
from repro.util.units import fmt_dollars, from_ledger_units

__all__ = [
    "DrillDownNavigator",
    "ReconciliationError",
]


class ReconciliationError(ReproError):
    """Drill-down leaves did not sum exactly to the tenant's bill."""


def _ranked(totals: dict[str, int]) -> tuple[tuple[str, int], ...]:
    """Deterministic spend ranking: units descending, name ascending."""
    return tuple(
        sorted(totals.items(), key=lambda item: (-item[1], item[0]))
    )


class DrillDownNavigator:
    """Read-only spend navigation over one collected snapshot."""

    def __init__(self, snapshot: CostSnapshot) -> None:
        self.snapshot = snapshot

    # -- levels ----------------------------------------------------------- #
    def tenants(self) -> tuple[tuple[str, int], ...]:
        """``(tenant, total ledger units)`` ranked by spend."""
        return _ranked(
            {entry.tenant: entry.total_units for entry in self.snapshot.tenants}
        )

    def templates(self, tenant: str) -> tuple[tuple[str, int], ...]:
        totals: dict[str, int] = {}
        for leaf in self._slice(tenant).leaves:
            totals[leaf.template] = totals.get(leaf.template, 0) + leaf.units
        return _ranked(totals)

    def pipelines(self, tenant: str, template: str) -> tuple[tuple[str, int], ...]:
        totals: dict[str, int] = {}
        for leaf in self._slice(tenant).leaves:
            if leaf.template == template:
                totals[leaf.pipeline] = totals.get(leaf.pipeline, 0) + leaf.units
        return _ranked(totals)

    def operators(
        self, tenant: str, template: str, pipeline: str
    ) -> tuple[tuple[str, int], ...]:
        totals: dict[str, int] = {}
        for leaf in self._slice(tenant).leaves:
            if leaf.template == template and leaf.pipeline == pipeline:
                totals[leaf.operator] = totals.get(leaf.operator, 0) + leaf.units
        return _ranked(totals)

    # -- navigation -------------------------------------------------------- #
    def costliest_path(self, tenant: "str | None" = None) -> tuple:
        """Follow the biggest spend down all four levels.

        Returns ``(tenant, template, pipeline, operator, units)`` for
        the top-spending tenant (or the given one).
        """
        if tenant is None:
            ranked = self.tenants()
            if not ranked:
                raise ReconciliationError("snapshot has no tenants")
            tenant = ranked[0][0]
        templates = self.templates(tenant)
        if not templates:
            return (tenant, "", "", "", 0)
        template = templates[0][0]
        pipeline = self.pipelines(tenant, template)[0][0]
        operator, units = self.operators(tenant, template, pipeline)[0]
        return (tenant, template, pipeline, operator, units)

    # -- reconciliation ----------------------------------------------------- #
    def reconcile(self, tenant: "str | None" = None) -> dict:
        """Assert the exact-partition invariant; raise on any stray unit.

        For each (or the given) tenant: the operator-level leaves sum
        bitwise to the slice's :class:`~repro.core.ledger.TenantBill`
        ledger-unit total, and every intermediate level re-partitions
        exactly.  Returns ``{tenant: total units}`` on success.
        """
        tenants = (
            [tenant] if tenant is not None
            else [entry.tenant for entry in self.snapshot.tenants]
        )
        totals: dict[str, int] = {}
        for name in tenants:
            entry = self._slice(name)
            leaf_units = entry.leaf_units
            if leaf_units != entry.total_units:
                raise ReconciliationError(
                    f"tenant {name!r}: leaves sum to {leaf_units} ledger "
                    f"units but the bill says {entry.total_units}"
                )
            template_units = sum(u for _, u in self.templates(name))
            if template_units != entry.total_units:
                raise ReconciliationError(
                    f"tenant {name!r}: template level lost units "
                    f"({template_units} != {entry.total_units})"
                )
            totals[name] = entry.total_units
        return totals

    # -- rendering ----------------------------------------------------------- #
    def describe(self, tenant: "str | None" = None, top: int = 3) -> str:
        """Human-readable drill-down tree (top-N per level)."""
        lines = [
            f"snapshot #{self.snapshot.seq} @ t={self.snapshot.clock:.2f}s "
            f"({self.snapshot.log_len} queries logged)"
        ]
        tenant_rows = (
            [(tenant, self._slice(tenant).total_units)]
            if tenant is not None
            else list(self.tenants()[:top])
        )
        for name, units in tenant_rows:
            lines.append(f"  {name}: {fmt_dollars(from_ledger_units(units))}")
            for template, t_units in self.templates(name)[:top]:
                lines.append(
                    f"    {template}: {fmt_dollars(from_ledger_units(t_units))}"
                )
                for pipeline, p_units in self.pipelines(name, template)[:top]:
                    lines.append(
                        f"      {pipeline}: "
                        f"{fmt_dollars(from_ledger_units(p_units))}"
                    )
                    for operator, o_units in self.operators(
                        name, template, pipeline
                    )[:top]:
                        lines.append(
                            f"        {operator}: "
                            f"{fmt_dollars(from_ledger_units(o_units))}"
                        )
        return "\n".join(lines)

    # -- internals ------------------------------------------------------------ #
    def _slice(self, tenant: str) -> TenantCostSlice:
        entry = self.snapshot.slice_for(tenant)
        if entry is None:
            raise ReconciliationError(
                f"tenant {tenant!r} is not in snapshot #{self.snapshot.seq}"
            )
        return entry
