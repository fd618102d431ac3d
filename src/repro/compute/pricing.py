"""Cloud pricing model and the baseline "T-shirt" size ladder.

``PriceModel`` converts machine time into user-observable cost (UOC) the
way commercial warehouses do: per-node-second rates with a minimum billing
increment per lease (Snowflake bills a 60-second minimum, then per
second).  The T-shirt ladder reproduces the provisioning UI the paper's
Figure 1 criticizes: each size doubles the node count and the unit price.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compute.node import NodeSpec


@dataclass(frozen=True)
class PriceModel:
    """Billing policy applied to node leases.

    ``minimum_billed_seconds`` is charged per node lease even if the node
    is released earlier; afterwards billing is per second.  ``markup``
    scales raw instance prices into the warehouse service's unit price.
    """

    minimum_billed_seconds: float = 60.0
    markup: float = 1.0

    def billed_seconds(self, lease_seconds: float) -> float:
        if lease_seconds < 0:
            raise ValueError(f"negative lease duration: {lease_seconds}")
        return max(lease_seconds, self.minimum_billed_seconds)

    def lease_dollars(self, spec: NodeSpec, lease_seconds: float) -> float:
        return self.billed_seconds(lease_seconds) * spec.price_per_second * self.markup


#: Snowflake-style warehouse size ladder: name -> node count.
TSHIRT_SIZES: dict[str, int] = {
    "XS": 1,
    "S": 2,
    "M": 4,
    "L": 8,
    "XL": 16,
    "2XL": 32,
    "3XL": 64,
    "4XL": 128,
}
