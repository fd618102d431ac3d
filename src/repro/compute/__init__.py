"""Elastic compute layer: nodes, pricing, warm pool, billing.

Models the paper's assumptions (§3): symmetric stateless compute nodes
acquired on demand, a provider-maintained warm pool for rapid cluster
creation/resizing/reclamation, and billing proportional to *total machine
time* (blocked nodes are still billed).
"""

from repro.compute.node import NodeSpec, NODE_SPECS
from repro.compute.pricing import PriceModel, TSHIRT_SIZES
from repro.compute.billing import BillingMeter, CostBreakdown
from repro.compute.warmpool import WarmPool

__all__ = [
    "NodeSpec",
    "NODE_SPECS",
    "PriceModel",
    "TSHIRT_SIZES",
    "BillingMeter",
    "CostBreakdown",
    "WarmPool",
]
