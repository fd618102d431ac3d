"""Elastic compute layer: nodes, pricing, warm pool, billing.

Models the paper's assumptions (§3): symmetric stateless compute nodes
acquired on demand, a provider-maintained warm pool for rapid cluster
creation/resizing/reclamation, and billing proportional to *total machine
time* (blocked nodes are still billed).
"""
