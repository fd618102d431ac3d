"""Provisioning/optimization baselines the paper contrasts against.

- T-shirt sizing (paper Figure 1 / §2): a fixed warehouse size for the
  whole workload, chosen by the user up front.
- Performance-only planning: classical latency-minimizing optimization
  that ignores dollars.
- Serverless per-task execution (Starling/Lambada family): cloud
  functions priced per GB-second, avoiding over-provisioning at the cost
  of storage-mediated exchanges.

Run-time scaling baselines (interval and per-stage scalers) live in
:mod:`repro.monitor.policies`.
"""
