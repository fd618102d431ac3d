"""Regression-calibrated exchange models (paper §3.1).

"To improve the prediction accuracy for more complex operators (typically
involve data exchange between nodes), we pre-train regression models for
them with synthetic workloads that cover the parameter space."

The model stays explainable: for each exchange kind we fit three
coefficients by ordinary least squares on synthetic (bytes, dop, time)
measurements —

    time ≈ transfer_scale * analytic_transfer(bytes, dop)
           + base_setup_s + per_peer_setup_s * (dop - 1)

``analytic_transfer`` is the closed-form network term; the fitted scale
absorbs protocol inefficiency and the setup terms absorb coordination
cost.  Training data comes from the discrete-event simulator (in lieu of
the paper's real clusters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from repro.errors import EstimationError
from repro.plan.physical import ExchangeKind


@dataclass(frozen=True)
class ExchangeCoefficients:
    """Fitted linear model for one exchange kind."""

    transfer_scale: float = 1.0
    base_setup_s: float = 0.05
    per_peer_setup_s: float = 0.004

    def __post_init__(self) -> None:
        if self.transfer_scale <= 0:
            raise EstimationError("transfer_scale must be positive")


@dataclass(frozen=True)
class ExchangeCalibration:
    """Coefficients per exchange kind."""

    by_kind: dict[ExchangeKind, ExchangeCoefficients] = field(default_factory=dict)

    def coefficients(self, kind: ExchangeKind) -> ExchangeCoefficients:
        found = self.by_kind.get(kind)
        return ExchangeCoefficients() if found is None else found

    @classmethod
    def analytic(cls, hardware) -> "ExchangeCalibration":
        """Uncalibrated defaults taken straight from hardware constants."""
        coeffs = ExchangeCoefficients(
            transfer_scale=1.0,
            base_setup_s=hardware.exchange_setup_s,
            per_peer_setup_s=hardware.exchange_pair_setup_s,
        )
        return cls(by_kind={kind: coeffs for kind in ExchangeKind})


@dataclass(frozen=True)
class ExchangeSample:
    """One synthetic measurement: moving ``bytes`` at ``dop`` took ``seconds``."""

    kind: ExchangeKind
    payload_bytes: float
    dop: int
    seconds: float


def analytic_transfer_seconds(
    kind: ExchangeKind,
    payload_bytes: float,
    dop: int,
    network_bytes_per_node: float,
    broadcast_tree_factor: float,
) -> float:
    """Closed-form network transfer time (no setup terms)."""
    if kind is ExchangeKind.SHUFFLE:
        moved = payload_bytes * (dop - 1) / dop if dop > 1 else 0.0
        return moved / (dop * network_bytes_per_node)
    if kind is ExchangeKind.BROADCAST:
        hops = 1.0 + broadcast_tree_factor * math.log2(max(1, dop))
        return payload_bytes * hops / network_bytes_per_node
    if kind is ExchangeKind.GATHER:
        return payload_bytes / network_bytes_per_node
    raise EstimationError(f"unknown exchange kind {kind}")


def fit_exchange_coefficients(
    samples: list[ExchangeSample],
    network_bytes_per_node: float,
    broadcast_tree_factor: float,
) -> ExchangeCoefficients:
    """Least-squares fit of the three-coefficient model for one kind."""
    if len(samples) < 3:
        raise EstimationError(f"need >= 3 samples to fit, got {len(samples)}")
    kinds = {s.kind for s in samples}
    if len(kinds) != 1:
        raise EstimationError(f"samples mix exchange kinds: {kinds}")
    kind = samples[0].kind
    design = np.zeros((len(samples), 3))
    target = np.zeros(len(samples))
    for row, sample in enumerate(samples):
        design[row, 0] = analytic_transfer_seconds(
            kind,
            sample.payload_bytes,
            sample.dop,
            network_bytes_per_node,
            broadcast_tree_factor,
        )
        design[row, 1] = 1.0
        design[row, 2] = max(0, sample.dop - 1)
        target[row] = sample.seconds
    solution, *_ = np.linalg.lstsq(design, target, rcond=None)
    scale, base, per_peer = solution
    # Clamp to physically meaningful values: negative setups mean the
    # analytic term over-explains; fold the residual into the scale.
    return ExchangeCoefficients(
        transfer_scale=max(0.05, float(scale)),
        base_setup_s=max(0.0, float(base)),
        per_peer_setup_s=max(0.0, float(per_peer)),
    )


MeasureFn = Callable[[ExchangeKind, float, int], float]


def calibrate_exchange(
    measure: MeasureFn,
    *,
    hardware,
    payload_grid: Iterable[float] = (8e6, 64e6, 256e6, 1e9),
    dop_grid: Iterable[int] = (1, 2, 4, 8, 16, 32),
    kinds: Iterable[ExchangeKind] = tuple(ExchangeKind),
) -> ExchangeCalibration:
    """Pre-train exchange models on a synthetic parameter sweep.

    ``measure(kind, payload_bytes, dop)`` must return observed seconds —
    in this repo that is the discrete-event simulator's exchange
    micro-benchmark (:func:`repro.sim.distsim.measure_exchange`).
    """
    by_kind: dict[ExchangeKind, ExchangeCoefficients] = {}
    for kind in kinds:
        samples = [
            ExchangeSample(kind, payload, dop, measure(kind, payload, dop))
            for payload in payload_grid
            for dop in dop_grid
        ]
        by_kind[kind] = fit_exchange_coefficients(
            samples,
            hardware.network_bytes_per_node,
            hardware.broadcast_tree_factor,
        )
    return ExchangeCalibration(by_kind=by_kind)
