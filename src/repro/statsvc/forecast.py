"""Workload forecasting from the Statistics Service's logs (paper §4).

Predicting future workloads is what turns a one-time query cost into a
$/hour rate the What-If Service can weigh against maintenance costs.
The forecaster bins each template's arrivals, smooths rates with an
exponentially weighted moving average, and detects periodic (scheduled
report) templates via autocorrelation — deliberately simple, explainable
models in the spirit of §3.1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError
from repro.statsvc.logs import QueryLogStore, QueryRecord


@dataclass(frozen=True)
class TemplateForecast:
    """Forecast for one template family."""

    template: str
    rate_per_hour: float
    periodic: bool
    period_s: float | None
    observed_count: int
    avg_dollars: float
    avg_machine_seconds: float

    @property
    def dollars_per_hour(self) -> float:
        """Projected spend rate for this family."""
        return self.rate_per_hour * self.avg_dollars


#: Width of one arrival-count bin, in seconds.
BIN_SECONDS = 600.0
#: Weight of the newest bin in the smoothed arrival rate.
EWMA_ALPHA = 0.3
#: Fewest arrivals a template needs before it can be called periodic.
MIN_OBSERVATIONS = 3


class WorkloadForecaster:
    """Per-template arrival-rate and periodicity estimation."""

    def forecast(self, store: QueryLogStore) -> dict[str, TemplateForecast]:
        """Per-template forecasts over a log store (or any object with
        the store's read API, e.g. a per-tenant
        :class:`~repro.statsvc.logs.TenantLogView`)."""
        return {
            template: self.forecast_template(template, records, store.horizon)
            for template, records in store.by_template().items()
        }

    def rates(self, store: QueryLogStore) -> dict[str, float]:
        """Forecast arrivals/hour per template family.

        The thin per-family view of :meth:`forecast` that feeds resource
        governance — cost-aware cache retention and cache warming rank
        templates by these rates, the same numbers that gate
        :class:`~repro.tuning.service.TuningPolicy` auto-apply.
        """
        return {
            template: forecast.rate_per_hour
            for template, forecast in self.forecast(store).items()
        }

    def forecast_template(
        self,
        template: str,
        records: list[QueryRecord],
        horizon: tuple[float, float],
    ) -> TemplateForecast:
        if not records:
            raise ReproError(f"no records for template {template!r}")
        start, end = horizon
        span = max(end - start, BIN_SECONDS)
        times = np.array([r.timestamp for r in records])

        rate = self._ewma_rate(times, start, span)
        periodic, period = self._detect_period(times, start, span)
        if periodic and period is not None:
            rate = 3600.0 / period  # scheduled reports: one per period

        avg_dollars = float(np.mean([r.dollars for r in records]))
        avg_machine = float(np.mean([r.machine_seconds for r in records]))
        return TemplateForecast(
            template=template,
            rate_per_hour=rate,
            periodic=periodic,
            period_s=period,
            observed_count=len(records),
            avg_dollars=avg_dollars,
            avg_machine_seconds=avg_machine,
        )

    # ------------------------------------------------------------------ #
    def _ewma_rate(self, times: np.ndarray, start: float, span: float) -> float:
        """EWMA of per-bin arrival counts, scaled to per-hour."""
        bins = max(1, int(np.ceil(span / BIN_SECONDS)))
        counts = np.zeros(bins)
        indices = np.clip(((times - start) / BIN_SECONDS).astype(int), 0, bins - 1)
        np.add.at(counts, indices, 1)
        smoothed = counts[0]
        for count in counts[1:]:
            smoothed = EWMA_ALPHA * count + (1 - EWMA_ALPHA) * smoothed
        return float(smoothed) * 3600.0 / BIN_SECONDS

    def _detect_period(
        self, times: np.ndarray, start: float, span: float
    ) -> tuple[bool, float | None]:
        """Autocorrelation-based periodicity detection on arrival gaps.

        Scheduled templates produce near-constant inter-arrival gaps; we
        call a template periodic when the gap coefficient-of-variation is
        small and we have enough observations.
        """
        if times.size < MIN_OBSERVATIONS:
            return (False, None)
        gaps = np.diff(np.sort(times))
        gaps = gaps[gaps > 0]
        if gaps.size < 2:
            return (False, None)
        mean_gap = float(gaps.mean())
        cv = float(gaps.std() / mean_gap) if mean_gap > 0 else float("inf")
        if cv < 0.25:
            return (True, mean_gap)
        return (False, None)
