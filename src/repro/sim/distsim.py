"""The discrete-event distributed execution simulator.

Executes one query's pipeline DAG over simulated elastic compute and
plays the role of the paper's production cluster.  Divergences from the
analytic estimator — all *hidden* from planning — are:

- true cardinalities (``truth`` overrides) instead of optimizer estimates;
- partition skew on shuffled pipelines (Zipf stragglers);
- multiplicative rate noise per pipeline;
- miscalibrated exchange constants (protocol inefficiency the regression
  calibration of §3.1 can recover);
- warm-pool provisioning latencies and per-lease minimum billing;
- morsel-driven mid-pipeline resizing: a scaling policy (the DOP monitor)
  may change a pipeline's DOP at progress checkpoints, or replan pending
  pipelines (§3.3).

Billing follows the paper's semantics: a breaker pipeline's nodes stay
leased (idle, billed) until the consumer starts and inherits them; in
``materialize_exchanges`` mode (the BigQuery-style "clean cuts" baseline)
nodes release immediately but every exchange pays a materialization
round-trip through shared storage.

What is memoized, at two levels:

- *The two random draws* behind a pipeline's skew and noise.  They are
  a pure function of ``(seed, pipeline id, epoch, DOP, skew exponent,
  noise sigma)`` — the generator is derived from the first three and
  consumed in a fixed order — so :func:`perturbation_draws` keeps them
  in a bounded process-wide table (least recently used entries leave
  first; nothing in it depends on a plan, a calibration or a warehouse,
  so it is never invalidated).
- *The whole* :class:`SimResult` *of a served plan*, by the warehouse
  (``CostIntelligentWarehouse._simulate``), in the estimator's per-DAG
  simulation memo (:meth:`~repro.cost.estimator.CostEstimator.recall_simulation`).
  A run of this simulator reads the DAG, the DOP assignment, the planned
  estimate (a function of the two and the calibration), ``truth``, the
  :class:`SimConfig`, the operator models, and whatever the scaling
  policy holds; the warehouse builds the policy, the :class:`WarmPool`
  and the simulator fresh per call from the policy *name*, the
  constraint and ``max_dop``, and nothing reads a clock or an arrival
  time.  So under a policy name the result is a pure function of the
  key ``(policy name, constraint, DOP items, truth items or None,
  SimConfig, max_dop)`` beside the DAG — every later arrival of a plan
  served from the exact plan cache replayed, event by event, the run
  the first one got — and is stored once
  (``tests/core/test_simulation_memo.py`` sweeps the purity claim
  against a freshly built simulator).  *Lifetime*: the table is keyed
  weakly by the DAG, so an entry dies with the plan (the exact cache's
  eviction is the only retention policy) and
  ``CostEstimator.invalidate_caches()`` drops it with the curves it was
  computed from; nothing sizes it.  A caller-supplied
  :class:`ScalingPolicy` *instance* may carry state between runs and
  bypasses the table.  *Sharing*: one :class:`SimResult` is handed to
  the :class:`~repro.core.service.QueryOutcome` of every arrival it
  answers, like the cached ``PlanChoice`` beside it — treat it, its
  ``cost`` and its ``runs`` as read-only.

The modelling statement behind the second level: a warehouse simulates
under one :class:`SimConfig`, hence one ``seed``, so every arrival of a
plan sees the *same* skew and noise draw.  The paper's §3.3 deviations
are per execution — two runs of one plan on a real cluster straggle
differently — which this model has never expressed: before the memo,
arrivals recomputed identical numbers.  Giving each arrival its own seed
(say, derived from the query id) would be a change of model that makes
the result depend on the arrival and so *retires* the table; it is not a
setting of it.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

from repro.compute.billing import BillingMeter, CostBreakdown
from repro.compute.node import NodeSpec
from repro.compute.pricing import PriceModel
from repro.compute.warmpool import WarmPool
from repro.cost.estimate import CostEstimate
from repro.cost.estimator import scan_request_dollars
from repro.cost.operator_models import OperatorModels
from repro.errors import ExecutionError
from repro.plan.physical import ExchangeKind
from repro.plan.pipelines import Pipeline, PipelineDag
from repro.sim.skew import skew_multiplier
from repro.util.rng import derive_rng


# ---------------------------------------------------------------------- #
# Configuration and results
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SimConfig:
    """Simulator behavior knobs, including hidden ground-truth factors."""

    seed: int = 0
    checkpoint_fraction: float = 0.2
    min_checkpoint_seconds: float = 0.2
    noise_sigma: float = 0.06
    skew_zipf_s: float = 0.5
    cpu_rate_multiplier: float = 0.94
    exchange_transfer_multiplier: float = 1.18
    exchange_setup_multiplier: float = 1.6
    materialize_exchanges: bool = False
    include_provisioning: bool = True
    resize_latency_s: float = 1.0


@dataclass
class PipelineRun:
    """Observed execution record of one pipeline."""

    pipeline_id: int
    dop_history: list[tuple[float, int]] = field(default_factory=list)
    start: float = 0.0
    run_start: float = 0.0
    finish: float = 0.0
    true_source_rows: float = 0.0
    resizes: int = 0

    @property
    def final_dop(self) -> int:
        return self.dop_history[-1][1] if self.dop_history else 0

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclass
class SimResult:
    """Outcome of one simulated query execution.  The warehouse hands
    one instance to every arrival of the plan it describes (see the
    module docstring): read-only once returned."""

    latency: float
    cost: CostBreakdown
    scan_request_dollars: float
    resize_count: int
    cold_starts: int
    runs: dict[int, PipelineRun] = field(default_factory=dict)

    @property
    def total_dollars(self) -> float:
        return self.cost.total_dollars + self.scan_request_dollars

    @property
    def machine_seconds(self) -> float:
        return self.cost.machine_seconds


# ---------------------------------------------------------------------- #
# Scaling-policy protocol (implemented in repro.monitor.policies)
# ---------------------------------------------------------------------- #
@dataclass
class CheckpointObservation:
    """What the DOP monitor sees at a progress checkpoint."""

    time: float
    pipeline_id: int
    progress: float
    dop: int
    elapsed: float
    projected_duration: float
    planned_duration: float
    planned_source_rows: float
    true_source_rows: float


@dataclass
class ResizeDecision:
    """Policy response: resize the current pipeline and/or replan others."""

    new_dop: int | None = None
    replan: dict[int, int] | None = None


class ScalingPolicy:
    """Base policy: never scales (static plan execution)."""

    name = "static"

    def on_pipeline_start(self, pipeline_id: int, planned_dop: int) -> int:
        """Return the DOP the pipeline should start with."""
        return planned_dop

    def on_checkpoint(self, obs: CheckpointObservation) -> ResizeDecision | None:
        return None

    def on_pipeline_finish(
        self, pipeline_id: int, time: float, true_rows: float
    ) -> dict[int, int] | None:
        """Optionally replan pending pipelines' DOPs after a finish."""
        return None


# ---------------------------------------------------------------------- #
# Internal pipeline state
# ---------------------------------------------------------------------- #
_PENDING, _RUNNING, _DONE = range(3)


@dataclass
class _State:
    pipeline: Pipeline
    dop: int
    state: int = _PENDING
    epoch: int = 0
    progress: float = 0.0
    last_time: float = 0.0
    duration_full: float = 0.0
    leases: list[int] = field(default_factory=list)
    run: PipelineRun = field(default_factory=lambda: PipelineRun(-1))


class DistributedSimulator:
    """Runs one pipeline DAG to completion under a scaling policy."""

    def __init__(
        self,
        dag: PipelineDag,
        dops: dict[int, int],
        models: OperatorModels,
        *,
        truth: dict[int, float] | None = None,
        planned: CostEstimate | None = None,
        policy: ScalingPolicy | None = None,
        config: SimConfig | None = None,
        price_model: PriceModel | None = None,
        pool: WarmPool | None = None,
    ) -> None:
        self.dag = dag
        self.models = models
        self.truth = truth or {}
        self.planned = planned
        self.policy = policy or ScalingPolicy()
        self.config = config or SimConfig()
        spec: NodeSpec = models.hw.node
        self.pool = pool or WarmPool(spec)
        self.meter = BillingMeter(price_model or PriceModel(minimum_billed_seconds=1.0))
        self._states: dict[int, _State] = {}
        for pipeline in dag:
            dop = dops.get(pipeline.pipeline_id, 1)
            self._states[pipeline.pipeline_id] = _State(pipeline=pipeline, dop=dop)
        self._events: list[tuple[float, int, str, int, int]] = []
        self._seq = itertools.count()
        self._resize_count = 0

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run(self) -> SimResult:
        now = 0.0
        for pipeline in self.dag:
            if not pipeline.blocking_deps:
                self._push(0.0, "start", pipeline.pipeline_id, 0)
        last_time = 0.0
        while self._events:
            time, _, kind, pid, epoch = heapq.heappop(self._events)
            state = self._states[pid]
            if epoch != state.epoch and kind != "start":
                continue  # stale event from before a resize
            last_time = max(last_time, time)
            if kind == "start":
                self._handle_start(state, time)
            elif kind == "checkpoint":
                self._handle_checkpoint(state, time)
            elif kind == "finish":
                self._handle_finish(state, time)
            else:  # pragma: no cover - defensive
                raise ExecutionError(f"unknown event kind {kind!r}")

        unfinished = [s.pipeline.pipeline_id for s in self._states.values() if s.state != _DONE]
        if unfinished:
            raise ExecutionError(f"pipelines never completed: {unfinished}")
        self.meter.close_all(last_time)

        runs = {pid: s.run for pid, s in self._states.items()}
        return SimResult(
            latency=last_time,
            cost=self.meter.breakdown(),
            scan_request_dollars=scan_request_dollars(
                self.dag, self.models.hw.store
            ),
            resize_count=self._resize_count,
            cold_starts=self.pool.cold_starts,
            runs=runs,
        )

    # ------------------------------------------------------------------ #
    # Event handlers
    # ------------------------------------------------------------------ #
    def _handle_start(self, state: _State, now: float) -> None:
        pid = state.pipeline.pipeline_id
        dop = max(1, self.policy.on_pipeline_start(pid, state.dop))
        state.dop = dop
        latency = self._adjust_leases(state, dop, now)
        run_start = now + latency
        state.state = _RUNNING
        state.progress = 0.0
        state.last_time = run_start
        state.duration_full = self._true_duration(state, dop)
        state.run = PipelineRun(pipeline_id=pid)
        state.run.start = now
        state.run.run_start = run_start
        state.run.dop_history.append((now, dop))
        state.run.true_source_rows = self._true_source_rows(state.pipeline, dop)
        self._schedule_progress(state, run_start)

    def _handle_checkpoint(self, state: _State, now: float) -> None:
        state.progress = min(
            1.0, state.progress + (now - state.last_time) / state.duration_full
        )
        state.last_time = now
        obs = self._observation(state, now)
        decision = self.policy.on_checkpoint(obs)
        if decision is not None:
            if decision.replan:
                for pid, dop in decision.replan.items():
                    target = self._states.get(pid)
                    if target is not None and target.state == _PENDING:
                        target.dop = max(1, dop)
            if decision.new_dop is not None and decision.new_dop != state.dop:
                self._apply_resize(state, decision.new_dop, now)
                return
        self._schedule_progress(state, now)

    def _apply_resize(self, state: _State, new_dop: int, now: float) -> None:
        new_dop = max(1, new_dop)
        self._resize_count += 1
        state.run.resizes += 1
        latency = self._adjust_leases(state, new_dop, now)
        latency += self.config.resize_latency_s
        state.dop = new_dop
        state.epoch += 1
        state.duration_full = self._true_duration(state, new_dop)
        state.last_time = now + latency
        state.run.dop_history.append((now, new_dop))
        self._schedule_progress(state, now + latency)

    def _handle_finish(self, state: _State, now: float) -> None:
        state.progress = 1.0
        state.state = _DONE
        state.run.finish = now
        pipeline = state.pipeline
        pid = pipeline.pipeline_id

        release_now = (
            pipeline.consumer_id is None or self.config.materialize_exchanges
        )
        if release_now:
            self._close_leases(state, now)

        replan = self.policy.on_pipeline_finish(
            pid, now, state.run.true_source_rows
        )
        if replan:
            for target_pid, dop in replan.items():
                target = self._states.get(target_pid)
                if target is not None and target.state == _PENDING:
                    target.dop = max(1, dop)

        for other in self.dag:
            if pid in other.blocking_deps:
                other_state = self._states[other.pipeline_id]
                if other_state.state == _PENDING and all(
                    self._states[dep].state == _DONE for dep in other.blocking_deps
                ):
                    self._push(now, "start", other.pipeline_id, other_state.epoch)

    # ------------------------------------------------------------------ #
    # Scheduling helpers
    # ------------------------------------------------------------------ #
    def _push(self, time: float, kind: str, pid: int, epoch: int) -> None:
        heapq.heappush(self._events, (time, next(self._seq), kind, pid, epoch))

    def _schedule_progress(self, state: _State, now: float) -> None:
        remaining = max(0.0, (1.0 - state.progress) * state.duration_full)
        finish_at = now + remaining
        checkpoint_gap = self.config.checkpoint_fraction * state.duration_full
        pid = state.pipeline.pipeline_id
        if (
            state.duration_full >= self.config.min_checkpoint_seconds
            and checkpoint_gap > 0
            and now + checkpoint_gap < finish_at - 1e-9
        ):
            self._push(now + checkpoint_gap, "checkpoint", pid, state.epoch)
        else:
            self._push(finish_at, "finish", pid, state.epoch)

    # ------------------------------------------------------------------ #
    # Lease management
    # ------------------------------------------------------------------ #
    def _adjust_leases(self, state: _State, dop: int, now: float) -> float:
        """Bring ``state``'s lease count to ``dop``; returns latency."""
        if state.state == _PENDING and not self.config.materialize_exchanges:
            # Inherit pinned nodes from finished producer pipelines.
            for producer in self.dag:
                if producer.consumer_id == state.pipeline.pipeline_id:
                    producer_state = self._states[producer.pipeline_id]
                    state.leases.extend(producer_state.leases)
                    producer_state.leases = []
        latency = 0.0
        delta = dop - len(state.leases)
        if delta > 0:
            latency = self.pool.acquire(delta)
            if not self.config.include_provisioning:
                latency = 0.0
            for _ in range(delta):
                lease = self.meter.open_lease(
                    self.models.hw.node, now, label=f"P{state.pipeline.pipeline_id}"
                )
                state.leases.append(lease)
        elif delta < 0:
            for _ in range(-delta):
                self.meter.close_lease(state.leases.pop(), now)
            self.pool.release(-delta)
        return latency

    def _close_leases(self, state: _State, now: float) -> None:
        if state.leases:
            self.pool.release(len(state.leases))
        for lease in state.leases:
            self.meter.close_lease(lease, now)
        state.leases = []

    # ------------------------------------------------------------------ #
    # Ground-truth timing
    # ------------------------------------------------------------------ #
    def _true_duration(self, state: _State, dop: int) -> float:
        pipeline = state.pipeline
        config = self.config
        curve = self.models.curve(pipeline, self.truth or None)
        draws = perturbation_draws(
            config.seed,
            pipeline.pipeline_id,
            state.epoch,
            dop if curve.has_shuffle and dop > 1 else 0,
            config.skew_zipf_s,
            config.noise_sigma,
        )
        return true_pipeline_duration(
            pipeline, dop, self.models, self.truth, config, draws
        )

    def _true_source_rows(self, pipeline: Pipeline, dop: int) -> float:
        return self.models.curve(pipeline, self.truth or None).source_rows(dop)

    def _observation(self, state: _State, now: float) -> CheckpointObservation:
        pid = state.pipeline.pipeline_id
        planned_duration = 0.0
        planned_rows = float(state.pipeline.ops[0].node.est_rows)
        if self.planned is not None and pid in self.planned.pipelines:
            planned_duration = self.planned.pipelines[pid].duration
            planned_rows = self.planned.pipelines[pid].source_rows
        return CheckpointObservation(
            time=now,
            pipeline_id=pid,
            progress=state.progress,
            dop=state.dop,
            elapsed=now - state.run.run_start,
            projected_duration=state.duration_full,
            planned_duration=planned_duration,
            planned_source_rows=planned_rows,
            true_source_rows=state.run.true_source_rows,
        )


# ---------------------------------------------------------------------- #
# Ground-truth duration model
# ---------------------------------------------------------------------- #
@lru_cache(maxsize=4096)
def perturbation_draws(
    seed: int,
    pipeline_id: int,
    epoch: int,
    skew_dop: int,
    skew_zipf_s: float,
    noise_sigma: float,
) -> tuple[float, float]:
    """``(skew_multiplier, noise)`` of one pipeline run.

    ``skew_dop`` is the DOP when the pipeline shuffles at a DOP above 1
    and 0 otherwise (no straggler: the multiplier is 1.0 and the
    generator's first draw is the noise).  Skew is drawn before the
    lognormal noise, from ``derive_rng(seed, "pipeline", id, epoch)``.
    """
    rng = derive_rng(seed, "pipeline", str(pipeline_id), str(epoch))
    skew = skew_multiplier(skew_dop, skew_zipf_s, rng) if skew_dop else 1.0
    return skew, float(rng.lognormal(mean=0.0, sigma=noise_sigma))


def true_pipeline_duration(
    pipeline: Pipeline,
    dop: int,
    models: OperatorModels,
    truth: dict[int, float],
    config: SimConfig,
    draws: tuple[float, float],
) -> float:
    """Pipeline duration with the simulator's hidden perturbations;
    ``draws`` is the run's :func:`perturbation_draws` pair."""
    skew, noise = draws
    curve = models.curve(pipeline, truth if truth else None)
    stream = 0.0
    fixed = models.hw.pipeline_startup_s
    for is_exchange, (stream_s, fixed_s, bytes_in, _) in zip(
        curve.exchange_ops, curve.op_terms(dop)
    ):
        if is_exchange:
            stream_s *= config.exchange_transfer_multiplier
            fixed_s *= config.exchange_setup_multiplier
            if config.materialize_exchanges:
                store = models.hw.store
                round_trip = 2.0 * bytes_in / (dop * store.per_node_bandwidth)
                fixed_s += round_trip + 2.0 * store.request_latency_s
        else:
            stream_s /= config.cpu_rate_multiplier
        stream = max(stream, stream_s)
        fixed += fixed_s
    return (stream * skew + fixed) * noise


def measure_exchange(
    kind: ExchangeKind,
    payload_bytes: float,
    dop: int,
    *,
    models: OperatorModels | None = None,
    config: SimConfig | None = None,
    seed: int = 1,
) -> float:
    """Synthetic exchange micro-benchmark (the calibration oracle).

    Returns the simulator's ground-truth time for moving
    ``payload_bytes`` through one exchange at ``dop`` — what a real system
    would measure on its cluster to pre-train the regression models.
    """
    from repro.cost.regression import analytic_transfer_seconds

    models = models or OperatorModels()
    config = config or SimConfig()
    hw = models.hw
    rng = derive_rng(seed, "exchange", kind.value, str(int(payload_bytes)), str(dop))
    transfer = analytic_transfer_seconds(
        kind, payload_bytes, dop, hw.network_bytes_per_node, hw.broadcast_tree_factor
    )
    transfer *= config.exchange_transfer_multiplier
    if kind is ExchangeKind.SHUFFLE and dop > 1:
        transfer *= skew_multiplier(dop, config.skew_zipf_s, rng)
    setup = (
        hw.exchange_setup_s + hw.exchange_pair_setup_s * max(0, dop - 1)
    ) * config.exchange_setup_multiplier
    noise = float(rng.lognormal(mean=0.0, sigma=config.noise_sigma))
    return (transfer + setup) * noise
