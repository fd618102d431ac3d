"""DOP planner: constrained search over per-pipeline parallelism.

Greedy marginal search with the cost estimator as referee:

- **min cost s.t. latency SLA**: grow the DOP of the pipeline whose
  doubling buys the most latency per added dollar until the SLA holds,
  then co-finish-polish sibling groups and trim DOPs that no longer pay
  for themselves.
- **min latency s.t. budget**: grow DOPs while the budget allows,
  picking the best latency-per-dollar move each round.

The search evaluates the analytic estimator O(pipelines · log max_dop)
times — the complexity the paper demands ("comparable to existing
optimizers") versus the exponential unified search it rejects.

The search is table-driven.  One algorithm (:class:`DopPlanner`) asks a
*coster* two things: the metrics of an assignment and the metrics of a
round of single-pipeline moves.  The production coster answers both
from tables: per pipeline, the compiled cost curve's per-DOP duration
memo (:mod:`repro.cost.curve`); per DAG, one
:class:`~repro.cost.query_simulator.ScheduleSweeper` holding the DAG's
structure as positional indexes, built once and shared by the
optimizer's search and every DOP-monitor replan of that DAG.  A round
of candidate moves is then one duration lookup per candidate plus one
lean sweep — with a critical-path prune that skips candidates provably
unable to reduce latency — and no ``CostEstimate`` is built during the
search at all.  The final estimate is built on first read of
:attr:`DopPlan.estimate`, so a replan that only consumes ``.dops``
never pays for it.

A finished search is memoized: before it builds a coster,
:meth:`DopPlanner.plan` asks the estimator's per-DAG plan memo
(:meth:`~repro.cost.estimator.CostEstimator.recall_plan`) for
``(constraint, overrides_key(overrides), max_dop,
enforce_sla_strictly)`` and, on a hit, returns a fresh :class:`DopPlan`
over a copy of the remembered DOPs with the evaluation count the search
recorded.  Curves, sweeper and memo live as long as the estimator — in
serving, one walk's scratch, which the DOP monitor's replans during that
walk's simulation share.  A monitor that has learned nothing takes its
planned DOPs without calling the planner, and a plan served again from
the exact plan cache never replans (the simulation memo answers it).

The parity suite runs the same search phases over
:class:`repro.testing.reference.NaiveCoster` — every candidate fully
re-estimated, the memo neither read nor written — and holds the tables
to it: same trajectory, same evaluation count, same floats.
"""

from __future__ import annotations

import copy
import itertools
from functools import partial
from typing import Callable, Iterator

from repro.cost.estimate import CostEstimate
from repro.cost.estimator import CostEstimator
from repro.cost.timing_cache import overrides_key
from repro.dop.cofinish import equalize_siblings
from repro.dop.constraints import Constraint
from repro.errors import InfeasibleConstraintError
from repro.plan.pipelines import PipelineDag


class _IncrementalCoster:
    """Table-driven coster for one ``(dag, overrides)`` search.

    Durations come from the pipelines' cost curves (memoized per DOP,
    shared with every other search over the same pipelines through the
    same estimator); schedules come from the DAG's shared sweeper.
    Metrics are bit-identical to
    :meth:`CostEstimator.estimate_dag` on the same assignment — the
    sweeper runs the same scheduling arithmetic over the same durations.
    """

    def __init__(
        self,
        estimator: CostEstimator,
        dag: PipelineDag,
        overrides: dict[int, float] | None,
    ) -> None:
        self.estimator = estimator
        self.dag = dag
        self.overrides = overrides
        self._curves = [estimator.models.curve(p, overrides) for p in dag]
        self._sweeper = estimator.sweeper(dag)
        self._scan_dollars = estimator.scan_request_dollars(dag)
        self.evaluations = 0

    def metrics(self, dops: dict[int, int]) -> tuple[float, float]:
        """``(latency, total_dollars)`` of a whole assignment: a sweep
        over one no-op move."""
        pid = next(iter(dops))
        return next(self.price_moves(dops, [(pid, dops[pid])]))

    def price_moves(
        self,
        dops: dict[int, int],
        candidates: list[tuple[int, int]],
        prune_gainless: bool = False,
    ) -> Iterator[tuple[float, float]]:
        """``(latency, total_dollars)`` per ``(pid, new_dop)`` candidate;
        each one consumed counts as an evaluation."""
        for metric in self.sweep(dops, candidates, prune_gainless):
            self.evaluations += 1
            yield metric

    def sweep(
        self,
        dops: dict[int, int],
        candidates: list[tuple[int, int]],
        prune_gainless: bool = False,
    ) -> list[tuple[float, float]]:
        """Price a round of single-pipeline moves against ``dops``.

        One duration lookup per candidate (the changed pipeline at its
        new DOP) plus a single lean
        :class:`~repro.cost.query_simulator.ScheduleSweeper` pass.

        ``prune_gainless`` (gain-scored growth rounds only): candidates
        provably unable to reduce latency — their pipeline is not an
        ancestor of the whole critical set — are neither priced nor
        scheduled; they report the base metrics, which the caller's
        ``gain > epsilon`` test discards exactly as if they had been
        costed.
        """
        sweeper = self._sweeper
        curves = self._curves
        index = sweeper.index
        dop_list = [dops[pid] for pid in sweeper.pids]
        durations = [curve.duration(dop) for curve, dop in zip(curves, dop_list)]
        rate = self.estimator.price_per_node_second
        scan_dollars = self._scan_dollars

        keep = None
        state = None
        base_metric: tuple[float, float] | None = None
        if prune_gainless:
            keep, base_latency, base_machine, state = sweeper.filter_gainful(
                dop_list,
                durations,
                [(index[pid], new_dop) for pid, new_dop in candidates],
            )
            base_metric = (base_latency, base_machine * rate + scan_dollars)
            if not any(keep):
                return [base_metric] * len(candidates)

        moves: list[tuple[int, int, float]] = []
        for position, (pid, new_dop) in enumerate(candidates):
            if keep is not None and not keep[position]:
                continue
            moved = index[pid]
            moves.append((moved, new_dop, curves[moved].duration(new_dop)))
        swept = iter(sweeper.sweep(dop_list, durations, moves, state))
        results: list[tuple[float, float]] = []
        for position in range(len(candidates)):
            if keep is not None and not keep[position]:
                results.append(base_metric)  # type: ignore[arg-type]
            else:
                latency, machine_seconds = next(swept)
                results.append((latency, machine_seconds * rate + scan_dollars))
        return results


class DopPlan:
    """A DOP assignment plus its predicted cost profile.

    ``estimate`` may be passed as a zero-argument callable producing the
    :class:`CostEstimate`; it then runs on first read of
    :attr:`estimate` (and before pickling or comparing, so a plan
    crosses the sharding wire whole and equal to one read earlier).
    """

    def __init__(
        self,
        dops: dict[int, int],
        estimate: CostEstimate | Callable[[], CostEstimate],
        feasible: bool,
        evaluations: int = 0,
        constraint: Constraint | None = None,
    ) -> None:
        self.dops = dops
        self._estimate = estimate
        self.feasible = feasible
        self.evaluations = evaluations
        self.constraint = constraint

    @property
    def estimate(self) -> CostEstimate:
        estimate = self._estimate
        if not isinstance(estimate, CostEstimate):
            estimate = self._estimate = estimate()
        return estimate

    def _fields(self) -> tuple:
        return (
            self.dops,
            self.estimate,
            self.feasible,
            self.evaluations,
            self.constraint,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DopPlan):
            return NotImplemented
        return self._fields() == other._fields()

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_estimate"] = self.estimate
        return state

    def __repr__(self) -> str:
        return (
            f"DopPlan(dops={self.dops!r}, estimate={self.estimate!r}, "
            f"feasible={self.feasible!r}, evaluations={self.evaluations!r}, "
            f"constraint={self.constraint!r})"
        )

    @property
    def max_dop(self) -> int:
        return max(self.dops.values(), default=0)

    def describe(self) -> str:
        parts = [f"P{pid}:{dop}" for pid, dop in sorted(self.dops.items())]
        status = "feasible" if self.feasible else "INFEASIBLE"
        header = f"DOPs [{', '.join(parts)}] ({status})"
        return f"{header}\n{self.estimate.describe()}"


class DopPlanner:
    """Searches DOP assignments for one pipeline DAG."""

    def __init__(
        self,
        estimator: CostEstimator,
        *,
        max_dop: int = 64,
        enforce_sla_strictly: bool = False,
    ) -> None:
        self.estimator = estimator
        self.max_dop = max_dop
        self.enforce_sla_strictly = enforce_sla_strictly

    def with_estimator(self, estimator: CostEstimator) -> "DopPlanner":
        """This search — same class, same options — over ``estimator``
        (the optimizer's per-walk scratch)."""
        planner = copy.copy(self)
        planner.estimator = estimator
        return planner

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #
    def plan(
        self,
        dag: PipelineDag,
        constraint: Constraint,
        overrides: dict[int, float] | None = None,
    ) -> DopPlan:
        estimator = self.estimator
        key = (
            constraint,
            overrides_key(overrides),
            self.max_dop,
            self.enforce_sla_strictly,
        )
        found = estimator.recall_plan(dag, key)
        if found is not None:
            dops, feasible, evaluations = found
            dops = dict(dops)
        else:
            coster = _IncrementalCoster(estimator, dag, overrides)
            search = self._plan_for_sla if constraint.is_sla else self._plan_for_budget
            dops, feasible = search(dag, constraint, overrides, coster)
            # The final estimate, built on first read, is one more.
            evaluations = coster.evaluations + 1
            estimator.remember_plan(dag, key, dops, feasible, evaluations)
        plan = DopPlan(
            dops=dops,
            estimate=partial(estimator.estimate_dag, dag, dops, overrides),
            feasible=feasible,
            evaluations=evaluations,
            constraint=constraint,
        )
        if not feasible and self.enforce_sla_strictly:
            raise InfeasibleConstraintError(
                f"no DOP assignment satisfies {constraint.describe()}",
                best_achievable=constraint.bound_value(plan.estimate),
            )
        return plan

    # ------------------------------------------------------------------ #
    # SLA mode: min dollars s.t. latency <= SLA
    # ------------------------------------------------------------------ #
    def _plan_for_sla(
        self,
        dag: PipelineDag,
        constraint: Constraint,
        overrides: dict[int, float] | None,
        coster: _IncrementalCoster,
    ) -> tuple[dict[int, int], bool]:
        sla = constraint.bound()
        dops = {p.pipeline_id: 1 for p in dag}
        latency, dollars = coster.metrics(dops)

        # Phase 1: grow until the SLA is met or no move helps.
        while latency > sla:
            move = self._best_growth_move(dops, latency, dollars, coster)
            if move is None:
                break
            dops, latency, dollars = move
        feasible = latency <= sla

        # Phase 2: co-finish polish (never increases latency).
        polished = equalize_siblings(
            dag, dops, self.estimator.models, max_dop=self.max_dop, overrides=overrides
        )
        if polished != dops:
            polished_latency, polished_dollars = coster.metrics(polished)
            if polished_latency <= max(latency, sla):
                dops = polished
                latency, dollars = polished_latency, polished_dollars

        # Phase 3: trim DOPs whose halving keeps the SLA and saves money.
        return self._trim(dops, dollars, sla, feasible, coster), feasible

    def _trim(
        self,
        dops: dict[int, int],
        dollars: float,
        sla: float,
        feasible: bool,
        coster: _IncrementalCoster,
    ) -> dict[int, int]:
        """Sequential-greedy trim: each pipeline is considered once per
        round in ascending id order and an accepted halving takes effect
        immediately.

        A round prices every not-yet-visited candidate against the
        *current* assignment; the first acceptance invalidates the rest
        of that pricing, so the scan resumes just after it with a fresh
        one.  The common final round (nothing improves) is a single
        sweep.
        """
        pids = sorted(dops)
        improved = True
        while improved:
            improved = False
            position = 0
            while position < len(pids):
                candidates = [
                    (pid, dops[pid] // 2) for pid in pids[position:] if dops[pid] > 1
                ]
                applied = False
                for (pid, halved), (trial_latency, trial_dollars) in zip(
                    candidates, coster.price_moves(dops, candidates)
                ):
                    if trial_dollars < dollars and (
                        trial_latency <= sla or not feasible
                    ):
                        dops = dict(dops)
                        dops[pid] = halved
                        dollars = trial_dollars
                        improved = True
                        applied = True
                        position = pids.index(pid) + 1
                        break
                if not applied:
                    break
        return dops

    def _best_growth_move(
        self,
        dops: dict[int, int],
        current_latency: float,
        current_dollars: float,
        coster: _IncrementalCoster,
        budget: float | None = None,
    ) -> tuple[dict[int, int], float, float] | None:
        """The doubling with the best latency gain per added dollar.

        With ``budget`` set (budget mode), moves that break the budget
        are discarded.  Returns the mutated assignment plus its metrics.
        """
        candidates = [
            (pid, min(self.max_dop, dops[pid] * 2))
            for pid in dops
            if dops[pid] < self.max_dop
        ]
        best: tuple[float, int, int, float, float] | None = None
        for (pid, new_dop), (latency, dollars) in zip(
            candidates, coster.price_moves(dops, candidates, prune_gainless=True)
        ):
            if budget is not None and dollars > budget:
                continue
            gain = current_latency - latency
            if gain <= 1e-9:
                continue
            extra = max(1e-12, dollars - current_dollars)
            score = gain / extra
            if best is None or score > best[0]:
                best = (score, pid, new_dop, latency, dollars)
        if best is None:
            return None
        trial = dict(dops)
        trial[best[1]] = best[2]
        return trial, best[3], best[4]

    # ------------------------------------------------------------------ #
    # Budget mode: min latency s.t. dollars <= budget
    # ------------------------------------------------------------------ #
    def _plan_for_budget(
        self,
        dag: PipelineDag,
        constraint: Constraint,
        overrides: dict[int, float] | None,
        coster: _IncrementalCoster,
    ) -> tuple[dict[int, int], bool]:
        budget = constraint.bound()
        dops = {p.pipeline_id: 1 for p in dag}
        latency, dollars = coster.metrics(dops)
        if dollars > budget:
            # Even the minimal assignment exceeds the budget.
            return dops, False

        while True:
            move = self._best_growth_move(dops, latency, dollars, coster, budget)
            if move is None:
                break
            dops, latency, dollars = move

        polished = equalize_siblings(
            dag, dops, self.estimator.models, max_dop=self.max_dop, overrides=overrides
        )
        if polished != dops:
            polished_latency, polished_dollars = coster.metrics(polished)
            if (
                polished_dollars <= budget
                and polished_latency <= latency + 1e-9
            ):
                dops = polished
        return dops, True


def exhaustive_search(
    dag: PipelineDag,
    constraint: Constraint,
    estimator: CostEstimator,
    *,
    dop_choices: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64),
    overrides: dict[int, float] | None = None,
) -> DopPlan:
    """Brute-force optimum over a DOP grid (tests & heuristic-quality
    experiments only — exponential in the number of pipelines)."""
    pids = [p.pipeline_id for p in dag]
    best: tuple[float, dict[int, int], CostEstimate] | None = None
    evaluations = 0
    for combo in itertools.product(dop_choices, repeat=len(pids)):
        dops = dict(zip(pids, combo))
        estimate = estimator.estimate_dag(dag, dops, overrides)
        evaluations += 1
        if not constraint.satisfied(estimate):
            continue
        objective = constraint.objective(estimate)
        if best is None or objective < best[0]:
            best = (objective, dops, estimate)
    if best is None:
        # Infeasible everywhere: fall back to the bound-minimizing combo.
        for combo in itertools.product(dop_choices, repeat=len(pids)):
            dops = dict(zip(pids, combo))
            estimate = estimator.estimate_dag(dag, dops, overrides)
            evaluations += 1
            value = constraint.bound_value(estimate)
            if best is None or value < best[0]:
                best = (value, dops, estimate)
        assert best is not None
        return DopPlan(
            dops=best[1],
            estimate=best[2],
            feasible=False,
            evaluations=evaluations,
            constraint=constraint,
        )
    return DopPlan(
        dops=best[1],
        estimate=best[2],
        feasible=True,
        evaluations=evaluations,
        constraint=constraint,
    )
