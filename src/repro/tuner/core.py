"""The tuning entry point: search one (workload, GPU, objective) triple.

``tune`` glues the subsystem together: bind the search space, obtain
the Fig.-11 framework's rule-based decision (through the engine, so it
caches like everything else), evaluate it at full fidelity as the
guaranteed *baseline* candidate, hand the budget to the requested
strategy, and assemble the ranked leaderboard.  The returned
:class:`TuneResult` is a plain record — every field pickles and
JSON-renders — except ``best_plan``, the live
:class:`~repro.gpu.plan.ExecutionPlan`, which is materialized only
in-process and stripped by :meth:`TuneResult.record` before the result
crosses a cache, pool or wire boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.engine.executors import framework_job
from repro.fidelity import FULL, resolve_fidelity
from repro.tuner.evaluate import Evaluator
from repro.tuner.objective import objective as lookup_objective
from repro.tuner.space import (Candidate, SearchSpace, point_from_decision)
from repro.tuner.strategies import strategy as lookup_strategy

#: Default candidate-evaluation budget (unique (point, fidelity) runs).
DEFAULT_BUDGET = 24


@dataclass(frozen=True)
class TuneResult:
    """One tuning run's outcome: winner, baseline, leaderboard.

    ``baseline`` is the framework's rule-based pick evaluated under
    the same objective; ``best.score <= baseline.score`` always holds
    (the regression-free guarantee).  ``leaderboard`` is every
    candidate evaluated at the tune's ``fidelity`` rung (``"full"``
    unless the caller lowered it) in rank order; ``evaluations``
    counts the budget actually spent; ``decision`` is a JSON-plain
    digest of the framework's reasoning.  ``best_plan`` is the plan
    ``best`` was scored on, built for :attr:`plan_scale`: simulating it
    at that scale (same seed and warm-ups) replays ``best.cycles``.
    """

    workload: str
    gpu: str
    objective: str
    strategy: str
    budget: int
    scale: float
    seed: int
    best: Candidate
    baseline: Candidate
    leaderboard: "tuple[Candidate, ...]"
    evaluations: int
    truncated: int
    decision: "tuple[tuple[str, object], ...]" = ()
    best_plan: "object | None" = None
    fidelity: str = "full"

    @property
    def plan_scale(self) -> float:
        """The problem scale the leaderboard was scored at: ``scale``,
        halved on the ``reduced`` rung."""
        return resolve_fidelity(self.fidelity).scale_of(self.scale)

    @property
    def speedup_vs_rule(self) -> float:
        """Objective ratio rule-pick / tuned-pick (>= 1.0 by design)."""
        if not self.best.score:
            return 1.0
        return self.baseline.score / self.best.score

    def record(self) -> "TuneResult":
        """Plan-free copy, safe to pickle/cache/serve (see the engine)."""
        return replace(self, best_plan=None)


def _decision_digest(summary) -> "tuple[tuple[str, object], ...]":
    """DecisionSummary -> sorted JSON-plain pairs for the record."""
    return (
        ("active_agents", summary.active_agents),
        ("category", summary.category.value),
        ("direction", summary.direction.name),
        ("expected_speedup", summary.expected_speedup),
        ("max_agents", summary.max_agents),
        ("reasoning", tuple(summary.reasoning)),
        ("scheme", summary.scheme),
    )


def tune(workload: str, gpu: str, *, objective: str = "cycles",
         strategy: str = "hillclimb", budget: int = DEFAULT_BUDGET,
         scale: float = 1.0, seed: int = 0, warmups: int = 1,
         fidelity=None, runner=None, progress: bool = False,
         profile=None, placement: str = None) -> TuneResult:
    """Search the clustering configuration space for one pair.

    ``budget`` bounds the number of candidate evaluations (fresh
    ``(point, rung)`` simulations; engine-level cache hits still
    count — the budget is a search-effort bound, not a wall-time one;
    the analytic rung is free).  ``fidelity`` names the rung the
    baseline and leaderboard are evaluated at (``"full"`` by default;
    ``"analytic"`` turns the whole tune into a simulation-free
    exploratory ranking).  ``runner`` accepts a pre-built
    :class:`~repro.engine.runner.SweepRunner` so callers control
    parallelism, caching and profiling; the default is the serial
    cached engine.  ``placement`` pins the chiplet placement axis to
    one policy (on chiplet platforms the axis is otherwise searched;
    flat platforms have no axis to pin).
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    rung = resolve_fidelity(fidelity, default=FULL)
    objective_rule = lookup_objective(objective)
    searcher = lookup_strategy(strategy)
    if runner is None:
        from repro.engine import default_runner
        runner = default_runner(jobs=1, cached=True, memo=True,
                                profile=profile)

    space = SearchSpace.for_workload(workload, gpu, scale=scale,
                                     placement=placement)
    summary = runner.run([framework_job(workload, space.gpu, scale=scale,
                                        seed=seed)])[0]
    warm = point_from_decision(summary, space)

    evaluator = Evaluator(space=space, runner=runner,
                          objective=objective_rule, scale=scale, seed=seed,
                          warmups=warmups, budget=budget, progress=progress,
                          strategy=searcher.name, fidelity=rung)
    evaluator.note(f"warm start {warm.label()} (rule pick: {summary.scheme})")
    baseline = evaluator.evaluate([warm], source="framework")[0]
    searcher.search(evaluator, space, warm)

    leaderboard = tuple(evaluator.candidates(fidelity=rung))
    best = leaderboard[0]
    result = TuneResult(
        workload=space.workload, gpu=space.gpu, objective=objective_rule.name,
        strategy=searcher.name, budget=budget, scale=scale, seed=seed,
        best=best, baseline=baseline, leaderboard=leaderboard,
        evaluations=evaluator.spent, truncated=evaluator.truncated,
        decision=_decision_digest(summary), fidelity=rung.name,
        best_plan=space.plan(best.point, scale=rung.scale_of(scale)))
    if profile is not None and hasattr(profile, "observe_tuning"):
        profile.observe_tuning(result)
    return result
