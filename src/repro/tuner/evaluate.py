"""Budget-accounted candidate evaluation on the sweep engine.

The :class:`Evaluator` is the strategies' only doorway to measurement.
It turns configuration points into declarative engine jobs (so
evaluations are parallel, persistently cached and bit-deterministic —
everything the engine already guarantees), memoizes per
``(point, rung)`` within a tuning run, and charges the tuning *budget*
per fresh evaluation.  When the budget runs dry it truncates the batch
(loudly, via the progress line) instead of raising, so every strategy
degrades gracefully to "best found so far".

Fidelity is a named rung of the measurement ladder
(:mod:`repro.fidelity`): ``analytic`` runs the closed-form locality
model through ``estimate`` jobs and is *free* to the budget;
``reduced`` simulates at half the requested scale; ``full`` simulates
at the requested scale and is the only leaderboard-eligible rung.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from repro.fidelity import FULL, Fidelity, resolve_fidelity
from repro.tuner.objective import Objective
from repro.tuner.space import Candidate, ConfigPoint, SearchSpace


@dataclass
class Evaluator:
    """Evaluate configuration points, spending a shared budget."""

    space: SearchSpace
    runner: "object"            # SweepRunner-compatible (has .run)
    objective: Objective
    scale: float
    seed: int = 0
    warmups: int = 1
    budget: int = 24
    progress: bool = False
    strategy: str = "?"
    #: Default rung for ``evaluate``/``candidates`` when the caller
    #: does not name one (``tune(fidelity=...)`` sets it run-wide).
    fidelity: "Fidelity | str | None" = None
    #: (point, rung name) -> Candidate for everything evaluated so far.
    seen: "dict[tuple, Candidate]" = field(default_factory=dict)
    spent: int = 0
    truncated: int = 0

    def __post_init__(self):
        self.fidelity = resolve_fidelity(self.fidelity, default=FULL)

    @property
    def remaining(self) -> int:
        return max(0, self.budget - self.spent)

    def candidates(self, *, fidelity=None) -> "list[Candidate]":
        """Everything evaluated at one rung, in leaderboard order."""
        rung = resolve_fidelity(fidelity, default=self.fidelity)
        found = [c for c in self.seen.values() if c.fidelity == rung.name]
        return sorted(found, key=Candidate.rank_key)

    def note(self, message: str) -> None:
        """Strategy progress line (stderr, like the engine's ETA line)."""
        if self.progress:
            print(f"[tune:{self.strategy}] {message}", file=sys.stderr)

    def _job(self, point: ConfigPoint, rung: Fidelity):
        job = self.space.job if rung.simulated else self.space.estimate_job
        return job(point, scale=rung.scale_of(self.scale), seed=self.seed,
                   warmups=self.warmups)

    def evaluate(self, points, *, fidelity=None,
                 source: str = "search") -> "list[Candidate]":
        """Evaluate a batch of points at one rung, budget allowing.

        Returns one :class:`Candidate` per *distinct* requested point
        that has a result (previously seen ones are served from the
        run-local memo at zero budget).  Simulated rungs charge the
        budget per fresh point and drop points beyond the remaining
        budget (counted in ``truncated``); the analytic rung is free,
        so it never truncates.
        """
        rung = resolve_fidelity(fidelity, default=self.fidelity)
        wanted, fresh = [], []
        for point in points:
            point = self.space.normalize(point)
            if (point, rung.name) not in self.seen and point not in fresh:
                fresh.append(point)
            if point not in wanted:
                wanted.append(point)
        if rung.budget_cost and len(fresh) > self.remaining:
            dropped = len(fresh) - self.remaining
            self.truncated += dropped
            self.note(f"budget exhausted: dropping {dropped} candidate(s)")
            fresh = fresh[:self.remaining]
        if fresh:
            jobs = [self._job(point, rung) for point in fresh]
            self.spent += rung.budget_cost * len(fresh)
            results = self.runner.run(jobs)
            for point, metrics in zip(fresh, results):
                self.seen[(point, rung.name)] = Candidate(
                    point=point,
                    score=self.objective.score(metrics),
                    cycles=float(metrics.cycles),
                    l1_hit_rate=float(metrics.l1_hit_rate),
                    l2_transactions=int(metrics.l2_transactions),
                    dram_transactions=int(metrics.dram_transactions),
                    fidelity=rung.name,
                    source=source)
            charge = "free" if not rung.budget_cost \
                else f"{self.spent}/{self.budget} budget"
            self.note(f"evaluated {len(fresh)} candidate(s) at the "
                      f"{rung.name} rung ({charge})")
        return [self.seen[(point, rung.name)] for point in wanted
                if (point, rung.name) in self.seen]

    def score_of(self, point: ConfigPoint,
                 fidelity=None) -> "float | None":
        """Score of an already-evaluated point (``None`` if unseen)."""
        rung = resolve_fidelity(fidelity, default=self.fidelity)
        candidate = self.seen.get((self.space.normalize(point), rung.name))
        return candidate.score if candidate is not None else None
