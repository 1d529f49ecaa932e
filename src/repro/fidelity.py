"""First-class fidelity rungs for the measurement ladder.

Every answer the package produces sits on one of three rungs:

* ``analytic`` (rung 0) — the closed-form locality model of
  :mod:`repro.gpu.analytic`.  No simulation at all: hit rates and a
  calibrated cycle estimate come from reuse-distance and footprint
  math over the cluster map.  Orders of magnitude cheaper than a
  simulation; trustworthy for *ranking* configurations, not for
  absolute cycle counts.
* ``reduced`` (rung 1) — a real simulation at half problem scale.
  Everything the simulator models (scheduling noise, reserved hits,
  contention) is present, at a fraction of the wall time.
* ``full`` (rung 2) — the cycle-approximate simulator at the caller's
  requested scale.  The only rung whose numbers are leaderboard- and
  guarantee-eligible.

The tuner's ``halving`` strategy climbs this ladder (triage on rung 0,
spend simulation budget only on survivors), ``repro.api`` accepts
``fidelity=`` on its entry points, and the service serves rung 0 from
``POST /v1/estimate`` without touching its process pool.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Fidelity:
    """One rung of the measurement ladder.

    ``scale_multiplier`` is applied to the caller's problem scale when
    the rung simulates (rung 0 never does); ``budget_cost`` is what one
    evaluation charges against a tuner budget (rung 0 is free — that is
    the whole point); ``relative_cost`` is the approximate wall-clock
    cost relative to a full-fidelity evaluation, for display.
    """

    name: str
    rung: int
    scale_multiplier: float
    budget_cost: int
    relative_cost: float
    description: str

    @property
    def simulated(self) -> bool:
        """Whether this rung runs the cycle-approximate simulator."""
        return self.rung > 0

    def scale_of(self, scale: float) -> float:
        """The problem scale this rung evaluates a ``scale`` request
        at (rung 0 prices the requested scale itself)."""
        return scale * self.scale_multiplier if self.simulated else scale

    def __str__(self) -> str:
        return self.name


ANALYTIC = Fidelity(
    name="analytic", rung=0, scale_multiplier=0.0, budget_cost=0,
    relative_cost=0.02,
    description="closed-form locality model; no simulation, free to the "
                "tuner budget; trust its rankings, not its absolutes")

REDUCED = Fidelity(
    name="reduced", rung=1, scale_multiplier=0.5, budget_cost=1,
    relative_cost=0.5,
    description="real simulation at half problem scale; full simulator "
                "physics at a fraction of the wall time")

FULL = Fidelity(
    name="full", rung=2, scale_multiplier=1.0, budget_cost=1,
    relative_cost=1.0,
    description="cycle-approximate simulation at the requested scale; "
                "the only leaderboard- and guarantee-eligible rung")

#: The ladder, keyed by rung name, cheapest first.
FIDELITIES = {f.name: f for f in (ANALYTIC, REDUCED, FULL)}


def resolve_fidelity(value, *, default: Fidelity = FULL) -> Fidelity:
    """Normalize a caller-supplied fidelity to a named rung.

    Accepts a :class:`Fidelity`, a rung name (``"analytic"`` /
    ``"reduced"`` / ``"full"``, case-insensitive) or ``None``
    (→ ``default``).  Anything else, floats included, is a
    :class:`TypeError`.
    """
    if value is None:
        return default
    if isinstance(value, Fidelity):
        return value
    if isinstance(value, str):
        try:
            return FIDELITIES[value.lower()]
        except KeyError:
            raise ValueError(
                f"unknown fidelity {value!r}; known rungs: "
                f"{sorted(FIDELITIES)}") from None
    raise TypeError(
        f"fidelity must be a Fidelity or a rung name "
        f"({sorted(FIDELITIES)}), got {type(value).__name__}")
